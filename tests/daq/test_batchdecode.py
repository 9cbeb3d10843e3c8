"""Vectorized frame decode: bit-identity with the reference parser.

:mod:`repro.daq.batchdecode` is the batch plane's hot path — a tiled
NumPy scan plus the native batch CRC, with the decoder's own resync
(:meth:`~repro.daq.usb.FrameDecoder._resync`) over anything
irregular. The only contract is *exactness*: same frames, counters,
buffer residue, stream contents, gaps and hook order as feeding the
reference decoder directly, for any byte stream and any chunk split.
"""

import numpy as np

from repro import native
from repro.daq import batchdecode
from repro.daq.stream import SampleStream
from repro.daq.usb import (
    MAX_SAMPLES_PER_FRAME,
    SYNC,
    FrameDecoder,
    FrameEncoder,
    crc16_ccitt,
)


def _build_wire(rng, n_frames, spf, mangle):
    enc = FrameEncoder(samples_per_frame=spf)
    wire = bytearray()
    for _ in range(n_frames):
        codes = rng.integers(-2048, 2048, size=spf, dtype=np.int64)
        element = int(rng.integers(0, 3)) if rng.random() < 0.2 else 0
        wire += enc.push(codes, element)
    wire += enc.flush()
    if mangle:
        for _ in range(rng.integers(0, 8)):
            op = rng.integers(0, 3)
            if len(wire) < 40:
                break
            if op == 0:  # bitflip
                pos = int(rng.integers(0, len(wire)))
                wire[pos] ^= 1 << int(rng.integers(0, 8))
            elif op == 1:  # delete a span
                pos = int(rng.integers(0, len(wire) - 20))
                del wire[pos : pos + int(rng.integers(1, 20))]
            else:  # insert garbage
                pos = int(rng.integers(0, len(wire)))
                blob = bytes(
                    rng.integers(
                        0, 256, size=int(rng.integers(1, 10)), dtype=np.uint8
                    )
                )
                wire[pos:pos] = blob
    return bytes(wire)


def _chunks(wire, splits):
    out, pos = [], 0
    for s in splits:
        out.append(wire[pos : pos + s])
        pos += s
    out.append(wire[pos:])
    return out


def _run_reference(wire, splits, seed_exp):
    dec = FrameDecoder()
    stream = SampleStream(samples_per_frame=32)
    if seed_exp:
        dec.expect(0)
    hooks = []
    for chunk in _chunks(wire, splits):
        frames = dec.feed(chunk)
        stream.ingest(frames)
        hooks.extend(f.sequence for f in frames)
    return dec, stream, hooks


def _run_batch(wire, splits, seed_exp):
    dec = FrameDecoder()
    stream = SampleStream(samples_per_frame=32)
    if seed_exp:
        dec.expect(0)
    hooks = []
    for chunk in _chunks(wire, splits):
        staged = batchdecode.stage(dec, chunk)
        batchdecode.crc_check([staged])
        batchdecode.commit(
            dec, staged, stream, lambda seq, now: hooks.append(seq), 0.0
        )
    return dec, stream, hooks


def _assert_identical(ref, bat, label):
    da, sa, ha = ref
    db, sb, hb = bat
    assert da.frames_decoded == db.frames_decoded, label
    assert da.lost_frames == db.lost_frames, label
    assert da.crc_errors == db.crc_errors, label
    assert da.stale_frames == db.stale_frames, label
    assert da.resync_bytes == db.resync_bytes, label
    assert da._expected_seq == db._expected_seq, label
    assert bytes(da._buffer) == bytes(db._buffer), label
    assert sa.samples_ingested == sb.samples_ingested, label
    assert sa.elements == sb.elements, label
    for el in sa.elements:
        assert np.array_equal(sa.samples(el), sb.samples(el)), label
        assert sa.gaps(el) == sb.gaps(el), label
    assert ha == hb, label


#: Longest CRC-covered frame body: header past the sync word + words.
_MAX_BODY = 7 + 2 * MAX_SAMPLES_PER_FRAME


def _reference_crcs(bodies):
    return np.array([crc16_ccitt(bytes(row)) for row in bodies], np.uint16)


class TestCrc16Batch:
    def test_path_follows_the_native_library(self):
        want = "native" if native.available() else "reference"
        assert batchdecode.crc_path() == want

    def test_matches_reference_for_every_frame_length(self):
        # Row-strided views, as crc_check passes them: each body is the
        # first `length` bytes of a wider frame row.
        rng = np.random.default_rng(7)
        for length in (0, 1, 2, 7, 74, _MAX_BODY):
            for rows in (1, 7, 8, 50):
                frames = rng.integers(
                    0, 256, size=(rows, length + 2), dtype=np.uint8
                )
                bodies = frames[:, :length]
                got = batchdecode.crc16_batch(bodies)
                assert np.array_equal(got, _reference_crcs(bodies)), length

    def test_check_value(self):
        body = np.frombuffer(b"123456789", dtype=np.uint8)[None, :]
        assert batchdecode.crc16_batch(body)[0] == 0x29B1

    def test_empty_body_is_the_seed(self):
        bodies = np.zeros((3, 0), dtype=np.uint8)
        assert batchdecode.crc16_batch(bodies).tolist() == [0xFFFF] * 3

    def test_same_verdicts_without_native(self, request):
        enc = FrameEncoder(samples_per_frame=32)
        wire = bytearray(
            b"".join(
                enc.push(np.arange(32, dtype=np.int64) + k, 0)
                for k in range(12)
            )
        )
        wire[5 * 73 + 20] ^= 0x10  # one corrupted frame body
        rng = np.random.default_rng(11)
        bodies = rng.integers(0, 256, size=(20, 74), dtype=np.uint8)[:, :72]
        check = np.frombuffer(b"123456789", dtype=np.uint8)[None, :]

        def results():
            staged = batchdecode.stage(FrameDecoder(), bytes(wire))
            batchdecode.crc_check([staged])
            return (
                [run.crc_ok.tolist() for run in staged.runs],
                batchdecode.crc16_batch(bodies).tolist(),
                batchdecode.crc16_batch(check).tolist(),
                batchdecode.crc16_batch(bodies[:, :0]).tolist(),
            )

        fast = results()
        request.getfixturevalue("no_native")
        assert batchdecode.crc_path() == "reference"
        assert results() == fast
        verdicts, crcs, (check_value,), empty = fast
        assert verdicts == [[k != 5 for k in range(12)]]
        assert crcs == _reference_crcs(bodies).tolist()
        assert check_value == 0x29B1
        assert empty == [0xFFFF] * 20


class TestBitIdentity:
    def test_randomized_streams_and_splits(self):
        rng = np.random.default_rng(1234)
        for trial in range(120):
            spf = int(rng.integers(1, 64))
            n_frames = int(rng.integers(0, 40))
            wire = _build_wire(rng, n_frames, spf, mangle=trial % 2 == 1)
            splits = [
                int(rng.integers(0, max(len(wire), 1)))
                for _ in range(int(rng.integers(0, 6)))
            ]
            seed_exp = bool(rng.integers(0, 2))
            _assert_identical(
                _run_reference(wire, splits, seed_exp),
                _run_batch(wire, splits, seed_exp),
                f"trial {trial}",
            )

    def test_clean_stream_stays_on_fast_path(self):
        enc = FrameEncoder(samples_per_frame=32)
        wire = b"".join(
            enc.push(np.arange(32, dtype=np.int64) + k, 0) for k in range(20)
        )
        dec = FrameDecoder()
        dec.expect(0)
        staged = batchdecode.stage(dec, wire)
        # One uniform run covering every frame, verdicts all true.
        assert len(staged.runs) == 1
        assert staged.runs[0].k == 20
        batchdecode.crc_check([staged])
        assert staged.runs[0].crc_ok.all()
        stream = SampleStream(samples_per_frame=32)
        assert batchdecode.commit(dec, staged, stream, None, 0.0) == 20
        assert not dec._buffer

    def test_stale_frames_mid_run_keep_later_segments(self):
        # Reordered-but-valid frames: 3 and 4 arrive after 5, so they
        # are stale, and the segments after the stale split (6, 7) must
        # still be booked. A CRC-valid reorder is the one shape the
        # mangle fuzz above cannot produce.
        enc = FrameEncoder(samples_per_frame=8)
        frames = [
            enc.push(np.arange(8, dtype=np.int64) + k, 0) for k in range(8)
        ]
        order = [0, 1, 2, 5, 3, 4, 6, 7]
        wire = b"".join(frames[k] for k in order)
        _assert_identical(
            _run_reference(wire, [], True),
            _run_batch(wire, [], True),
            "stale split",
        )
        dec, stream, _ = _run_batch(wire, [], True)
        assert dec.frames_decoded == 6  # 3 and 4 dropped as stale
        assert dec.stale_frames == 2
        assert dec.lost_frames == 2
        assert stream.samples_ingested == 6 * 8

    def test_split_tail_carries_over(self):
        enc = FrameEncoder(samples_per_frame=8)
        wire = enc.push(np.arange(8, dtype=np.int64), 0)
        dec = FrameDecoder()
        stream = SampleStream(samples_per_frame=8)
        staged = batchdecode.stage(dec, wire[:10])
        batchdecode.crc_check([staged])
        assert batchdecode.commit(dec, staged, stream, None, 0.0) == 0
        staged = batchdecode.stage(dec, wire[10:])
        batchdecode.crc_check([staged])
        assert batchdecode.commit(dec, staged, stream, None, 0.0) == 1
        assert stream.samples_ingested == 8


def _frames(n, spf=32, start=0):
    """``n`` consecutive frames of one element, one ``bytes`` each."""
    enc = FrameEncoder(samples_per_frame=spf)
    enc._sequence = start
    return [enc.push(np.arange(spf, dtype=np.int64) + k, 0) for k in range(n)]


def _assert_same_after_finalize(wire, splits, seed_exp=True):
    """Identical after every chunk and again once both are finalized."""
    ref = _run_reference(wire, splits, seed_exp)
    bat = _run_batch(wire, splits, seed_exp)
    _assert_identical(ref, bat, "chunks")
    for dec, stream, hooks in (ref, bat):
        frames = dec.finalize()
        stream.ingest(frames)
        hooks.extend(f.sequence for f in frames)
    _assert_identical(ref, bat, "finalized")
    return bat


class TestTiledResync:
    """``commit`` hands every irregular region to the decoder's one
    resync and goes back to the tiled scan after it."""

    def test_crc_failure_mid_run(self):
        wire = bytearray(b"".join(_frames(20)))
        wire[10 * 73 + 30] ^= 0x04  # a sample byte of frame 10
        dec, stream, _ = _assert_same_after_finalize(bytes(wire), [])
        assert dec.crc_errors == 1 and dec.lost_frames == 1
        assert dec.frames_decoded == 19

    def test_count_byte_claiming_more_than_128_bytes(self):
        frames = _frames(20)
        wire = bytearray(b"".join(frames))
        wire[6 * 73 + 6] = 255  # frame 6 claims 519 bytes
        for splits in ([], [6 * 73 + 100], [7 * 73, 14 * 73 + 5]):
            dec, _, _ = _assert_same_after_finalize(bytes(wire), splits)
            assert dec.frames_decoded == 19
        # With fewer bytes behind it than it claims, the claim stalls
        # both decoders until the end of the stream.
        short = bytes(wire[: 9 * 73])
        dec, _, _ = _assert_same_after_finalize(short, [])
        assert dec.frames_decoded == 8

    def test_more_than_128_bytes_of_garbage_between_runs(self):
        rng = np.random.default_rng(5)
        garbage = bytearray(rng.integers(0, 256, 300, dtype=np.uint8))
        garbage[40:42] = garbage[170:172] = SYNC  # false sync words
        frames = _frames(16)
        wire = b"".join(frames[:8]) + bytes(garbage) + b"".join(frames[8:])
        for splits in ([], [8 * 73 + 150], [8 * 73 + 299, 2]):
            dec, stream, hooks = _assert_same_after_finalize(wire, splits)
            assert dec.frames_decoded == 16 and dec.lost_frames == 0
            assert hooks == list(range(16))

    def test_frame_split_across_a_tick_edge(self):
        wire = b"".join(_frames(6, spf=8))
        for edge in (1, 2, 8, 9, 25 + 12, 3 * 25 - 1):
            dec, stream, _ = _assert_same_after_finalize(wire, [edge])
            assert dec.frames_decoded == 6
            assert stream.samples_ingested == 6 * 8

    def test_sequence_wrap_and_reorder_in_one_run(self):
        frames = _frames(8, spf=8, start=0xFFFC)
        order = [0, 1, 3, 2, 4, 6, 7]  # 2 late, 5 lost
        wire = b"".join(frames[k] for k in order)
        dec, _, _ = _assert_same_after_finalize(wire, [], seed_exp=False)
        assert dec.stale_frames == 1 and dec.lost_frames == 2


class TestResyncVisits:
    """The tiled path's resync goes over the garbage once, as the
    reference parser does: its per-frame CRC work is the reference's
    less the valid frames the batch CRC took, and grows linearly with
    the garbage."""

    def _crc_meter(self, monkeypatch):
        import repro.daq.usb as usb_mod

        meter = {"bytes": 0}
        real = usb_mod.crc16_ccitt

        def counting(data, seed=0xFFFF):
            meter["bytes"] += len(data)
            return real(data, seed)

        monkeypatch.setattr(usb_mod, "crc16_ccitt", counting)
        return meter

    def test_crc_work_matches_the_reference_and_is_linear(self, monkeypatch):
        frames = _frames(24)
        meter = self._crc_meter(monkeypatch)
        work = []
        for n_pairs in (400, 800):
            # False sync words at every even offset, each claiming a
            # 339-byte frame: the densest garbage the wire can carry.
            wire = (
                b"".join(frames[:4])
                + SYNC * n_pairs
                + b"".join(frames[4:])
            )
            meter["bytes"] = 0
            dec = FrameDecoder()
            dec.feed(wire)
            reference = meter["bytes"]
            meter["bytes"] = 0
            bat, _, _ = _run_batch(wire, [], False)
            # The resync checks the first valid frame after the garbage;
            # the tiled scan takes the other 23 to the batch CRC.
            assert meter["bytes"] == reference - 23 * (73 - 2)
            assert bat.frames_decoded == dec.frames_decoded == 24
            work.append(reference)
        assert work[1] <= 2.1 * work[0]
