"""Vectorized frame decode: bit-identity with the reference parser.

:mod:`repro.daq.batchdecode` is the batch plane's hot path — a tiled
NumPy scan plus the native batch CRC, with bounded windows of the
reference :class:`~repro.daq.usb.FrameDecoder` around anything
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
        stream.expect(0)
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
        stream.expect(0)
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
        stream.expect(0)
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
