"""USB framing: round trip, corruption, resynchronization."""

import numpy as np
import pytest

from repro.daq.usb import Frame, FrameDecoder, FrameEncoder, crc16_ccitt
from repro.errors import ConfigurationError


class TestCRC:
    def test_known_vector(self):
        # CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert crc16_ccitt(b"123456789") == 0x29B1

    @pytest.mark.parametrize(
        "data, expected",
        [
            (b"", 0xFFFF),  # seed passes through untouched
            (b"A", 0xB915),
            (b"123456789", 0x29B1),
            (b"\x00", 0xE1F0),
            (b"\xff\xff", 0x0000),
        ],
    )
    def test_known_answer_vectors(self, data, expected):
        """Published CRC-16/CCITT-FALSE vectors pin the polynomial,
        seed and bit order — any table regression breaks these."""
        assert crc16_ccitt(data) == expected

    def test_incremental_equals_whole(self):
        # Chaining via the seed must equal one pass over the bytes.
        data = b"framed-telemetry"
        split = crc16_ccitt(data[7:], seed=crc16_ccitt(data[:7]))
        assert split == crc16_ccitt(data)

    def test_detects_flip(self):
        data = b"hello world"
        assert crc16_ccitt(data) != crc16_ccitt(b"hellp world")

    def test_detects_every_single_bit_flip(self):
        data = bytearray(b"\x12\x34\x56\x78")
        clean = crc16_ccitt(bytes(data))
        for byte in range(len(data)):
            for bit in range(8):
                data[byte] ^= 1 << bit
                assert crc16_ccitt(bytes(data)) != clean
                data[byte] ^= 1 << bit


class TestRoundTrip:
    def test_simple(self):
        enc = FrameEncoder(samples_per_frame=16)
        codes = np.arange(-8, 8, dtype=np.int16)
        payload = enc.push(codes, element=2)
        frames = FrameDecoder().feed(payload)
        assert len(frames) == 1
        assert frames[0].element == 2
        assert np.array_equal(frames[0].samples, codes)

    def test_partial_needs_flush(self):
        enc = FrameEncoder(samples_per_frame=64)
        payload = enc.push(np.arange(10, dtype=np.int16), element=0)
        assert payload == b""
        payload = enc.flush()
        frames = FrameDecoder().feed(payload)
        assert len(frames) == 1
        assert frames[0].samples.size == 10

    def test_multi_frame_sequence(self):
        enc = FrameEncoder(samples_per_frame=8)
        dec = FrameDecoder()
        codes = np.arange(50, dtype=np.int16)
        frames = dec.feed(enc.push(codes, element=1) + enc.flush())
        assert len(frames) == 7
        got = np.concatenate([f.samples for f in frames])
        assert np.array_equal(got, codes)
        assert [f.sequence for f in frames] == list(range(7))
        assert dec.lost_frames == 0

    def test_element_change_flushes(self):
        enc = FrameEncoder(samples_per_frame=64)
        payload = enc.push(np.arange(5, dtype=np.int16), element=0)
        payload += enc.push(np.arange(5, dtype=np.int16), element=1)
        payload += enc.flush()
        frames = FrameDecoder().feed(payload)
        assert [f.element for f in frames] == [0, 1]

    def test_negative_codes_survive(self):
        enc = FrameEncoder(samples_per_frame=4)
        codes = np.array([-2048, -1, 0, 2047], dtype=np.int16)
        frames = FrameDecoder().feed(enc.push(codes, element=0))
        assert np.array_equal(frames[0].samples, codes)


class TestByteStreamRobustness:
    def _payload(self, n_frames=3):
        enc = FrameEncoder(samples_per_frame=8)
        return enc.push(np.arange(8 * n_frames, dtype=np.int16), element=0)

    def test_byte_at_a_time(self):
        payload = self._payload()
        dec = FrameDecoder()
        frames = []
        for i in range(len(payload)):
            frames += dec.feed(payload[i : i + 1])
        assert len(frames) == 3

    def test_garbage_prefix_skipped(self):
        payload = b"\x00\xff\x13" + self._payload(1)
        frames = FrameDecoder().feed(payload)
        assert len(frames) == 1

    def test_corrupted_frame_dropped(self):
        payload = bytearray(self._payload(3))
        # Corrupt a sample byte in the second frame (each frame is
        # 7 header + 16 payload + 2 crc = 25 bytes).
        payload[25 + 10] ^= 0xFF
        dec = FrameDecoder()
        frames = dec.feed(bytes(payload))
        assert len(frames) == 2
        assert dec.crc_errors >= 1

    def test_lost_frame_counted(self):
        payload = self._payload(3)
        dec = FrameDecoder()
        frames = dec.feed(payload[:25] + payload[50:])  # drop frame 1
        assert len(frames) == 2
        assert dec.lost_frames == 1

    def test_truncated_tail_waits(self):
        payload = self._payload(1)
        dec = FrameDecoder()
        assert dec.feed(payload[:-3]) == []
        assert len(dec.feed(payload[-3:])) == 1


class TestDecoderIdempotence:
    def _payload(self, n_frames=2):
        enc = FrameEncoder(samples_per_frame=8)
        return enc.push(np.arange(8 * n_frames, dtype=np.int16), element=0)

    def test_feed_empty_is_exact_noop(self):
        dec = FrameDecoder()
        dec.feed(self._payload()[:11])  # leave a split frame buffered
        before = dict(vars(dec))
        assert dec.feed(b"") == []
        # No counter moved and the buffered split frame is untouched.
        assert {k: v for k, v in vars(dec).items() if k != "_buffer"} == {
            k: v for k, v in before.items() if k != "_buffer"
        }
        assert bytes(dec._buffer) == bytes(before["_buffer"])

    def test_finalize_idempotent(self):
        payload = self._payload(2)
        dec = FrameDecoder()
        frames = dec.feed(payload)
        assert len(frames) == 2
        for _ in range(3):
            assert dec.finalize() == []
        assert dec.crc_errors == 0
        assert dec.resync_bytes == 0
        assert dec.frames_decoded == 2

    def test_feed_resumes_after_finalize(self):
        payload = self._payload(2)
        dec = FrameDecoder()
        dec.feed(payload[:25])
        dec.finalize()
        assert len(dec.feed(payload[25:])) == 1
        assert dec.frames_decoded == 2


class TestStaleFrames:
    def _frames(self, n):
        enc = FrameEncoder(samples_per_frame=4)
        payload = enc.push(np.arange(4 * n, dtype=np.int16), element=0)
        return [payload[i : i + 17] for i in range(0, len(payload), 17)]

    def test_reordered_frame_dropped_as_stale(self):
        a, b, c = self._frames(3)
        dec = FrameDecoder()
        frames = dec.feed(a + c + b)  # b arrives late
        # c shows a gap of 1 (b missing); b then lands behind the
        # expectation and is dropped as stale — conservation closes.
        assert [f.sequence for f in frames] == [0, 2]
        assert dec.lost_frames == 1
        assert dec.stale_frames == 1
        assert dec.frames_decoded + dec.lost_frames == 3

    def test_replay_overlap_counted_not_ingested(self):
        a, b, c = self._frames(3)
        dec = FrameDecoder()
        dec.feed(a + b + c)
        frames = dec.feed(b + c)  # a resumed device replays acked frames
        assert frames == []
        assert dec.stale_frames == 2
        assert dec.lost_frames == 0
        assert dec.frames_decoded == 3

    def test_large_forward_jump_still_a_gap(self):
        frames = self._frames(3)
        dec = FrameDecoder()
        dec.expect(0)
        dec.feed(frames[2])  # first two never arrived
        assert dec.lost_frames == 2
        assert dec.stale_frames == 0

    def test_expect_validation(self):
        dec = FrameDecoder()
        dec.expect(0xFFFF)
        dec.expect(None)
        with pytest.raises(ConfigurationError):
            dec.expect(0x10000)
        with pytest.raises(ConfigurationError):
            dec.expect(-1)

    def test_expect_makes_leading_loss_visible(self):
        a, b, c = self._frames(3)
        dec = FrameDecoder()
        dec.expect(0)
        dec.feed(b + c)  # a was shed before the decoder ever saw it
        assert dec.lost_frames == 1
        assert dec.frames_decoded == 2


class TestResyncComplexity:
    """The resync scan must stay O(buffer) with a bounded constant."""

    def _crc_meter(self, monkeypatch):
        import repro.daq.usb as usb_mod

        counted = {"bytes": 0, "calls": 0}
        real = usb_mod.crc16_ccitt

        def counting(data, seed=0xFFFF):
            counted["bytes"] += len(data)
            counted["calls"] += 1
            return real(data, seed)

        monkeypatch.setattr(usb_mod, "crc16_ccitt", counting)
        return counted

    def _adversarial(self, n_pairs):
        # Every even offset is a sync candidate whose claimed length
        # forces a full-frame CRC check — the densest false-sync garbage
        # the wire can carry.
        return b"\xa5\x5a" * n_pairs

    def test_crc_work_linear_in_garbage(self, monkeypatch):
        meter = self._crc_meter(monkeypatch)
        enc = FrameEncoder(samples_per_frame=8)
        real_frame = enc.push(np.arange(8, dtype=np.int16), element=0)

        work = []
        for n_pairs in (800, 1600):
            meter["bytes"] = meter["calls"] = 0
            dec = FrameDecoder()
            frames = dec.feed(self._adversarial(n_pairs) + real_frame)
            frames += dec.finalize()  # drain the last false length claim
            assert len(frames) == 1  # the true frame always survives
            work.append(meter["bytes"])
        # Doubling the garbage must at most double the CRC work
        # (a quadratic rescan would quadruple it).
        assert work[1] <= 2.5 * work[0]
        # And the constant stays bounded by the max claimable frame
        # length per 2-byte candidate stride (~260x).
        assert work[1] <= 300 * (2 * 1600)

    def test_garbage_bytes_all_accounted(self):
        garbage = self._adversarial(100)
        enc = FrameEncoder(samples_per_frame=8)
        real_frame = enc.push(np.arange(8, dtype=np.int16), element=0)
        dec = FrameDecoder()
        dec.feed(garbage + real_frame)
        dec.finalize()
        # Every skipped sync candidate is visible in the counters; the
        # scan never silently swallows corrupt regions.
        assert dec.crc_errors + dec.resync_bytes // 2 > 0
        assert dec.frames_decoded == 1


class TestValidation:
    def test_rejects_oversized_codes(self):
        enc = FrameEncoder()
        with pytest.raises(ConfigurationError):
            enc.push(np.array([40000]), element=0)

    def test_rejects_out_of_u16_element_before_queuing(self):
        """A bad element leaves nothing behind to break the next flush."""
        enc = FrameEncoder()
        with pytest.raises(ConfigurationError, match="u16"):
            enc.push(np.arange(2), 70000)
        with pytest.raises(ConfigurationError, match="u16"):
            enc.push(np.arange(2), -1)
        assert enc.pending_samples == 0
        enc.push(np.arange(3), 1)
        frames = FrameDecoder().feed(enc.flush())
        assert [(f.element, f.samples.tolist()) for f in frames] == [
            (1, [0, 1, 2])
        ]

    def test_rejects_bad_frame_size(self):
        with pytest.raises(ConfigurationError):
            FrameEncoder(samples_per_frame=0)
        with pytest.raises(ConfigurationError):
            FrameEncoder(samples_per_frame=300)

    def test_frame_field_validation(self):
        with pytest.raises(ConfigurationError):
            Frame(sequence=70000, element=0, samples=np.zeros(1, dtype=np.int16))
