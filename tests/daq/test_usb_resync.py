"""Sequence wraparound and end-of-stream resynchronization."""

import numpy as np

from repro.daq.stream import SampleStream
from repro.daq.usb import FrameDecoder, FrameEncoder


def frames_from(encoder, n_frames, spf=8, element=0):
    payload = encoder.push(
        np.arange(spf * n_frames, dtype=np.int16), element=element
    )
    return payload


class TestSequenceWraparound:
    def test_wrap_without_loss(self):
        enc = FrameEncoder(samples_per_frame=8)
        enc._sequence = 0xFFFE
        dec = FrameDecoder()
        frames = dec.feed(frames_from(enc, 4))
        assert [f.sequence for f in frames] == [0xFFFE, 0xFFFF, 0, 1]
        assert dec.lost_frames == 0

    def test_drop_across_the_wrap_counts_modular_distance(self):
        enc = FrameEncoder(samples_per_frame=8)
        enc._sequence = 0xFFFE
        payload = frames_from(enc, 4)
        frame_len = 9 + 2 * 8
        # Remove the 0xFFFF and 0x0000 frames: the gap spans the wrap.
        mangled = payload[:frame_len] + payload[3 * frame_len :]
        dec = FrameDecoder()
        frames = dec.feed(mangled)
        assert [f.sequence for f in frames] == [0xFFFE, 1]
        assert dec.lost_frames == 2

    def test_stream_gap_accounting_across_the_wrap(self):
        spf = 8
        enc = FrameEncoder(samples_per_frame=spf)
        enc._sequence = 0xFFFF
        payload = frames_from(enc, 3)
        frame_len = 9 + 2 * spf
        # Frame 0x0000 is lost; the decoder's gap reaches the stream.
        stream = SampleStream()
        stream.ingest(
            FrameDecoder().feed(payload[:frame_len] + payload[2 * frame_len :])
        )
        assert stream.lost_samples(0) == spf
        [gap] = stream.gaps(0)
        assert gap.lost_frames == 1
        assert gap.sample_index == spf


class TestFinalize:
    def corrupted_count_payload(self):
        """Three frames; the middle one's count byte claims more samples
        than the link ever delivers."""
        enc = FrameEncoder(samples_per_frame=8)
        payload = frames_from(enc, 3)
        frame_len = 9 + 2 * 8
        mangled = bytearray(payload)
        mangled[frame_len + 6] = 255  # count byte of frame 1
        return bytes(mangled), frame_len

    def test_feed_stalls_behind_corrupted_count(self):
        payload, _ = self.corrupted_count_payload()
        dec = FrameDecoder()
        frames = dec.feed(payload)
        # Frame 1 claims 255 samples, swallowing frame 2's bytes: only
        # frame 0 decodes while the decoder waits for data that will
        # never come.
        assert [f.sequence for f in frames] == [0]

    def test_finalize_recovers_trailing_frame(self):
        payload, _ = self.corrupted_count_payload()
        dec = FrameDecoder()
        dec.feed(payload)
        tail = dec.finalize()
        assert [f.sequence for f in tail] == [2]
        assert dec.lost_frames == 1  # frame 1 is gone, and counted
        assert dec.resync_bytes > 0

    def test_finalize_noop_on_clean_buffer(self):
        enc = FrameEncoder(samples_per_frame=8)
        dec = FrameDecoder()
        frames = dec.feed(frames_from(enc, 2))
        assert len(frames) == 2
        assert dec.finalize() == []
        assert dec.resync_bytes == 0

    def test_feeding_resumes_after_finalize(self):
        enc = FrameEncoder(samples_per_frame=8)
        dec = FrameDecoder()
        dec.feed(frames_from(enc, 1))
        dec.finalize()
        frames = dec.feed(frames_from(enc, 1))
        assert [f.sequence for f in frames] == [1]

    def test_finalize_on_empty_decoder(self):
        assert FrameDecoder().finalize() == []


class TestMidStreamResync:
    def test_crc_failure_skips_and_recovers(self):
        enc = FrameEncoder(samples_per_frame=8)
        payload = bytearray(frames_from(enc, 3))
        frame_len = 9 + 2 * 8
        payload[frame_len + 10] ^= 0x40  # corrupt a sample byte of frame 1
        dec = FrameDecoder()
        frames = dec.feed(bytes(payload))
        assert [f.sequence for f in frames] == [0, 2]
        assert dec.crc_errors == 1
        assert dec.lost_frames == 1
        assert dec.resync_bytes > 0
