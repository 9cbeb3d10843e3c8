"""Host-side stream reassembly."""

import numpy as np
import pytest

from repro.daq.stream import SampleStream, StreamGap
from repro.daq.usb import Frame, FrameDecoder, FrameEncoder
from repro.errors import ConfigurationError


def wire_for(codes_by_element, samples_per_frame=8, first_sequence=0):
    """The encoded frames, one ``bytes`` each, in sending order."""
    enc = FrameEncoder(samples_per_frame=samples_per_frame)
    enc._sequence = first_sequence
    payload = b""
    for element, codes in codes_by_element:
        payload += enc.push(np.asarray(codes, dtype=np.int16), element)
    payload += enc.flush()
    wire = []
    while payload:
        total = 9 + 2 * payload[6]
        wire.append(payload[:total])
        payload = payload[total:]
    return wire


def frames_for(codes_by_element, samples_per_frame=8, drop=()):
    """Decoded frames; the frames at ``drop`` are lost on the wire, so
    the decoder's sequence check reports them on the next frame."""
    wire = wire_for(codes_by_element, samples_per_frame)
    kept = b"".join(f for i, f in enumerate(wire) if i not in drop)
    return FrameDecoder().feed(kept)


class TestReassembly:
    def test_single_element(self):
        stream = SampleStream()
        stream.ingest(frames_for([(0, np.arange(20))]))
        assert stream.sample_count(0) == 20
        assert np.array_equal(stream.samples(0), np.arange(20))

    def test_multi_element(self):
        stream = SampleStream()
        stream.ingest(
            frames_for([(0, np.arange(16)), (1, np.arange(100, 116))])
        )
        assert stream.elements == [0, 1]
        assert stream.samples(1)[0] == 100

    def test_empty(self):
        stream = SampleStream()
        assert stream.samples(0).size == 0

    def test_duration(self):
        stream = SampleStream(sample_rate_hz=1000.0)
        stream.ingest(frames_for([(0, np.arange(10))]))
        assert stream.duration_s(0) == pytest.approx(0.01)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            SampleStream(sample_rate_hz=0.0)


class TestGapAccounting:
    """Frames dropped on the link must show up as explicit per-element
    gaps: the decoder finds the loss, the stream records it."""

    def test_no_gaps_on_clean_stream(self):
        stream = SampleStream()
        stream.ingest(frames_for([(0, np.arange(32))]))
        assert stream.gaps(0) == ()
        assert stream.lost_samples(0) == 0

    def test_single_dropped_frame(self):
        stream = SampleStream()
        # Lose samples 8..15.
        stream.ingest(frames_for([(0, np.arange(32))], 8, drop=(1,)))
        gaps = stream.gaps(0)
        assert len(gaps) == 1
        assert gaps[0].sample_index == 8
        assert gaps[0].lost_frames == 1
        assert gaps[0].lost_samples == 8
        assert stream.lost_samples(0) == 8
        assert stream.sample_count(0) == 24

    def test_gap_detected_across_ingest_calls(self):
        stream = SampleStream()
        wire = wire_for([(0, np.arange(32))], samples_per_frame=8)
        decoder = FrameDecoder()
        stream.ingest(decoder.feed(wire[0]))
        stream.ingest(decoder.feed(b"".join(wire[2:])))  # frame 1 lost
        assert stream.lost_samples(0) == 8

    def test_consecutive_losses_coalesce(self):
        stream = SampleStream()
        stream.ingest(frames_for([(0, np.arange(48))], 8, drop=(2, 3)))
        gaps = stream.gaps(0)
        assert len(gaps) == 1
        assert gaps[0].lost_frames == 2
        assert gaps[0].lost_samples == 16

    def test_gap_attributed_to_following_frames_element(self):
        """Lost frames' element tags are gone; the charge goes to the
        element of the first frame after the loss."""
        stream = SampleStream()
        # The last element-0 frame is lost.
        stream.ingest(
            frames_for([(0, np.arange(16)), (1, np.arange(16))], 8, drop=(1,))
        )
        assert stream.gaps(0) == ()
        assert len(stream.gaps(1)) == 1
        assert stream.gaps(1)[0].sample_index == 0

    def test_duration_includes_gap(self):
        stream = SampleStream(sample_rate_hz=1000.0)
        stream.ingest(frames_for([(0, np.arange(32))], 8, drop=(1,)))
        assert stream.sample_count(0) == 24
        assert stream.duration_s(0) == pytest.approx(32e-3)

    def test_zero_filled_reconstruction(self):
        stream = SampleStream()
        stream.ingest(frames_for([(0, np.arange(32))], 8, drop=(1,)))
        filled, mask = stream.zero_filled(0)
        assert filled.size == 32
        assert mask.size == 32
        assert np.array_equal(filled[:8], np.arange(8))
        assert np.all(filled[8:16] == 0)
        assert np.array_equal(filled[16:], np.arange(16, 32))
        assert np.all(mask[:8]) and np.all(mask[16:])
        assert not np.any(mask[8:16])

    def test_zero_filled_clean_stream_is_identity(self):
        stream = SampleStream()
        stream.ingest(frames_for([(0, np.arange(20))]))
        filled, mask = stream.zero_filled(0)
        assert np.array_equal(filled, np.arange(20))
        assert np.all(mask)

    def test_sequence_wraparound_not_a_gap(self):
        wire = wire_for([(0, np.arange(8))], 4, first_sequence=0xFFFF)
        frames = FrameDecoder().feed(b"".join(wire))
        assert [f.sequence for f in frames] == [0xFFFF, 0x0000]
        stream = SampleStream()
        stream.ingest(frames)
        assert stream.gaps(0) == ()
        assert stream.sample_count(0) == 8

    def test_stream_records_the_gap_its_frames_carry(self):
        """The stream books what the decoder found and derives nothing
        from sequence numbers itself."""
        stream = SampleStream(samples_per_frame=8)
        samples = np.arange(4, dtype=np.int16)
        stream.ingest(
            [
                Frame(7, 0, samples),
                Frame(9, 0, samples),  # no lost_before: no gap
                Frame(3, 0, samples, lost_before=2),
            ]
        )
        assert stream.gaps(0) == (StreamGap(8, 2, 16),)
        assert stream.frames_ingested == 3
