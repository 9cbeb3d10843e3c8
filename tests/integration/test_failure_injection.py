"""Failure injection: the chain under abnormal conditions."""

import numpy as np
import pytest

from repro.core.chain import ReadoutChain
from repro.core.session import PipelineTelemetry, UsbLink
from repro.daq.stream import SampleStream
from repro.daq.usb import FrameDecoder, FrameEncoder
from repro.errors import SimulationError
from repro.params import ModulatorParams, NonidealityParams, SystemParams
from repro.sdm.modulator import SecondOrderSDM


class TestOverloadPropagation:
    def test_gross_overdrive_detected(self):
        """A way-over-full-scale loop input is counted in clipped cycles
        while the swing limiter holds both integrators in range."""
        sdm = SecondOrderSDM(
            ModulatorParams(), NonidealityParams.ideal(),
            rng=np.random.default_rng(1),
        )
        out = sdm.simulate(np.full(4000, 2.0))
        assert out.clipped_samples > 0
        for stage in (sdm.stage1, sdm.stage2):
            assert abs(stage.state) <= stage.swing_limit

    def test_chain_survives_overdrive_with_clipping(self):
        """Default policy: the chain saturates gracefully, producing
        codes pinned at the rails rather than crashing."""
        params = SystemParams()
        chain = ReadoutChain(params, rng=np.random.default_rng(2))
        v = np.full(128 * 32, 2.0 * params.modulator.vref_v)
        rec = chain.record_voltage(v)
        assert rec.codes.max() == 2047  # pinned at +FS


class TestMembraneTouchDown:
    def test_excessive_pressure_raises(self):
        params = SystemParams()
        chain = ReadoutChain(params, rng=np.random.default_rng(3))
        lo, hi = chain.chip.array.sensor.pressure_range_pa
        field = np.full((128 * 4, 4), hi * 2.0)
        with pytest.raises(SimulationError, match="range"):
            chain.record_pressure(field, element=0)


class TestTransportFaults:
    def _frames(self, n_codes=200, spf=16):
        enc = FrameEncoder(samples_per_frame=spf)
        codes = np.arange(n_codes, dtype=np.int16)
        return enc.push(codes, element=0) + enc.flush()

    def test_burst_corruption_bounded_loss(self):
        """Corrupting a 30-byte burst loses at most two frames' worth of
        samples; everything else decodes."""
        payload = bytearray(self._frames())
        payload[100:130] = b"\x55" * 30
        dec = FrameDecoder()
        frames = dec.feed(bytes(payload))
        recovered = sum(f.samples.size for f in frames)
        assert recovered >= 200 - 2 * 16
        # Sequence accounting notices the gap.
        assert dec.lost_frames + dec.crc_errors >= 1

    def test_stream_with_gaps_still_usable(self):
        payload = self._frames()
        # Drop a frame in the middle (frame length = 7 + 32 + 2 = 41).
        cut = payload[:41 * 3] + payload[41 * 4 :]
        dec = FrameDecoder()
        stream = SampleStream()
        stream.ingest(dec.feed(cut))
        assert dec.lost_frames == 1
        # The stream still assembles the surviving samples.
        assert stream.sample_count(0) == 200 - 16

    def test_lost_samples_surface_in_recording(self):
        """A dropped frame shows up as per-element ``lost_samples`` on the
        ChainRecording, not just as a decoder-level frame count. The loss
        is booked at the link's configured frame size, so the payload
        here is framed at the chain's own ``samples_per_frame``."""
        chain = ReadoutChain(SystemParams(), rng=np.random.default_rng(4))
        spf = chain.fpga.encoder.samples_per_frame
        payload = self._frames(n_codes=5 * spf, spf=spf)
        frame_bytes = 7 + 2 * spf + 2
        cut = payload[: frame_bytes * 3] + payload[frame_bytes * 4 :]
        link = UsbLink(chain, element=0)
        link.receive(cut, PipelineTelemetry(), final=True)
        rec = link.recording()
        assert rec.lost_frames == 1
        assert rec.lost_samples == spf

    def test_stream_totals_lost_samples_across_elements(self):
        enc = FrameEncoder(samples_per_frame=8)
        payload = b""
        for element in (0, 1):
            payload += enc.push(np.arange(64, dtype=np.int16), element=element)
        # Drop one 25-byte frame from each element's run (8 frames each).
        cut = payload[: 25 * 2] + payload[25 * 3 : 25 * 10] + payload[25 * 11 :]
        dec = FrameDecoder()
        stream = SampleStream()
        stream.ingest(dec.feed(cut))
        assert stream.lost_samples(0) + stream.lost_samples(1) == 16

    def test_all_zero_garbage_yields_nothing(self):
        dec = FrameDecoder()
        assert dec.feed(b"\x00" * 1000) == []

    def test_random_garbage_never_crashes(self):
        rng = np.random.default_rng(9)
        dec = FrameDecoder()
        for _ in range(20):
            blob = rng.integers(0, 256, 500, dtype=np.uint8).tobytes()
            frames = dec.feed(blob)
            # Any "frame" that survives random bytes must have passed CRC
            # — astronomically unlikely; mostly this returns [].
            assert isinstance(frames, list)


class TestQualityGates:
    def test_off_artery_placement_flagged(self):
        """Placement far from the artery: no pulse reaches the sensor;
        the quality gate must reject rather than produce garbage BP."""
        from repro.calibration.quality import assess_quality

        rng = np.random.default_rng(10)
        flat = 1e-4 * rng.standard_normal(8000)  # converter noise only
        report = assess_quality(flat, 1000.0)
        assert not report.acceptable


class TestPathologicalPayloads:
    def test_sync_word_flood_no_recursion_blowup(self):
        """A megabyte of repeated sync words (every 2 bytes a false frame
        start) must decode to nothing without exhausting the stack."""
        dec = FrameDecoder()
        flood = b"\xa5\x5a" * 200_000
        frames = dec.feed(flood)
        assert frames == []
        assert dec.crc_errors > 0

    def test_recovery_after_flood_is_bounded(self):
        """A false header at the flood's tail can claim up to one
        max-size frame (519 bytes) of look-ahead, so the first good
        frames after garbage may be absorbed into failed CRC checks —
        but on a *continuing* stream the decoder must resynchronize
        within that bound and then decode everything."""
        enc = FrameEncoder(samples_per_frame=8)
        dec = FrameDecoder()
        assert dec.feed(b"\xa5\x5a" * 5000) == []
        decoded = 0
        for _ in range(40):
            chunk = enc.push(np.arange(8, dtype=np.int16), element=1)
            decoded += len(dec.feed(chunk))
        # 40 frames x 25 bytes = 1000 bytes sent; at most ~2 frames'
        # worth may be consumed by the resync window.
        assert decoded >= 38
        # And from here on, decoding is loss-free.
        final = dec.feed(enc.push(np.arange(8, dtype=np.int16), element=1))
        assert len(final) == 1
