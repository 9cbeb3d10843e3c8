"""Fault wiring through AcquisitionSession: identity, flags, accounting."""

import numpy as np
import pytest

from repro.core.chain import ReadoutChain
from repro.daq.fpga import FPGAFilterBank
from repro.daq.usb import FrameDecoder
from repro.errors import SimulationError
from repro.faults import FaultInjector, FaultSpec
from repro.params import SystemParams


def pressure_field(duration_s=0.5, fs=128_000, n_elements=4):
    t = np.arange(int(duration_s * fs)) / fs
    wave = 10_000.0 + 15_000.0 * np.sin(2 * np.pi * 8.0 * t)
    return np.tile(wave[:, None], (1, n_elements))


def clean_record(backend="fast", duration_s=0.5, entropy=77):
    chain = ReadoutChain(rng=np.random.default_rng(entropy), backend=backend)
    return chain.record_pressure(pressure_field(duration_s), element=1)


class TestNoFaultIdentity:
    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_empty_injector_is_bit_identical(self, backend):
        """With no scheduled events the fault hooks must be invisible:
        the faulted session's output equals the ``faults=None`` path
        bit for bit on both modulator backends."""
        duration = 0.25 if backend == "reference" else 0.5
        baseline = clean_record(backend, duration)
        chain = ReadoutChain(
            rng=np.random.default_rng(77), backend=backend
        )
        hooked = chain.record_pressure(
            pressure_field(duration),
            element=1,
            faults=FaultInjector([], seed=0),
        )
        assert np.array_equal(baseline.codes, hooked.codes)
        assert hooked.quality.all()
        assert hooked.quality_fraction == 1.0

    def test_clean_session_telemetry_strict(self):
        chain = ReadoutChain(rng=np.random.default_rng(77))
        session = chain.session(element=1, faults=FaultInjector([], seed=0))
        session.feed_pressure(pressure_field(0.25))
        session.finish()
        tm = session.telemetry
        assert tm.faults_injected == 0
        assert tm.frames_unaccounted == 0
        tm.reconcile()  # still the strict lossless contract


class TestFaultedSessions:
    def faulted_record(self, spec, duration_s=0.5, entropy=77):
        chain = ReadoutChain(rng=np.random.default_rng(entropy))
        injector = FaultInjector([spec], seed=3)
        session = chain.session(element=1, faults=injector)
        for chunk in np.array_split(pressure_field(duration_s), 5):
            session.feed_pressure(chunk)
        session.finish()
        return chain, session, session.recording()

    def test_stuck_comparator_rails_are_flagged(self):
        spec = FaultSpec("stuck_comparator", start_s=0.2, duration_s=0.1)
        _, session, rec = self.faulted_record(spec)
        assert rec.codes.max() >= 2007  # the window rails positive
        # The event core ([0.2 s, 0.3 s) minus the post-switch
        # suppression offset) must be flagged bad.
        assert not rec.quality[210:280].any()
        assert rec.quality[:150].all()
        assert session.telemetry.faults_injected == 1

    def test_frame_drop_is_accounted(self):
        spec = FaultSpec("frame_drop", start_s=0.2)
        clean = clean_record()
        _, session, rec = self.faulted_record(spec)
        tm = session.telemetry
        tm.reconcile()
        assert tm.lost_frames == 1
        assert rec.codes.size < clean.codes.size
        assert rec.lost_samples > 0
        assert len(session.stream.gaps(1)) == 1
        # The gap guard flags the stretch around the loss.
        gap = session.stream.gaps(1)[0].sample_index
        assert not rec.quality[gap : gap + 8].any()

    def test_boundary_frame_drop_counts_full_frame_lost(self):
        """A frame dropped right before the stream's short flush frame
        must be booked at the link's full frame size. The old estimate
        used the payload size of the frame *after* the gap — here the
        finish() flush frame — undercounting the loss and breaking
        sample conservation at chunk boundaries."""
        spec = FaultSpec("frame_drop", start_s=0.4)
        chain, session, rec = self.faulted_record(spec)
        spf = chain.fpga.encoder.samples_per_frame
        tm = session.telemetry
        tm.reconcile()
        assert tm.lost_frames == 1
        [gap] = session.stream.gaps(1)
        # The dropped frame was a full frame even though its follower
        # (the final flush) is shorter.
        assert gap.lost_frames == 1
        assert gap.lost_samples == spf
        assert rec.lost_samples == spf
        # Sample conservation closes exactly with the corrected count.
        assert (
            tm.words_delivered + rec.lost_samples
            == tm.words_filtered - tm.words_suppressed
        )

    def test_tail_frame_drop_caught_by_frame_accounting(self):
        """Dropping the final (flush) frame leaves no later sequence
        number to reveal the gap — only the framed-vs-decoded telemetry
        identity can witness it."""
        spec = FaultSpec("frame_drop", start_s=0.448)
        _, session, _ = self.faulted_record(spec)
        tm = session.telemetry
        assert tm.lost_frames == 0  # sequence numbers saw nothing
        assert tm.frames_unaccounted == 1
        tm.reconcile()  # relaxed contract: accounted as fault fallout

    def test_word_corruption_flagged_as_spike(self):
        spec = FaultSpec("word_corruption", start_s=0.25, magnitude=1024)
        clean = clean_record()
        _, _, rec = self.faulted_record(spec)
        [changed] = np.flatnonzero(rec.codes != clean.codes)
        assert not rec.quality[changed]

    def test_hooks_restored_after_finish(self):
        spec = FaultSpec("sdm_saturation", start_s=0.1, duration_s=0.1)
        chain, session, _ = self.faulted_record(spec)
        assert chain.chip.loop_input_hook is None
        assert chain.fpga.word_hook is None
        assert session.telemetry.faults_injected == 1

    def test_hooks_restored_after_failed_feed(self):
        """A feed that raises hands the chain back fault-free: the next
        clean record equals a fresh chain's."""
        chain = ReadoutChain(rng=np.random.default_rng(77))
        injector = FaultInjector(
            [
                FaultSpec("sdm_saturation", start_s=0.0, duration_s=0.5),
                FaultSpec("stuck_comparator", start_s=0.0, duration_s=0.5),
            ],
            seed=3,
        )
        session = chain.session(element=1, faults=injector)
        field = pressure_field(0.1)
        field[100] = np.nan
        with pytest.raises(SimulationError):
            session.feed_pressure(field)
        assert chain.chip.loop_input_hook is None
        assert chain.chip.bitstream_hook is None
        assert chain.fpga.word_hook is None
        after = chain.record_pressure(pressure_field(0.25), element=1)
        assert np.array_equal(after.codes, clean_record(duration_s=0.25).codes)

    def test_chunking_invariance_with_faults(self):
        spec = FaultSpec("element_dropout", start_s=0.15, duration_s=0.2)
        field = pressure_field(0.5)
        records = []
        for n_chunks in (1, 3, 11):
            chain = ReadoutChain(rng=np.random.default_rng(5))
            session = chain.session(
                element=1, faults=FaultInjector([spec], seed=3)
            )
            for chunk in np.array_split(field, n_chunks):
                if chunk.size:
                    session.feed_pressure(chunk)
            session.finish()
            records.append(session.recording())
        assert np.array_equal(records[0].codes, records[1].codes)
        assert np.array_equal(records[0].codes, records[2].codes)
        assert np.array_equal(records[0].quality, records[1].quality)
        assert np.array_equal(records[0].quality, records[2].quality)


class TestWordHookSaturation:
    def test_word_hook_output_saturates_not_wraps(self):
        """A hook pushing codes past the i16 range must saturate at the
        asymmetric rails; the old astype(int16) silently wrapped."""
        params = SystemParams()
        fpga = FPGAFilterBank(
            params=params.decimation,
            input_rate_hz=params.modulator.sampling_rate_hz,
        )
        fpga.word_hook = lambda codes: codes + 40_000
        payload = fpga.process(np.ones(128 * 40)) + fpga.flush()
        frames = FrameDecoder().feed(payload)
        samples = np.concatenate([f.samples for f in frames])
        assert samples.size > 0
        assert samples.max() == 32767
        assert samples.min() >= 0  # wraparound would go deeply negative

    def test_negative_rail_is_asymmetric(self):
        params = SystemParams()
        fpga = FPGAFilterBank(
            params=params.decimation,
            input_rate_hz=params.modulator.sampling_rate_hz,
        )
        fpga.word_hook = lambda codes: codes - 40_000
        payload = fpga.process(np.ones(128 * 40)) + fpga.flush()
        frames = FrameDecoder().feed(payload)
        samples = np.concatenate([f.samples for f in frames])
        assert samples.min() == -32768
        assert samples.max() < 0
