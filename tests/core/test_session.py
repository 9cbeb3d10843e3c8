"""Streaming acquisition sessions and their telemetry."""

import numpy as np
import pytest

from repro.core.chain import ReadoutChain
from repro.core.session import STAGES, PipelineTelemetry
from repro.errors import ConfigurationError, SimulationError


def pressure_field(n, n_elements=4, seed=0):
    """A plausible membrane-pressure field: offset + per-element sines."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    phases = rng.uniform(0, 2 * np.pi, size=n_elements)
    field = 2000.0 + 400.0 * np.sin(
        2 * np.pi * 20.0 * t[:, None] / 128000.0 + phases[None, :]
    )
    return field


class TestAcquisitionSession:
    def test_incremental_words_match_recording(self):
        chain = ReadoutChain(rng=np.random.default_rng(3))
        session = chain.session(element=1)
        field = pressure_field(128 * 60)
        got = [session.feed_pressure(field[:4000])]
        got.append(session.feed_pressure(field[4000:]))
        got.append(session.finish())
        rec = session.recording()
        assert np.array_equal(np.concatenate(got), rec.codes)

    def test_nan_pressure_raises_not_poisons(self):
        """A NaN is outside the transducer's range, not a silent -2048."""
        session = ReadoutChain(rng=np.random.default_rng(3)).session(element=1)
        field = pressure_field(12_800)
        field[6000:6100] = np.nan
        with pytest.raises(SimulationError, match="outside transducer range"):
            session.feed_pressure(field)
        assert session.telemetry.clipped_samples == 0

    def test_feed_after_finish_rejected(self):
        chain = ReadoutChain(rng=np.random.default_rng(3))
        session = chain.session()
        session.feed_voltage(np.zeros(256))
        session.finish()
        with pytest.raises(ConfigurationError):
            session.feed_voltage(np.zeros(256))

    def test_mixed_paths_rejected(self):
        chain = ReadoutChain(rng=np.random.default_rng(3))
        session = chain.session()
        session.feed_pressure(pressure_field(256))
        with pytest.raises(ConfigurationError):
            session.feed_voltage(np.zeros(256))

    def test_bad_shapes_rejected(self):
        chain = ReadoutChain(rng=np.random.default_rng(3))
        with pytest.raises(ConfigurationError):
            chain.session().feed_pressure(np.zeros(256))
        with pytest.raises(ConfigurationError):
            chain.session().feed_voltage(np.zeros((256, 4)))

    def test_empty_chunk_is_a_noop(self):
        chain = ReadoutChain(rng=np.random.default_rng(3))
        session = chain.session()
        out = session.feed_voltage(np.zeros(0))
        assert out.size == 0
        assert session.telemetry.chunks == 0

    def test_finish_is_idempotent(self):
        chain = ReadoutChain(rng=np.random.default_rng(3))
        session = chain.session()
        session.feed_voltage(np.zeros(128 * 40))
        first = session.finish()
        assert session.finished
        assert session.finish().size == 0
        assert first.size >= 0

    def test_recording_reports_no_loss_on_clean_link(self):
        chain = ReadoutChain(rng=np.random.default_rng(3))
        session = chain.session(element=2)
        session.feed_pressure(pressure_field(128 * 60))
        rec = session.recording()
        assert rec.lost_frames == 0
        assert rec.crc_errors == 0
        assert rec.lost_samples == 0


class TestSessionTelemetry:
    @pytest.fixture()
    def telemetry(self):
        chain = ReadoutChain(rng=np.random.default_rng(5))
        session = chain.session(element=1)
        field = pressure_field(128 * 100 + 37)
        for start in range(0, field.shape[0], 3000):
            session.feed_pressure(field[start : start + 3000])
        session.finish()
        return session.telemetry

    def test_counters_reconcile(self, telemetry):
        telemetry.reconcile()
        telemetry.reconcile(lossless=True)

    def test_modulator_identity(self, telemetry):
        """words = ceil(samples / R); remainder = in-flight samples."""
        tm = telemetry
        n, r = tm.mod_samples_in, tm.decimation_factor
        assert tm.bits_out == n == 128 * 100 + 37
        assert tm.words_filtered == -(-n // r)
        assert n == r * (tm.words_filtered - 1) + 1 + tm.filter_remainder
        assert 0 <= tm.filter_remainder < r

    def test_framing_identity(self, telemetry):
        assert telemetry.frames_framed == (
            telemetry.frames_decoded + telemetry.lost_frames
        )
        assert telemetry.lost_frames == 0
        assert telemetry.crc_errors == 0

    def test_delivery_identity(self, telemetry):
        assert telemetry.words_delivered == (
            telemetry.words_filtered - telemetry.words_suppressed
        )

    def test_peak_chunk_bytes(self, telemetry):
        assert telemetry.peak_chunk_bytes == 3000 * 4 * 8

    def test_stage_seconds_populated(self, telemetry):
        assert set(telemetry.stage_seconds) == set(STAGES)
        assert telemetry.stage_seconds["modulator"] > 0.0
        assert telemetry.throughput_msps() > 0.0

    def test_describe_mentions_all_stages(self, telemetry):
        text = telemetry.describe()
        assert "modulator" in text
        assert "delivered" in text
        assert "MS/s" in text


class TestFilterRuns:
    """The residue identity follows filter resets and the phase a
    session opens at (a chain moved between sessions mid-word)."""

    def test_mid_session_switch_reconciles(self):
        chain = ReadoutChain(rng=np.random.default_rng(7))
        session = chain.session(element=0)
        session.feed_pressure(pressure_field(129))
        chain.chip.select_element(2)
        chain.fpga.select_element(2)
        session.feed_pressure(pressure_field(129, seed=1))
        session.finish()
        tm = session.telemetry
        tm.reconcile(lossless=True)
        assert tm.filter_runs == [(0, 129, 2)]
        r = tm.decimation_factor
        assert tm.filter_remainder == (chain.fpga.filter.phase - 1) % r

    def test_session_opened_mid_word_reconciles(self):
        chain = ReadoutChain(rng=np.random.default_rng(7))
        first = chain.session(element=1)
        first.feed_pressure(pressure_field(100))
        first.finish()
        first.telemetry.reconcile(lossless=True)
        second = chain.session(element=1)
        second.feed_pressure(pressure_field(156, seed=1))
        second.finish()
        tm = second.telemetry
        tm.reconcile(lossless=True)
        assert tm.filter_phase == 100
        assert tm.words_filtered == 1  # the word at sample 128
        assert tm.filter_remainder == 256 - 128 - 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_switches_and_splits(self, seed):
        """Sessions opened at any phase, switched between any chunks:
        the identity holds and the residue tracks the filter itself."""
        rng = np.random.default_rng(seed)
        chain = ReadoutChain(rng=np.random.default_rng(seed))
        for _ in range(3):
            session = chain.session()
            for _ in range(4):
                if rng.random() < 0.5:
                    element = int(rng.integers(0, 4))
                    chain.chip.select_element(element)
                    chain.fpga.select_element(element)
                n = int(rng.integers(1, 600))
                session.feed_pressure(pressure_field(n, seed=seed))
            session.finish()
            tm = session.telemetry
            tm.reconcile(lossless=True)
            r = tm.decimation_factor
            assert tm.filter_remainder == (chain.fpga.filter.phase - 1) % r

    def test_miscounted_runs_still_raise(self):
        """Opening phase and closed runs are checked, not trusted."""
        base = dict(decimation_factor=128, mod_samples_in=156, bits_out=156)
        PipelineTelemetry(
            **base, words_filtered=1, words_delivered=1, filter_phase=100
        ).reconcile()
        for words in (0, 2):
            tm = PipelineTelemetry(
                **base, words_filtered=words, words_delivered=words,
                filter_phase=100,
            )
            with pytest.raises(ConfigurationError, match="residue"):
                tm.reconcile()
        # A closed run holding one word too many, hidden by the totals.
        tm = PipelineTelemetry(
            decimation_factor=128,
            mod_samples_in=258,
            bits_out=258,
            words_filtered=4,
            words_delivered=4,
            filter_runs=[(0, 129, 3)],
        )
        with pytest.raises(ConfigurationError, match="residue"):
            tm.reconcile()
        tm.filter_runs = [(0, 129, 2)]
        tm.words_filtered = tm.words_delivered = 3
        with pytest.raises(ConfigurationError, match="residue"):
            tm.reconcile()


class TestTelemetryValidation:
    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineTelemetry().add_stage_seconds("warp-drive", 1.0)

    def test_reconcile_catches_bit_mismatch(self):
        tm = PipelineTelemetry(mod_samples_in=100, bits_out=99)
        with pytest.raises(ConfigurationError):
            tm.reconcile()

    def test_reconcile_catches_filter_overrun(self):
        tm = PipelineTelemetry(
            decimation_factor=128,
            mod_samples_in=100,
            bits_out=100,
            words_filtered=2,
        )
        with pytest.raises(ConfigurationError):
            tm.reconcile()

    def test_reconcile_catches_frame_mismatch(self):
        tm = PipelineTelemetry(frames_framed=3, frames_decoded=1, lost_frames=1)
        with pytest.raises(ConfigurationError):
            tm.reconcile()

    def test_reconcile_catches_lost_words_on_lossless_link(self):
        tm = PipelineTelemetry(
            decimation_factor=128,
            mod_samples_in=256,
            bits_out=256,
            words_filtered=2,
            words_delivered=1,
        )
        with pytest.raises(ConfigurationError):
            tm.reconcile(lossless=True)

    def test_lossy_link_skips_delivery_identity(self):
        tm = PipelineTelemetry(
            decimation_factor=128,
            mod_samples_in=256,
            bits_out=256,
            words_filtered=2,
            words_delivered=1,
            frames_framed=2,
            frames_decoded=1,
            lost_frames=1,
        )
        tm.reconcile()  # loss observed -> delivery identity not enforced

    def test_throughput_zero_without_time(self):
        assert PipelineTelemetry().throughput_msps() == 0.0


class TestDegenerateChunking:
    """Zero-length and single-sample chunks through the session."""

    def test_zero_length_chunks_interleaved(self):
        field = pressure_field(128 * 40)
        chain = ReadoutChain(rng=np.random.default_rng(3))
        batch = chain.record_pressure(field, element=1)

        chain = ReadoutChain(rng=np.random.default_rng(3))
        session = chain.session(element=1)
        empty = field[:0]
        session.feed_pressure(empty)
        session.feed_pressure(field[:4000])
        session.feed_pressure(empty)
        session.feed_pressure(field[4000:])
        session.feed_pressure(empty)
        session.finish()
        rec = session.recording()
        assert np.array_equal(rec.codes, batch.codes)
        session.telemetry.reconcile()

    def test_single_sample_chunks_bit_identical(self):
        field = pressure_field(128 * 8)  # short: one row per feed call
        chain = ReadoutChain(rng=np.random.default_rng(3))
        batch = chain.record_pressure(field, element=1)

        chain = ReadoutChain(rng=np.random.default_rng(3))
        session = chain.session(element=1)
        for row in field:
            session.feed_pressure(row[None, :])
        session.finish()
        rec = session.recording()
        assert np.array_equal(rec.codes, batch.codes)
        session.telemetry.reconcile()

    def test_mixed_degenerate_splits_reconcile(self):
        field = pressure_field(128 * 40)
        chain = ReadoutChain(rng=np.random.default_rng(3))
        batch = chain.record_pressure(field, element=1)

        chain = ReadoutChain(rng=np.random.default_rng(3))
        session = chain.session(element=1)
        cuts = [0, 0, 1, 2, 129, 130, 130, field.shape[0]]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            session.feed_pressure(field[lo:hi])
        session.finish()
        rec = session.recording()
        assert np.array_equal(rec.codes, batch.codes)
        assert rec.quality.all()
        session.telemetry.reconcile()
