"""Virtual patient: ground-truth waveform generation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.params import PatientParams
from repro.physiology.patient import VirtualPatient


@pytest.fixture(scope="module")
def recording():
    patient = VirtualPatient(rng=np.random.default_rng(3))
    return patient.record(duration_s=20.0, sample_rate_hz=500.0)


class TestRecord:
    def test_shapes(self, recording):
        assert recording.times_s.shape == recording.pressure_mmhg.shape
        assert recording.times_s.size == 20 * 500

    def test_targets_hit(self, recording):
        assert recording.systolic_mmhg == pytest.approx(120.0, abs=5.0)
        assert recording.diastolic_mmhg == pytest.approx(80.0, abs=5.0)

    def test_map_rule(self, recording):
        expected_map = 80.0 + 40.0 / 3.0
        assert recording.pressure_mmhg.mean() == pytest.approx(
            expected_map, abs=6.0
        )

    def test_beat_truth_ordered(self, recording):
        onsets = recording.beat_truth[:, 0]
        assert np.all(np.diff(onsets) > 0)
        assert np.all(
            recording.beat_truth[:, 1] > recording.beat_truth[:, 2]
        )

    def test_beat_count_matches_rate(self, recording):
        # ~70 bpm over 20 s -> ~23 beats.
        assert recording.beat_truth.shape[0] == pytest.approx(23, abs=2)

    def test_pressure_pa_conversion(self, recording):
        assert recording.pressure_pa == pytest.approx(
            recording.pressure_mmhg * 133.322, rel=1e-5
        )

    def test_physiologic_bounds(self, recording):
        assert recording.pressure_mmhg.min() > 50.0
        assert recording.pressure_mmhg.max() < 160.0


class TestTrend:
    def test_trend_shifts_pressure(self):
        patient = VirtualPatient(rng=np.random.default_rng(4))
        flat = patient.record(10.0, 500.0)
        patient2 = VirtualPatient(rng=np.random.default_rng(4))
        shifted = patient2.record(
            10.0, 500.0, pressure_trend_mmhg=lambda t: 20.0 * np.ones_like(t)
        )
        assert shifted.pressure_mmhg.mean() == pytest.approx(
            flat.pressure_mmhg.mean() + 20.0, abs=1.0
        )


class TestCustomPatients:
    def test_hypertensive(self):
        params = PatientParams(systolic_mmhg=160.0, diastolic_mmhg=100.0)
        rec = VirtualPatient(params, rng=np.random.default_rng(5)).record(
            10.0, 500.0
        )
        assert rec.systolic_mmhg == pytest.approx(160.0, abs=6.0)

    def test_tachycardia(self):
        params = PatientParams(heart_rate_bpm=120.0)
        rec = VirtualPatient(params, rng=np.random.default_rng(6)).record(
            10.0, 500.0
        )
        assert rec.beat_truth.shape[0] == pytest.approx(20, abs=2)

    def test_rejects_short_record(self):
        patient = VirtualPatient()
        with pytest.raises(ConfigurationError):
            patient.record(0.0, 500.0)

    def test_rejects_inverted_pressures(self):
        with pytest.raises(ConfigurationError):
            PatientParams(systolic_mmhg=80.0, diastolic_mmhg=120.0)

    def test_reproducible(self):
        a = VirtualPatient(rng=np.random.default_rng(7)).record(5.0, 200.0)
        b = VirtualPatient(rng=np.random.default_rng(7)).record(5.0, 200.0)
        assert a.pressure_mmhg == pytest.approx(b.pressure_mmhg)
