"""Pulse-morphology metrics."""

import numpy as np
import pytest

from repro.calibration.features import detect_beats
from repro.calibration.morphology import (
    analyze_morphology,
    ensemble_average_beat,
)
from repro.errors import SignalQualityError
from repro.physiology.patient import VirtualPatient

FS = 500.0


@pytest.fixture(scope="module")
def record():
    patient = VirtualPatient(rng=np.random.default_rng(71))
    rec = patient.record(duration_s=20.0, sample_rate_hz=FS)
    feats = detect_beats(rec.pressure_mmhg, FS)
    return rec, feats


class TestEnsemble:
    def test_shape(self, record):
        rec, feats = record
        phase, wave = ensemble_average_beat(rec.pressure_mmhg, FS, feats)
        assert phase.size == wave.size == 200

    def test_range_physiologic(self, record):
        rec, feats = record
        _, wave = ensemble_average_beat(rec.pressure_mmhg, FS, feats)
        assert 70.0 < wave.min() < 90.0
        assert 110.0 < wave.max() < 130.0

    def test_noise_suppression(self, record):
        """The ensemble median suppresses additive noise."""
        rec, feats = record
        rng = np.random.default_rng(72)
        noisy = rec.pressure_mmhg + 2.0 * rng.standard_normal(
            rec.pressure_mmhg.size
        )
        _, clean_wave = ensemble_average_beat(rec.pressure_mmhg, FS, feats)
        _, noisy_wave = ensemble_average_beat(noisy, FS, feats)
        residual = noisy_wave - clean_wave
        assert np.std(residual) < 1.0  # well under the injected 2.0

    def test_too_few_beats(self, record):
        rec, feats = record
        short = rec.pressure_mmhg[: int(1.5 * FS)]
        with pytest.raises(SignalQualityError):
            feats_short = detect_beats(short, FS)
            ensemble_average_beat(short, FS, feats_short)


class TestMorphologyIndices:
    def test_notch_detected(self, record):
        rec, feats = record
        report = analyze_morphology(rec.pressure_mmhg, FS, feats)
        assert 0.2 < report.notch_phase < 0.7

    def test_notch_depth_fraction(self, record):
        rec, feats = record
        report = analyze_morphology(rec.pressure_mmhg, FS, feats)
        assert 0.0 < report.notch_depth_fraction < 1.0

    def test_upstroke_time(self, record):
        """Systole peaks 80-250 ms after the foot at 70 bpm."""
        rec, feats = record
        report = analyze_morphology(rec.pressure_mmhg, FS, feats)
        assert 0.05 < report.upstroke_time_s < 0.3

    def test_dpdt_positive(self, record):
        rec, feats = record
        report = analyze_morphology(rec.pressure_mmhg, FS, feats)
        assert report.dpdt_max > 0.0

    def test_augmentation_index_range(self, record):
        rec, feats = record
        report = analyze_morphology(rec.pressure_mmhg, FS, feats)
        if np.isfinite(report.augmentation_index):
            assert 0.0 < report.augmentation_index < 1.0

    def test_scale_invariance_of_phases(self, record):
        """Morphology phases must not depend on calibration scale."""
        rec, feats = record
        a = analyze_morphology(rec.pressure_mmhg, FS, feats)
        b = analyze_morphology(10.0 * rec.pressure_mmhg + 5.0, FS, feats)
        assert a.notch_phase == pytest.approx(b.notch_phase, abs=0.02)
        assert a.upstroke_time_s == pytest.approx(b.upstroke_time_s, abs=0.01)
