"""Ensemble averaging with artifact exclusion masks."""

import numpy as np
import pytest

from repro.calibration.features import detect_beats
from repro.calibration.morphology import (
    analyze_morphology,
    ensemble_average_beat,
)
from repro.errors import ConfigurationError, SignalQualityError
from repro.physiology.patient import VirtualPatient

FS = 250.0


@pytest.fixture(scope="module")
def record():
    patient = VirtualPatient(rng=np.random.default_rng(75))
    rec = patient.record(duration_s=25.0, sample_rate_hz=FS)
    feats = detect_beats(rec.pressure_mmhg, FS)
    return rec.pressure_mmhg, feats


class TestExcludeMask:
    def test_empty_mask_equals_no_mask(self, record):
        waveform, feats = record
        _, a = ensemble_average_beat(waveform, FS, feats)
        _, b = ensemble_average_beat(
            waveform, FS, feats,
            exclude_mask=np.zeros(waveform.size, dtype=bool),
        )
        assert a == pytest.approx(b)

    def test_corrupted_beats_excluded(self, record):
        """Corrupt three beats heavily; with the mask, the ensemble must
        be unaffected by them."""
        waveform, feats = record
        corrupted = waveform.copy()
        mask = np.zeros(waveform.size, dtype=bool)
        for peak_t in feats.peak_times_s[3:6]:
            lo = int((peak_t - 0.3) * FS)
            hi = int((peak_t + 0.3) * FS)
            corrupted[lo:hi] += 80.0
            mask[lo:hi] = True
        _, clean_wave = ensemble_average_beat(waveform, FS, feats)
        _, masked_wave = ensemble_average_beat(
            corrupted, FS, feats, exclude_mask=mask
        )
        assert masked_wave == pytest.approx(clean_wave, abs=1.5)

    def test_all_masked_raises(self, record):
        waveform, feats = record
        with pytest.raises(SignalQualityError, match="too few"):
            ensemble_average_beat(
                waveform, FS, feats,
                exclude_mask=np.ones(waveform.size, dtype=bool),
            )

    def test_shape_mismatch_rejected(self, record):
        waveform, feats = record
        with pytest.raises(ConfigurationError):
            ensemble_average_beat(
                waveform, FS, feats,
                exclude_mask=np.zeros(10, dtype=bool),
            )

    def test_analyze_morphology_passes_mask(self, record):
        waveform, feats = record
        mask = np.zeros(waveform.size, dtype=bool)
        report = analyze_morphology(waveform, FS, feats, exclude_mask=mask)
        assert np.isfinite(report.notch_phase)
