"""Signal-quality assessment."""

import numpy as np
import pytest

from repro.calibration.quality import assess_quality
from repro.errors import ConfigurationError
from repro.physiology.patient import VirtualPatient


@pytest.fixture(scope="module")
def clean():
    patient = VirtualPatient(rng=np.random.default_rng(23))
    return patient.record(duration_s=12.0, sample_rate_hz=1000.0).pressure_mmhg


class TestQuality:
    def test_clean_signal_acceptable(self, clean):
        report = assess_quality(clean, 1000.0)
        assert report.acceptable
        assert report.snr_db > 20.0
        assert report.n_beats >= 10

    def test_noisy_signal_lower_snr(self, clean, rng):
        noisy = clean + 5.0 * rng.standard_normal(clean.size)
        clean_report = assess_quality(clean, 1000.0)
        noisy_report = assess_quality(noisy, 1000.0)
        assert noisy_report.snr_db < clean_report.snr_db

    def test_flatline_not_acceptable(self):
        report = assess_quality(np.zeros(4000), 1000.0)
        assert not report.acceptable
        assert report.n_beats == 0

    def test_regularity_high_for_clean(self, clean):
        report = assess_quality(clean, 1000.0)
        assert report.beat_regularity > 0.8

    def test_describe(self, clean):
        text = assess_quality(clean, 1000.0).describe()
        assert "SNR" in text
        assert "OK" in text or "POOR" in text

    def test_rejects_short(self):
        with pytest.raises(ConfigurationError):
            assess_quality(np.zeros(10), 1000.0)
