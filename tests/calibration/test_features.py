"""Beat detection and feature extraction."""

import numpy as np
import pytest

from repro.calibration.features import detect_beats, lowpass_cardiac
from repro.errors import ConfigurationError, SignalQualityError
from repro.physiology.patient import VirtualPatient


@pytest.fixture(scope="module")
def clean_record():
    patient = VirtualPatient(rng=np.random.default_rng(11))
    return patient.record(duration_s=15.0, sample_rate_hz=1000.0)


class TestDetection:
    def test_beat_count(self, clean_record):
        feats = detect_beats(clean_record.pressure_mmhg, 1000.0)
        true_beats = clean_record.beat_truth.shape[0]
        assert feats.n_beats == pytest.approx(true_beats, abs=2)

    def test_systolic_levels(self, clean_record):
        feats = detect_beats(clean_record.pressure_mmhg, 1000.0)
        assert feats.mean_systolic_raw == pytest.approx(
            clean_record.systolic_mmhg, abs=2.5
        )

    def test_diastolic_levels(self, clean_record):
        feats = detect_beats(clean_record.pressure_mmhg, 1000.0)
        assert feats.mean_diastolic_raw == pytest.approx(
            clean_record.diastolic_mmhg, abs=2.5
        )

    def test_pulse_rate(self, clean_record):
        feats = detect_beats(clean_record.pressure_mmhg, 1000.0)
        assert feats.pulse_rate_bpm() == pytest.approx(70.0, abs=3.0)

    def test_feet_precede_peaks(self, clean_record):
        feats = detect_beats(clean_record.pressure_mmhg, 1000.0)
        assert np.all(feats.foot_times_s <= feats.peak_times_s)

    def test_robust_to_noise(self, clean_record):
        rng = np.random.default_rng(13)
        noisy = clean_record.pressure_mmhg + 1.5 * rng.standard_normal(
            clean_record.pressure_mmhg.size
        )
        feats = detect_beats(noisy, 1000.0)
        assert feats.pulse_rate_bpm() == pytest.approx(70.0, abs=4.0)

    def test_wrong_rate_prior_tolerated(self, clean_record):
        feats = detect_beats(
            clean_record.pressure_mmhg, 1000.0, expected_rate_bpm=100.0
        )
        assert feats.pulse_rate_bpm() == pytest.approx(70.0, abs=4.0)


class TestFailureModes:
    def test_flatline_raises(self):
        with pytest.raises(SignalQualityError, match="flat"):
            detect_beats(np.zeros(5000), 1000.0)

    def test_pure_noise_raises(self, rng):
        # White noise has no beat-scale prominent structure after the
        # cardiac low-pass... it may still alias into peaks; use tiny
        # amplitude plus a dominant linear trend to defeat prominence.
        x = np.linspace(0, 1, 5000) + 1e-6 * rng.standard_normal(5000)
        with pytest.raises(SignalQualityError):
            detect_beats(x, 1000.0)

    def test_short_record_rejected(self):
        with pytest.raises(ConfigurationError):
            detect_beats(np.zeros(8), 1000.0)

    def test_single_beat_insufficient(self):
        t = np.arange(800) / 1000.0
        one_pulse = np.exp(-((t - 0.4) ** 2) / (2 * 0.05**2))
        with pytest.raises(SignalQualityError):
            detect_beats(one_pulse, 1000.0)


class TestLowpass:
    def test_preserves_cardiac_band(self, clean_record):
        filtered = lowpass_cardiac(clean_record.pressure_mmhg, 1000.0)
        # Pulse amplitude essentially unchanged.
        raw_pp = np.percentile(clean_record.pressure_mmhg, 98) - np.percentile(
            clean_record.pressure_mmhg, 2
        )
        filt_pp = np.percentile(filtered, 98) - np.percentile(filtered, 2)
        assert filt_pp == pytest.approx(raw_pp, rel=0.05)

    def test_removes_high_frequency(self):
        rng = np.random.default_rng(17)
        t = np.arange(4000) / 1000.0
        x = np.sin(2 * np.pi * 1.2 * t) + 0.5 * np.sin(2 * np.pi * 200 * t)
        filtered = lowpass_cardiac(x, 1000.0)
        residual = filtered - np.sin(2 * np.pi * 1.2 * t)
        assert np.sqrt(np.mean(residual[500:-500] ** 2)) < 0.03

    def test_zero_phase(self):
        """filtfilt: the pulse peak must not shift in time."""
        t = np.arange(4000) / 1000.0
        x = np.exp(-((t - 2.0) ** 2) / (2 * 0.05**2))
        filtered = lowpass_cardiac(x, 1000.0)
        assert abs(np.argmax(filtered) - np.argmax(x)) <= 2

    def test_rejects_bad_cutoff(self):
        """The 25 Hz cutoff must sit below the record's Nyquist rate."""
        for rate_hz in (50.0, 0.0, float("nan")):
            with pytest.raises(ConfigurationError, match="cardiac cutoff"):
                lowpass_cardiac(np.zeros(100), rate_hz)
