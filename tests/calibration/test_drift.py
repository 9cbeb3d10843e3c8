"""Calibration drift tracking and recalibration policy."""

import pytest

from repro.calibration.drift import (
    DriftEstimate,
    DriftMonitor,
    RecalibrationPolicy,
)
from repro.calibration.twopoint import TwoPointCalibration
from repro.errors import CalibrationError, ConfigurationError


class _Anchor:
    def __init__(self, sys_raw, dia_raw):
        self.mean_systolic_raw = sys_raw
        self.mean_diastolic_raw = dia_raw


@pytest.fixture()
def calibration() -> TwoPointCalibration:
    return TwoPointCalibration.from_features(_Anchor(0.05, 0.01), 120.0, 80.0)


class TestDriftMonitor:
    def test_no_drift(self, calibration):
        monitor = DriftMonitor(calibration)
        monitor.update(10.0, 0.05, 0.01)
        est = monitor.estimate()
        assert est.gain_drift_fraction == pytest.approx(0.0, abs=1e-12)
        assert est.estimated_bp_error_mmhg == pytest.approx(0.0, abs=1e-9)

    def test_gain_drift_detected(self, calibration):
        monitor = DriftMonitor(calibration)
        # Pulse amplitude grew 20 %: 0.04 -> 0.048.
        monitor.update(60.0, 0.058, 0.01)
        est = monitor.estimate()
        assert est.gain_drift_fraction == pytest.approx(0.2, abs=0.01)
        # 20 % of the 40 mmHg cuff pulse pressure = 8 mmHg.
        assert est.estimated_bp_error_mmhg == pytest.approx(8.0, abs=0.5)

    def test_pure_offset_drift_not_instrument_error(self, calibration):
        """A uniform shift of both levels (true BP change) must not be
        attributed to the instrument."""
        monitor = DriftMonitor(calibration)
        monitor.update(60.0, 0.06, 0.02)  # both +0.01, PP unchanged
        est = monitor.estimate()
        assert est.estimated_bp_error_mmhg == pytest.approx(0.0, abs=1e-9)
        assert est.offset_drift_raw == pytest.approx(0.01)

    def test_median_over_window(self, calibration):
        monitor = DriftMonitor(calibration)
        for k in range(20):
            monitor.update(float(k), 0.05, 0.01)
        monitor.update(20.0, 0.5, 0.01)  # one outlier beat
        est = monitor.estimate(window=10)
        assert est.gain_drift_fraction < 0.2  # outlier suppressed

    def test_requires_updates(self, calibration):
        with pytest.raises(CalibrationError):
            DriftMonitor(calibration).estimate()

    def test_time_ordering_enforced(self, calibration):
        monitor = DriftMonitor(calibration)
        monitor.update(10.0, 0.05, 0.01)
        with pytest.raises(ConfigurationError):
            monitor.update(5.0, 0.05, 0.01)


class TestPolicy:
    def test_min_interval_blocks(self):
        policy = RecalibrationPolicy(min_interval_s=120.0)
        big_drift = DriftEstimate(0.0, 0.0, 0.5, 20.0)
        assert not policy.should_recalibrate(60.0, big_drift)

    def test_max_interval_forces(self):
        policy = RecalibrationPolicy(max_interval_s=1800.0)
        assert policy.should_recalibrate(1800.0, None)

    def test_drift_triggers_early(self):
        policy = RecalibrationPolicy(drift_threshold_mmhg=5.0)
        drift = DriftEstimate(0.0, 0.0, 0.2, 8.0)
        assert policy.should_recalibrate(300.0, drift)

    def test_small_drift_waits(self):
        policy = RecalibrationPolicy(drift_threshold_mmhg=5.0)
        drift = DriftEstimate(0.0, 0.0, 0.02, 0.8)
        assert not policy.should_recalibrate(300.0, drift)

    def test_rejects_bad_intervals(self):
        with pytest.raises(ConfigurationError):
            RecalibrationPolicy(min_interval_s=0.0)
        with pytest.raises(ConfigurationError):
            RecalibrationPolicy(min_interval_s=100.0, max_interval_s=50.0)
