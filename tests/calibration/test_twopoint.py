"""Two-point cuff calibration."""

import numpy as np
import pytest

from repro.calibration.features import BeatFeatures
from repro.calibration.twopoint import TwoPointCalibration
from repro.errors import CalibrationError, ConfigurationError


def make_features(sys_raw=0.05, dia_raw=0.01, n=5):
    t = np.arange(n, dtype=float)
    return BeatFeatures(
        peak_times_s=t + 0.3,
        systolic_raw=np.full(n, sys_raw),
        foot_times_s=t,
        diastolic_raw=np.full(n, dia_raw),
    )


class TestFit:
    def test_anchors_exact(self):
        cal = TwoPointCalibration.from_features(make_features(), 120.0, 80.0)
        assert cal.apply(0.05) == pytest.approx(120.0)
        assert cal.apply(0.01) == pytest.approx(80.0)

    def test_linear_between(self):
        cal = TwoPointCalibration.from_features(make_features(), 120.0, 80.0)
        assert cal.apply(0.03) == pytest.approx(100.0)

    def test_gain_sign(self):
        cal = TwoPointCalibration.from_features(make_features(), 120.0, 80.0)
        assert cal.gain_mmhg_per_raw > 0

    def test_rejects_coincident_levels(self):
        with pytest.raises(CalibrationError, match="coincide"):
            TwoPointCalibration.from_features(
                make_features(sys_raw=0.02, dia_raw=0.02), 120.0, 80.0
            )

    def test_rejects_inverted_cuff(self):
        with pytest.raises(ConfigurationError):
            TwoPointCalibration.from_features(make_features(), 80.0, 120.0)

    def test_describe(self):
        cal = TwoPointCalibration.from_features(make_features(), 120.0, 80.0)
        assert "mmHg" in cal.describe()


class TestScalarContract:
    def test_apply_scalar_returns_python_float(self):
        cal = TwoPointCalibration.from_features(make_features(), 120.0, 80.0)
        out = cal.apply(0.03)
        assert type(out) is float
        assert out == pytest.approx(100.0)

    def test_apply_array_stays_array(self):
        cal = TwoPointCalibration.from_features(make_features(), 120.0, 80.0)
        out = cal.apply(np.array([0.01, 0.05]))
        assert isinstance(out, np.ndarray)
        assert out.shape == (2,)
