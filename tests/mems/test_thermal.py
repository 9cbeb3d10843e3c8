"""Thermal drift of the membrane transducer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mems.thermal import (
    ThermalMembraneModel,
    ThermalState,
    drift_induced_bp_error_mmhg,
)


@pytest.fixture(scope="module")
def model() -> ThermalMembraneModel:
    return ThermalMembraneModel()


class TestWarmup:
    def test_starts_ambient_ends_skin(self):
        state = ThermalState(ambient_c=23.0, skin_c=33.0, warmup_tau_s=90.0)
        t = np.array([0.0, 1e4])
        temps = state.temperature_c(t)
        assert temps[0] == pytest.approx(23.0)
        assert temps[1] == pytest.approx(33.0, abs=1e-3)

    def test_one_tau(self):
        state = ThermalState()
        temp = state.temperature_c(np.array([90.0]))[0]
        expected = 33.0 + (23.0 - 33.0) * np.exp(-1.0)
        assert temp == pytest.approx(expected)


class TestDrift:
    def test_zero_at_reference(self, model):
        assert model.sensitivity_drift_fraction(23.0) == pytest.approx(0.0)

    def test_warming_raises_sensitivity(self, model):
        """Tensile stress relaxes as the die warms (negative TC), so the
        membrane softens and sensitivity increases."""
        assert model.sensitivity_drift_fraction(33.0) > 0.0

    def test_drift_small_but_nonzero(self, model):
        drift = model.sensitivity_drift_fraction(33.0)
        assert 1e-4 < drift < 0.05

    def test_monotone_with_temperature(self, model):
        drifts = [
            model.sensitivity_drift_fraction(t) for t in (25.0, 29.0, 33.0)
        ]
        assert drifts == sorted(drifts)

    def test_cache_reuses_sensors(self, model):
        a = model.sensor_at(30.0)
        b = model.sensor_at(30.0)
        assert a is b

    def test_trajectory(self, model):
        state = ThermalState()
        drift = model.gain_drift_over_warmup(
            state, np.array([0.0, 90.0, 1e4])
        )
        assert drift[0] == pytest.approx(0.0, abs=1e-6)
        assert np.all(np.diff(drift) > 0)


class TestBPError:
    def test_error_scales_with_drift(self):
        assert drift_induced_bp_error_mmhg(0.01, 40.0) == pytest.approx(0.4)
        assert drift_induced_bp_error_mmhg(-0.01, 40.0) == pytest.approx(-0.4)

    def test_rejects_bad_pp(self):
        with pytest.raises(ConfigurationError):
            drift_induced_bp_error_mmhg(0.01, 0.0)
