"""Deflected-plate capacitance: parallel-plate limits, touch-down."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.mems.capacitor import DeflectedPlateCapacitor, VACUUM_PERMITTIVITY


@pytest.fixture(scope="module")
def cap() -> DeflectedPlateCapacitor:
    return DeflectedPlateCapacitor(
        side_m=100e-6, gap_m=0.6e-6, electrode_coverage=0.8
    )


class TestRestCapacitance:
    def test_flat_plate_formula(self):
        plain = DeflectedPlateCapacitor(
            side_m=100e-6,
            gap_m=0.6e-6,
            electrode_coverage=1.0,
            fringe_factor=1.0,
            parasitic_f=0.0,
        )
        expected = VACUUM_PERMITTIVITY * (100e-6) ** 2 / 0.6e-6
        assert plain.rest_capacitance_f == pytest.approx(expected, rel=1e-12)

    def test_quadrature_matches_rest_at_zero(self, cap):
        c0 = cap.capacitance_f(0.0)[0]
        assert c0 == pytest.approx(cap.rest_capacitance_f, rel=1e-12)

    def test_coverage_scales_area(self):
        full = DeflectedPlateCapacitor(100e-6, 0.6e-6, electrode_coverage=1.0,
                                       fringe_factor=1.0, parasitic_f=0.0)
        half = DeflectedPlateCapacitor(100e-6, 0.6e-6, electrode_coverage=0.5,
                                       fringe_factor=1.0, parasitic_f=0.0)
        assert half.rest_capacitance_f == pytest.approx(
            full.rest_capacitance_f / 2.0
        )


class TestDeflectionResponse:
    def test_positive_deflection_increases_c(self, cap):
        w = np.array([0.0, 50e-9, 100e-9, 200e-9])
        c = cap.capacitance_f(w)
        assert np.all(np.diff(c) > 0)

    def test_negative_deflection_decreases_c(self, cap):
        c = cap.capacitance_f(np.array([0.0, -100e-9]))
        assert c[1] < c[0]

    def test_asymmetry_toward_gap(self, cap):
        """1/(g-w) curvature: +w changes C more than -w decreases it."""
        c0 = cap.capacitance_f(0.0)[0]
        c_plus = cap.capacitance_f(200e-9)[0]
        c_minus = cap.capacitance_f(-200e-9)[0]
        assert (c_plus - c0) > (c0 - c_minus)

    def test_small_signal_matches_exact(self, cap):
        w = np.linspace(-10e-9, 10e-9, 9)
        exact = cap.capacitance_f(w)
        linear = cap.small_signal_capacitance_f(w)
        # Within 0.01 % of rest capacitance over +/-10 nm.
        assert np.max(np.abs(exact - linear)) < 1e-4 * cap.rest_capacitance_f

    def test_sensitivity_positive(self, cap):
        assert cap.sensitivity_f_per_m(0.0) > 0

    def test_sensitivity_grows_with_deflection(self, cap):
        assert cap.sensitivity_f_per_m(300e-9) > cap.sensitivity_f_per_m(0.0)


class TestTouchDown:
    def test_raises_beyond_guard(self, cap):
        with pytest.raises(SimulationError, match="touch-down"):
            cap.capacitance_f(0.96 * cap.gap_m)

    def test_guard_is_95_percent(self, cap):
        assert cap.max_deflection_m == pytest.approx(0.95 * cap.gap_m)

    def test_just_inside_guard_ok(self, cap):
        c = cap.capacitance_f(0.94 * cap.gap_m)
        assert np.isfinite(c[0])


class TestValidation:
    def test_rejects_bad_coverage(self):
        with pytest.raises(ConfigurationError):
            DeflectedPlateCapacitor(100e-6, 0.6e-6, electrode_coverage=0.0)
        with pytest.raises(ConfigurationError):
            DeflectedPlateCapacitor(100e-6, 0.6e-6, electrode_coverage=1.5)

    def test_rejects_fringe_below_one(self):
        with pytest.raises(ConfigurationError):
            DeflectedPlateCapacitor(100e-6, 0.6e-6, fringe_factor=0.9)

    def test_rejects_negative_parasitic(self):
        with pytest.raises(ConfigurationError):
            DeflectedPlateCapacitor(100e-6, 0.6e-6, parasitic_f=-1e-15)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ConfigurationError):
            DeflectedPlateCapacitor(100e-6, 0.6e-6, grid_points=3)

    def test_grid_convergence(self):
        """Doubling quadrature resolution changes C by < 0.01 %."""
        coarse = DeflectedPlateCapacitor(100e-6, 0.6e-6, grid_points=31)
        fine = DeflectedPlateCapacitor(100e-6, 0.6e-6, grid_points=121)
        w = 300e-9
        assert coarse.capacitance_f(w)[0] == pytest.approx(
            fine.capacitance_f(w)[0], rel=1e-4
        )
