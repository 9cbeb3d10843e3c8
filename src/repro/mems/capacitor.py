"""Capacitance of the deflected membrane (top electrode vs. poly-Si).

Sign convention used across the library: positive center deflection ``w0``
moves the membrane *toward* the bottom electrode (external force pressing
on the PDMS), shrinking the gap and increasing capacitance. Negative
``w0`` is the backpressure bulge of Fig. 8 (membrane "sticks out").

The electrode covers the central part of the membrane (deflection is zero
at the clamped rim, so edge electrode area would only add offset
capacitance). The capacitance of the curved plate is the parallel-plate
integral

    C(w0) = eps0 * integral over electrode of dA / (g - w0 * phi(x)phi(y))

evaluated numerically on a tensor grid. Because the readout simulation
needs C at up to 10^5 pressures per second of simulated time, the sensor
layer wraps this in a Chebyshev interpolant built once at construction
(:class:`repro.mems.membrane.MembraneSensor`).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError, SimulationError
from .plate import mode_shape

VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m


class DeflectedPlateCapacitor:
    """Parallel-plate capacitance of the bent membrane.

    Parameters
    ----------
    side_m:
        Membrane side length ``a``.
    gap_m:
        Rest electrode separation ``g`` (sacrificial metal-1 thickness).
    electrode_coverage:
        Fraction of membrane *area* covered by the centered square top
        electrode; the electrode side is ``sqrt(coverage) * a``.
    fringe_factor:
        Multiplicative correction for fringing fields at the electrode
        perimeter (>= 1). Default 1.05 is typical for gap << side.
    parasitic_f:
        Fixed parallel parasitic capacitance (interconnect, pad) [F].
    grid_points:
        1-D quadrature resolution for the area integral.
    """

    def __init__(
        self,
        side_m: float,
        gap_m: float,
        electrode_coverage: float = 0.8,
        fringe_factor: float = 1.05,
        parasitic_f: float = 50e-15,
        grid_points: int = 61,
    ):
        if side_m <= 0 or gap_m <= 0:
            raise ConfigurationError("side and gap must be positive")
        if not 0 < electrode_coverage <= 1:
            raise ConfigurationError("electrode coverage must be in (0, 1]")
        if fringe_factor < 1.0:
            raise ConfigurationError("fringe factor must be >= 1")
        if parasitic_f < 0.0:
            raise ConfigurationError("parasitic capacitance must be >= 0")
        if grid_points < 5:
            raise ConfigurationError("grid must have at least 5 points")

        self.side_m = float(side_m)
        self.gap_m = float(gap_m)
        self.electrode_coverage = float(electrode_coverage)
        self.fringe_factor = float(fringe_factor)
        self.parasitic_f = float(parasitic_f)

        # Tensor quadrature grid over the electrode (normalized coords).
        half = 0.5 * math.sqrt(self.electrode_coverage)
        xi = np.linspace(-half, half, grid_points)
        self._cell_area_m2 = (
            (2.0 * half * self.side_m / (grid_points - 1)) ** 2
        )
        phi = mode_shape(xi)
        # Trapezoid weights in 1-D, outer product for 2-D.
        w1d = np.ones(grid_points)
        w1d[0] = w1d[-1] = 0.5
        self._mode2d = np.outer(phi, phi)
        self._weights2d = np.outer(w1d, w1d)

    # -- geometry helpers -------------------------------------------------

    @property
    def electrode_area_m2(self) -> float:
        return self.electrode_coverage * self.side_m**2

    @property
    def rest_capacitance_f(self) -> float:
        """C(w0 = 0): flat-plate value plus fringe and parasitics."""
        plate = VACUUM_PERMITTIVITY * self.electrode_area_m2 / self.gap_m
        return plate * self.fringe_factor + self.parasitic_f

    @property
    def max_deflection_m(self) -> float:
        """Deflection at which the membrane center touches the bottom.

        The simulation refuses to evaluate beyond 95 % of the gap: the
        parallel-plate integral diverges there and real devices pull in or
        touch down first.
        """
        return 0.95 * self.gap_m

    # -- capacitance -------------------------------------------------------

    def capacitance_f(self, center_deflection_m: np.ndarray | float) -> np.ndarray:
        """Exact (quadrature) capacitance for center deflections [F].

        Vectorized over ``center_deflection_m``. Raises
        :class:`SimulationError` if any deflection exceeds
        :attr:`max_deflection_m` (touch-down).
        """
        w0 = np.atleast_1d(np.asarray(center_deflection_m, dtype=float))
        if np.any(w0 > self.max_deflection_m):
            worst = float(np.max(w0))
            raise SimulationError(
                f"membrane touch-down: deflection {worst * 1e9:.1f} nm "
                f"exceeds {self.max_deflection_m * 1e9:.1f} nm "
                f"(95 % of the {self.gap_m * 1e9:.0f} nm gap)"
            )
        # gap field: g - w0 * phi(x)phi(y); shape (n_w0, n, n)
        local_gap = self.gap_m - w0[:, None, None] * self._mode2d[None, :, :]
        integrand = self._weights2d[None, :, :] / local_gap
        plate = (
            VACUUM_PERMITTIVITY
            * self._cell_area_m2
            * integrand.sum(axis=(1, 2))
        )
        return plate * self.fringe_factor + self.parasitic_f

    def sensitivity_f_per_m(self, center_deflection_m: float = 0.0) -> float:
        """dC/dw0 at an operating point, by central difference."""
        step = 1e-4 * self.gap_m
        w = float(center_deflection_m)
        c = self.capacitance_f(np.array([w - step, w + step]))
        return float((c[1] - c[0]) / (2.0 * step))

    def small_signal_capacitance_f(
        self, center_deflection_m: np.ndarray | float
    ) -> np.ndarray:
        """First-order expansion C0 + dC/dw0 * w0, for cross-checking.

        Valid for \\|w0\\| << gap; tests compare it against the exact
        quadrature to bound linearization error.
        """
        w0 = np.atleast_1d(np.asarray(center_deflection_m, dtype=float))
        return self.rest_capacitance_f + self.sensitivity_f_per_m(0.0) * w0
