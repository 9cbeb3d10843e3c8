"""The complete membrane transducer: pressure in, capacitance out.

Chains the composite-plate mechanics (:mod:`.plate`) with the deflected-
plate electrostatics (:mod:`.capacitor`) and wraps the result in a
Chebyshev interpolant so streaming simulations can evaluate hundreds of
thousands of samples per second of simulated time.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev

from ..errors import ConfigurationError, SimulationError
from ..parallel.cache import precompute_cache
from ..params import MembraneParams
from .capacitor import DeflectedPlateCapacitor
from .laminate import Laminate
from .materials import paper_membrane_stack
from .plate import ClampedSquarePlate


class MembraneSensor:
    """One capacitive membrane force sensor (paper Sec. 2.1, Fig. 2).

    Parameters
    ----------
    params:
        Geometry/electrostatics; defaults are the paper's 100 um x 3 um
        membrane on a 150 um pitch.
    laminate:
        Film stack; defaults to :func:`paper_membrane_stack`. The net
        residual stress from ``params.residual_stress_pa`` overrides the
        per-film deposition values (it represents the measured post-release
        state).
    interpolant_degree:
        Degree of the Chebyshev fit of C(P) used by :meth:`capacitance_f`.
    operating_range_pa:
        Half-width of the pressure interval the fast interpolant covers.
        The default +/-50 kPa spans hold-down plus pulse pressures with a
        wide margin while keeping the interpolant error far below the
        signal (the touch-down full scale is ~1.3 MPa, where capacitance
        curvature would dominate the fit). Pressures outside this window
        still work through :meth:`capacitance_exact_f`.
    """

    def __init__(
        self,
        params: MembraneParams | None = None,
        laminate: Laminate | None = None,
        interpolant_degree: int = 12,
        operating_range_pa: float = 50e3,
    ):
        if operating_range_pa <= 0:
            raise ConfigurationError("operating range must be positive")
        self._interpolant_degree = int(interpolant_degree)
        self._operating_range_pa = float(operating_range_pa)
        self.params = params or MembraneParams()
        self.laminate = laminate or Laminate(paper_membrane_stack())
        if abs(self.laminate.thickness_m - self.params.thickness_m) > 0.2e-6:
            raise ConfigurationError(
                f"laminate thickness {self.laminate.thickness_m * 1e6:.2f} um "
                f"disagrees with params.thickness_m "
                f"{self.params.thickness_m * 1e6:.2f} um"
            )

        residual_force = (
            self.params.residual_stress_pa * self.laminate.thickness_m
        )
        self.plate = ClampedSquarePlate(
            side_m=self.params.side_m,
            laminate=self.laminate,
            residual_force_override_n_per_m=residual_force,
        )
        self.capacitor = DeflectedPlateCapacitor(
            side_m=self.params.side_m,
            gap_m=self.params.gap_m,
            electrode_coverage=self.params.electrode_coverage,
        )

        # The touch-down solve and the Chebyshev transfer fit depend only
        # on the frozen parameters (for the default laminate), so they are
        # shared process-wide: building one chip per virtual subject or
        # per pool-worker task solves the plate once per process. A
        # custom laminate is not a hashable key; it solves directly.
        if laminate is None:
            key = (
                "membrane_transfer",
                self.params,
                int(interpolant_degree),
                float(operating_range_pa),
            )
            solution = precompute_cache().get(key, self._solve_transfer)
        else:
            solution = self._solve_transfer()
        self._p_touchdown, self._p_max, self._fit = solution
        self._p_min = -self._p_max

    def _solve_transfer(
        self,
    ) -> tuple[float, float, chebyshev.Chebyshev]:
        """Solve touch-down and fit C(P) over the operating window."""
        # Touch-down-limited full scale: pressure at which the deflection
        # reaches the guard band of the capacitor model.
        w_max = self.capacitor.max_deflection_m
        p_touchdown = float(self.plate.pressure_for_deflection_pa(w_max)[0])
        # Fast-interpolant window (see class docstring).
        p_max = min(self._operating_range_pa, p_touchdown)
        fit = self._build_interpolant(self._interpolant_degree, p_max)
        return (p_touchdown, p_max, fit)

    def _build_interpolant(
        self, degree: int, p_max: float
    ) -> chebyshev.Chebyshev:
        nodes = chebyshev.chebpts2(max(2 * degree + 1, 33))
        pressures = 0.5 * (nodes + 1.0) * (2.0 * p_max) - p_max
        w0 = self.plate.center_deflection_m(pressures)
        c = self.capacitor.capacitance_f(w0)
        return chebyshev.Chebyshev.fit(
            pressures, c, deg=degree, domain=[-p_max, p_max]
        )

    # -- public transfer ---------------------------------------------------

    @property
    def rest_capacitance_f(self) -> float:
        """Capacitance with no applied pressure."""
        return self.capacitor.rest_capacitance_f

    @property
    def pressure_range_pa(self) -> tuple[float, float]:
        """(min, max) pressure the fast transfer accepts."""
        return (self._p_min, self._p_max)

    @property
    def full_scale_pressure_pa(self) -> float:
        """Touch-down-limited positive full scale (exact path only)."""
        return self._p_touchdown

    def capacitance_f(self, pressure_pa: np.ndarray | float) -> np.ndarray:
        """Fast capacitance for applied pressures [Pa] -> [F] (vectorized).

        Positive pressure presses the membrane toward the bottom electrode
        (external force via the PDMS); negative pressure is backside
        overpressure bulging it outward.
        """
        pressure = np.atleast_1d(np.asarray(pressure_pa, dtype=float))
        # Written as "all inside" so NaN fails it too.
        if not (np.all(pressure <= self._p_max) and np.all(pressure >= self._p_min)):
            raise SimulationError(
                "pressure outside transducer range "
                f"[{self._p_min:.0f}, {self._p_max:.0f}] Pa "
                f"(got [{pressure.min():.0f}, {pressure.max():.0f}] Pa)"
            )
        return self._fit(pressure)

    def capacitance_exact_f(self, pressure_pa: np.ndarray | float) -> np.ndarray:
        """Quadrature-exact capacitance (slow path, for verification)."""
        w0 = self.plate.center_deflection_m(pressure_pa)
        return self.capacitor.capacitance_f(w0)

    def deflection_m(self, pressure_pa: np.ndarray | float) -> np.ndarray:
        """Center deflection for applied pressure (positive = toward poly)."""
        return self.plate.center_deflection_m(pressure_pa)

    def pressure_sensitivity_f_per_pa(self, pressure_pa: float = 0.0) -> float:
        """dC/dP at an operating point [F/Pa]."""
        return float(self._fit.deriv()(float(pressure_pa)))

    def linearity_error(self, pressure_pa: np.ndarray | float) -> np.ndarray:
        """Deviation of C(P) from its tangent at zero pressure.

        Expressed as a fraction of the rest capacitance; the benchmark for
        the membrane transfer (FIG2/MEM in DESIGN.md) reports this.
        """
        pressure = np.atleast_1d(np.asarray(pressure_pa, dtype=float))
        c = self.capacitance_f(pressure)
        c_ref = float(self._fit(0.0))
        slope = self.pressure_sensitivity_f_per_pa(0.0)
        tangent = c_ref + slope * pressure
        return (c - tangent) / self.rest_capacitance_f

    def describe(self) -> str:
        """Human-readable summary used by the quickstart example."""
        sens = self.pressure_sensitivity_f_per_pa(0.0)
        lines = [
            "MembraneSensor",
            f"  side / thickness : {self.params.side_m * 1e6:.0f} um / "
            f"{self.params.thickness_m * 1e6:.1f} um",
            f"  gap              : {self.params.gap_m * 1e9:.0f} nm",
            f"  rest capacitance : {self.rest_capacitance_f * 1e15:.1f} fF",
            f"  sensitivity      : {sens * 1e18:.3f} aF/Pa at P = 0",
            f"  operating range  : +/-{self._p_max / 1e3:.1f} kPa (fast path)",
            f"  full scale       : {self._p_touchdown / 1e3:.1f} kPa (touch-down guard)",
            f"  resonance        : {self.plate.resonance_frequency_hz() / 1e3:.0f} kHz",
        ]
        return "\n".join(lines)
