"""Clamped square plate under uniform pressure, with residual stress.

A single-mode Galerkin (Ritz) solution for the released membrane of
Sec. 2.1. The deflection is assumed separable,

    w(x, y) = w0 * phi(x/a) * phi(y/a),   phi(xi) = cos^2(pi * xi),

which satisfies the clamped boundary conditions w = dw/dn = 0 on all four
edges of the side-``a`` square. Minimizing the total potential energy
(bending + residual-tension + average-strain stretching - pressure work)
over the modal amplitude ``w0`` gives a cubic equilibrium equation

    k1 * w0 + k3 * w0^3 = P * a^2 * I_V,

with

    k1 = D * I_B / a^2 + N0 * I_T          (linear: bending + tension)
    k3 = E_eff * h * I_T^2 / (8 (1-nu) a^2)  (nonlinear stretching)

and mode integrals I_B = 2 pi^4, I_T = 3 pi^2 / 8, I_V = 1/4 (derived in
closed form for the cos^2 mode). In the pure-plate limit this reproduces
the textbook center deflection w0 = 0.00128 * P a^4 / D versus the exact
series value 0.00126 — within 2 %, ample for a transducer behavioural
model.

The cubic has a unique real root for k1 > 0 (tension-stiffened or stress-
free plates); it is solved in closed form (Cardano) and fully vectorized
over pressure arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .laminate import Laminate

# Mode integrals of phi(xi) = cos^2(pi xi) on [-1/2, 1/2] (see module doc).
MODE_I_BENDING = 2.0 * math.pi**4
MODE_I_TENSION = 3.0 * math.pi**2 / 8.0
MODE_I_VOLUME = 0.25
#: Square of the L2 norm of the 2-D mode, used for modal mass.
MODE_I_MASS = (3.0 / 8.0) ** 2


def mode_shape(xi: np.ndarray) -> np.ndarray:
    """Normalized 1-D clamped mode phi(xi) = cos^2(pi xi), xi in [-1/2, 1/2].

    Values outside the membrane are clipped to zero.
    """
    xi = np.asarray(xi, dtype=float)
    inside = np.abs(xi) <= 0.5
    phi = np.where(inside, np.cos(np.pi * xi) ** 2, 0.0)
    return phi


@dataclass(frozen=True)
class PlateSolution:
    """Result of a plate solve: modal amplitude and derived quantities."""

    pressure_pa: np.ndarray
    center_deflection_m: np.ndarray
    #: Fraction of the restoring force carried by the nonlinear stretching
    #: term at equilibrium (0 = fully linear regime).
    nonlinearity_fraction: np.ndarray

    def __iter__(self):
        # Allow ``w0, nl = solution`` style unpacking in older call sites.
        yield self.center_deflection_m
        yield self.nonlinearity_fraction


class ClampedSquarePlate:
    """Load-deflection model of a clamped, stress-stiffened square plate.

    Parameters
    ----------
    side_m:
        Side length ``a`` of the square membrane.
    laminate:
        Film stack providing D, N0, E_eff, nu_eff, h.
    residual_force_override_n_per_m:
        If given, replaces the laminate's own residual membrane force N0.
        The paper-level API uses this to impose the measured net stress.
    """

    def __init__(
        self,
        side_m: float,
        laminate: Laminate,
        residual_force_override_n_per_m: float | None = None,
    ):
        if side_m <= 0:
            raise ConfigurationError("plate side length must be positive")
        self.side_m = float(side_m)
        self.laminate = laminate

        d = laminate.flexural_rigidity_nm
        n0 = (
            laminate.membrane_force_n_per_m
            if residual_force_override_n_per_m is None
            else float(residual_force_override_n_per_m)
        )
        h = laminate.thickness_m
        e_eff = laminate.effective_youngs_modulus_pa
        nu_eff = laminate.effective_poisson_ratio

        a = self.side_m
        self._k1 = d * MODE_I_BENDING / a**2 + n0 * MODE_I_TENSION
        self._k3 = e_eff * h * MODE_I_TENSION**2 / (8.0 * (1.0 - nu_eff) * a**2)
        self._load_coeff = a**2 * MODE_I_VOLUME
        self._n0 = n0

        if self._k1 <= 0.0:
            raise ConfigurationError(
                "plate is buckled: residual compressive force "
                f"N0 = {n0:.3f} N/m overwhelms the bending stiffness "
                f"(k1 = {self._k1:.3e} N/m)"
            )

    # -- small-signal properties ----------------------------------------

    @property
    def linear_compliance_m_per_pa(self) -> float:
        """Small-signal center deflection per unit pressure, dw0/dP at 0."""
        return self._load_coeff / self._k1

    def resonance_frequency_hz(self) -> float:
        """Fundamental resonance from modal stiffness and modal mass.

        The mode's effective mass is ``rho_A * a^2 * ||phi||^2``; well above
        the <1 kHz pressure band of interest, so the quasi-static model used
        everywhere else is justified (a test asserts this separation).
        """
        modal_mass = self.laminate.areal_mass_kg_m2 * self.side_m**2 * MODE_I_MASS
        return math.sqrt(self._k1 / modal_mass) / (2.0 * math.pi)

    # -- load-deflection --------------------------------------------------

    def solve(self, pressure_pa: np.ndarray | float) -> PlateSolution:
        """Center deflection for uniform pressure (vectorized, signed).

        Positive pressure deflects the membrane in +w; the cubic is odd, so
        negative pressures produce the mirrored deflection.
        """
        pressure = np.atleast_1d(np.asarray(pressure_pa, dtype=float))
        rhs = self._load_coeff * pressure
        w0 = _solve_stiffening_cubic(self._k1, self._k3, rhs)
        linear_force = self._k1 * np.abs(w0)
        cubic_force = self._k3 * np.abs(w0) ** 3
        total = linear_force + cubic_force
        with np.errstate(invalid="ignore", divide="ignore"):
            nonlin = np.where(total > 0.0, cubic_force / total, 0.0)
        return PlateSolution(
            pressure_pa=pressure,
            center_deflection_m=w0,
            nonlinearity_fraction=nonlin,
        )

    def center_deflection_m(self, pressure_pa: np.ndarray | float) -> np.ndarray:
        """Convenience wrapper returning only w0 (vectorized)."""
        return self.solve(pressure_pa).center_deflection_m

    def deflection_profile_m(
        self,
        pressure_pa: float,
        x_m: np.ndarray,
        y_m: np.ndarray,
    ) -> np.ndarray:
        """Full deflection field w(x, y) at one pressure.

        Coordinates are measured from the membrane center; broadcasting
        rules of numpy apply to ``x_m``/``y_m``.
        """
        w0 = float(self.center_deflection_m(pressure_pa)[0])
        xi = np.asarray(x_m, dtype=float) / self.side_m
        eta = np.asarray(y_m, dtype=float) / self.side_m
        return w0 * mode_shape(xi) * mode_shape(eta)

    def pressure_for_deflection_pa(self, w0_m: np.ndarray | float) -> np.ndarray:
        """Inverse transfer: pressure producing a given center deflection."""
        w0 = np.atleast_1d(np.asarray(w0_m, dtype=float))
        return (self._k1 * w0 + self._k3 * w0**3) / self._load_coeff


def _solve_stiffening_cubic(
    k1: float, k3: float, rhs: np.ndarray
) -> np.ndarray:
    """Unique real root of k3*w^3 + k1*w = rhs, vectorized over rhs.

    For k1 > 0 and k3 >= 0 the left side is strictly increasing, so exactly
    one real real root exists. With k3 == 0 this degenerates to the linear
    solution; otherwise the hyperbolic closed form for the depressed cubic
    t^3 + p t + q = 0 with p > 0,

        t = -2 sqrt(p/3) * sinh( (1/3) asinh( (3q)/(2p) sqrt(3/p) ) ),

    which — unlike Cardano's radical form — has no catastrophic
    cancellation when the root is small compared to sqrt(p). One Newton
    step polishes the result to full double precision.
    """
    rhs = np.asarray(rhs, dtype=float)
    if k3 <= 0.0:
        return rhs / k1
    p = k1 / k3
    if not np.isfinite(p) or p > 1e300:
        # Cubic term numerically negligible against the linear one.
        return rhs / k1
    q = -rhs / k3
    # Compute q/p first: q and p can individually overflow-scale like
    # 1/k3 while their ratio stays O(rhs/k1).
    arg = 1.5 * (q / p) * np.sqrt(3.0 / p)
    w = -2.0 * np.sqrt(p / 3.0) * np.sinh(np.arcsinh(arg) / 3.0)
    # Newton polish on f(w) = k3 w^3 + k1 w - rhs.
    f = k3 * w**3 + k1 * w - rhs
    df = 3.0 * k3 * w**2 + k1
    return w - f / df
