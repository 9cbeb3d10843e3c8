"""Composite-plate (classical lamination) mechanics of the membrane stack.

The released membrane is a sandwich of oxide, aluminum and nitride films
(Fig. 2). For deflection modelling we need three scalars:

* the flexural rigidity ``D`` about the laminate's neutral axis,
* the net residual in-plane force per unit width ``N0 = sum(sigma_i * t_i)``,
* the areal mass (for resonance estimates).

Classical lamination theory for an isotropic-layer stack reduces to a
neutral-axis computation followed by a parallel-axis sum, which is what is
implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import ConfigurationError
from .materials import Layer


@dataclass(frozen=True)
class Laminate:
    """An ordered stack of thin films, bottom (z=0) to top.

    Parameters
    ----------
    layers:
        The films, ordered from the bottom of the stack upward.
    """

    layers: tuple[Layer, ...]

    def __init__(self, layers: Iterable[Layer] | Sequence[Layer]):
        layer_tuple = tuple(layers)
        if not layer_tuple:
            raise ConfigurationError("laminate needs at least one layer")
        object.__setattr__(self, "layers", layer_tuple)

    # -- geometry ------------------------------------------------------

    @property
    def thickness_m(self) -> float:
        """Total stack thickness."""
        return sum(layer.thickness_m for layer in self.layers)

    def layer_bounds_m(self) -> list[tuple[float, float]]:
        """(z_bottom, z_top) of each layer, measured from the stack bottom."""
        bounds = []
        z = 0.0
        for layer in self.layers:
            bounds.append((z, z + layer.thickness_m))
            z += layer.thickness_m
        return bounds

    # -- stiffness -----------------------------------------------------

    @property
    def neutral_axis_m(self) -> float:
        """Bending neutral axis height above the stack bottom.

        Weighted by each layer's plate modulus E/(1-nu^2): the stiffness-
        weighted centroid of the cross-section.
        """
        weighted_moment = 0.0
        weighted_area = 0.0
        for layer, (z0, z1) in zip(self.layers, self.layer_bounds_m()):
            modulus = layer.material.plate_modulus_pa
            weighted_area += modulus * (z1 - z0)
            weighted_moment += modulus * 0.5 * (z1**2 - z0**2)
        return weighted_moment / weighted_area

    @property
    def flexural_rigidity_nm(self) -> float:
        """Composite flexural rigidity D [N*m] about the neutral axis.

        D = sum_i E_i/(1-nu_i^2) * integral over layer i of (z - z_n)^2 dz,
        the parallel-axis laminate formula.
        """
        zn = self.neutral_axis_m
        rigidity = 0.0
        for layer, (z0, z1) in zip(self.layers, self.layer_bounds_m()):
            modulus = layer.material.plate_modulus_pa
            rigidity += modulus * ((z1 - zn) ** 3 - (z0 - zn) ** 3) / 3.0
        return rigidity

    @property
    def membrane_force_n_per_m(self) -> float:
        """Net residual in-plane force per unit width N0 [N/m].

        Positive (tensile) N0 stiffens the plate; strongly negative values
        indicate buckling risk.
        """
        return sum(
            layer.material.residual_stress_pa * layer.thickness_m
            for layer in self.layers
        )

    @property
    def mean_residual_stress_pa(self) -> float:
        """Thickness-averaged residual stress of the stack [Pa]."""
        return self.membrane_force_n_per_m / self.thickness_m

    @property
    def effective_youngs_modulus_pa(self) -> float:
        """Thickness-weighted average Young's modulus."""
        total = sum(
            layer.material.youngs_modulus_pa * layer.thickness_m
            for layer in self.layers
        )
        return total / self.thickness_m

    @property
    def effective_poisson_ratio(self) -> float:
        """Thickness-weighted average Poisson ratio."""
        total = sum(
            layer.material.poisson_ratio * layer.thickness_m
            for layer in self.layers
        )
        return total / self.thickness_m

    # -- mass ----------------------------------------------------------

    @property
    def areal_mass_kg_m2(self) -> float:
        """Mass per unit membrane area."""
        return sum(layer.areal_mass_kg_m2 for layer in self.layers)

    # -- convenience ---------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable summary (used by examples)."""
        lines = [
            f"Laminate: {len(self.layers)} layers, "
            f"{self.thickness_m * 1e6:.2f} um total",
        ]
        for layer, (z0, z1) in zip(self.layers, self.layer_bounds_m()):
            lines.append(
                f"  {layer.material.name:<40s} "
                f"{layer.thickness_m * 1e6:5.2f} um  "
                f"[{z0 * 1e6:.2f}..{z1 * 1e6:.2f} um]"
            )
        lines.append(f"  neutral axis : {self.neutral_axis_m * 1e6:.3f} um")
        lines.append(f"  D            : {self.flexural_rigidity_nm:.3e} N*m")
        lines.append(
            f"  N0 (residual): {self.membrane_force_n_per_m:.3f} N/m "
            f"({self.mean_residual_stress_pa / 1e6:.1f} MPa mean)"
        )
        return "\n".join(lines)
