"""Thin-film material properties of the CMOS membrane stack.

The paper (Sec. 2.1) builds the membrane from "CMOS dielectric layers
(silicon oxide / nitride) and metallization (aluminum)" with a poly-silicon
bottom electrode. Thin-film properties differ from bulk; the values below
are standard thin-film numbers used in CMOS-MEMS modelling.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class Material:
    """Isotropic linear-elastic thin-film material.

    Attributes
    ----------
    name:
        Human-readable identifier.
    youngs_modulus_pa:
        Young's modulus E [Pa].
    poisson_ratio:
        Poisson's ratio (dimensionless, in [0, 0.5)).
    density_kg_m3:
        Mass density [kg/m^3].
    residual_stress_pa:
        Typical as-deposited residual stress after release [Pa];
        positive = tensile.
    relative_permittivity:
        Dielectric constant (relevant for oxide/nitride in the gap stack).
    """

    name: str
    youngs_modulus_pa: float
    poisson_ratio: float
    density_kg_m3: float
    residual_stress_pa: float = 0.0
    relative_permittivity: float = 1.0

    def __post_init__(self) -> None:
        if self.youngs_modulus_pa <= 0:
            raise ConfigurationError(f"{self.name}: Young's modulus must be positive")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ConfigurationError(f"{self.name}: Poisson ratio must be in [0, 0.5)")
        if self.density_kg_m3 <= 0:
            raise ConfigurationError(f"{self.name}: density must be positive")
        if self.relative_permittivity < 1.0:
            raise ConfigurationError(f"{self.name}: permittivity must be >= 1")

    @property
    def plate_modulus_pa(self) -> float:
        """E / (1 - nu^2), the modulus in the flexural rigidity integral."""
        return self.youngs_modulus_pa / (1.0 - self.poisson_ratio**2)


# --- Thin-film catalog (values typical for 0.8 um CMOS back end) -----------

SILICON_OXIDE = Material(
    name="SiO2 (PECVD/thermal CMOS ILD)",
    youngs_modulus_pa=70e9,
    poisson_ratio=0.17,
    density_kg_m3=2200.0,
    residual_stress_pa=-100e6,  # compressive as deposited
    relative_permittivity=3.9,
)

SILICON_NITRIDE = Material(
    name="Si3N4 (PECVD passivation)",
    youngs_modulus_pa=250e9,
    poisson_ratio=0.23,
    density_kg_m3=3100.0,
    residual_stress_pa=300e6,  # tensile; balances oxide compression
    relative_permittivity=7.5,
)

ALUMINUM = Material(
    name="Al (CMOS metallization)",
    youngs_modulus_pa=70e9,
    poisson_ratio=0.35,
    density_kg_m3=2700.0,
    residual_stress_pa=50e6,
)


@dataclass(frozen=True)
class Layer:
    """One film in the laminate: a material plus its thickness."""

    material: Material
    thickness_m: float

    def __post_init__(self) -> None:
        if self.thickness_m <= 0:
            raise ConfigurationError(
                f"layer of {self.material.name}: thickness must be positive"
            )

    @property
    def areal_mass_kg_m2(self) -> float:
        return self.material.density_kg_m3 * self.thickness_m


def paper_membrane_stack() -> tuple[Layer, ...]:
    """The released membrane laminate of Fig. 2, bottom to top.

    The paper gives only the total thickness (3 um). This split between
    inter-layer oxide, metal-2 (top electrode) and passivation nitride is
    representative of a 0.8 um two-metal CMOS back end and sums to 3 um.
    """
    return (
        Layer(SILICON_OXIDE, 1.0e-6),  # ILD under metal-2
        Layer(ALUMINUM, 0.9e-6),  # metal-2 top electrode
        Layer(SILICON_OXIDE, 0.5e-6),  # inter-metal/passivation oxide
        Layer(SILICON_NITRIDE, 0.6e-6),  # passivation nitride
    )
