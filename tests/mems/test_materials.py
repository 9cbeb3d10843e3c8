"""Material catalog and Layer invariants."""

import pytest

from repro.errors import ConfigurationError
from repro.mems.materials import (
    ALUMINUM,
    Layer,
    Material,
    SILICON_NITRIDE,
    SILICON_OXIDE,
    paper_membrane_stack,
)


class TestMaterial:
    def test_plate_modulus_exceeds_youngs(self):
        for mat in (SILICON_OXIDE, SILICON_NITRIDE, ALUMINUM):
            assert mat.plate_modulus_pa > mat.youngs_modulus_pa

    def test_nitride_stiffer_than_oxide(self):
        assert (
            SILICON_NITRIDE.youngs_modulus_pa > SILICON_OXIDE.youngs_modulus_pa
        )

    def test_nitride_tensile_oxide_compressive(self):
        assert SILICON_NITRIDE.residual_stress_pa > 0
        assert SILICON_OXIDE.residual_stress_pa < 0

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ConfigurationError):
            Material("bad", youngs_modulus_pa=0.0, poisson_ratio=0.3,
                     density_kg_m3=1000.0)

    def test_rejects_poisson_out_of_range(self):
        with pytest.raises(ConfigurationError):
            Material("bad", youngs_modulus_pa=1e9, poisson_ratio=0.5,
                     density_kg_m3=1000.0)
        with pytest.raises(ConfigurationError):
            Material("bad", youngs_modulus_pa=1e9, poisson_ratio=-0.1,
                     density_kg_m3=1000.0)

    def test_rejects_low_permittivity(self):
        with pytest.raises(ConfigurationError):
            Material("bad", youngs_modulus_pa=1e9, poisson_ratio=0.3,
                     density_kg_m3=1000.0, relative_permittivity=0.5)


class TestLayer:
    def test_areal_mass(self):
        layer = Layer(ALUMINUM, 1e-6)
        assert layer.areal_mass_kg_m2 == pytest.approx(2700.0 * 1e-6)

    def test_rejects_nonpositive_thickness(self):
        with pytest.raises(ConfigurationError):
            Layer(ALUMINUM, 0.0)
        with pytest.raises(ConfigurationError):
            Layer(ALUMINUM, -1e-6)


class TestPaperStack:
    def test_total_thickness_is_3um(self):
        total = sum(l.thickness_m for l in paper_membrane_stack())
        assert total == pytest.approx(3e-6, rel=1e-9)

    def test_contains_oxide_nitride_aluminum(self):
        names = " ".join(l.material.name for l in paper_membrane_stack())
        assert "SiO2" in names
        assert "Si3N4" in names
        assert "Al" in names

    def test_metal_is_not_outermost(self):
        # Passivation nitride protects the metallization (Fig. 2).
        stack = paper_membrane_stack()
        assert "Si3N4" in stack[-1].material.name
