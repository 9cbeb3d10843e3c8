"""Composite-plate lamination mechanics."""


import pytest

from repro.errors import ConfigurationError
from repro.mems.laminate import Laminate
from repro.mems.materials import (
    ALUMINUM,
    Layer,
    Material,
    SILICON_NITRIDE,
    SILICON_OXIDE,
    paper_membrane_stack,
)


@pytest.fixture(scope="module")
def paper_laminate() -> Laminate:
    return Laminate(paper_membrane_stack())


def _uniform(material: Material, thickness: float) -> Laminate:
    return Laminate([Layer(material, thickness)])


class TestGeometry:
    def test_thickness_sums_layers(self, paper_laminate):
        assert paper_laminate.thickness_m == pytest.approx(3e-6)

    def test_layer_bounds_are_contiguous(self, paper_laminate):
        bounds = paper_laminate.layer_bounds_m()
        for (_, top), (bottom, _) in zip(bounds, bounds[1:]):
            assert top == pytest.approx(bottom)

    def test_empty_laminate_rejected(self):
        with pytest.raises(ConfigurationError):
            Laminate([])


class TestSingleLayerLimits:
    """A one-layer laminate must match textbook plate formulas."""

    def test_neutral_axis_at_midplane(self):
        lam = _uniform(SILICON_OXIDE, 2e-6)
        assert lam.neutral_axis_m == pytest.approx(1e-6, rel=1e-9)

    def test_flexural_rigidity_textbook(self):
        h = 2e-6
        lam = _uniform(SILICON_OXIDE, h)
        expected = SILICON_OXIDE.plate_modulus_pa * h**3 / 12.0
        assert lam.flexural_rigidity_nm == pytest.approx(expected, rel=1e-9)

    def test_membrane_force_is_stress_times_thickness(self):
        h = 2e-6
        lam = _uniform(SILICON_NITRIDE, h)
        assert lam.membrane_force_n_per_m == pytest.approx(
            SILICON_NITRIDE.residual_stress_pa * h
        )

    def test_areal_mass(self):
        lam = _uniform(ALUMINUM, 1e-6)
        assert lam.areal_mass_kg_m2 == pytest.approx(2700e-6)


class TestComposite:
    def test_neutral_axis_pulled_toward_stiff_layer(self):
        # Nitride on top is much stiffer than oxide: neutral axis above
        # the geometric midplane.
        lam = Laminate(
            [Layer(SILICON_OXIDE, 1.5e-6), Layer(SILICON_NITRIDE, 1.5e-6)]
        )
        assert lam.neutral_axis_m > lam.thickness_m / 2.0

    def test_rigidity_exceeds_softest_uniform(self, paper_laminate):
        soft = _uniform(SILICON_OXIDE, paper_laminate.thickness_m)
        assert paper_laminate.flexural_rigidity_nm > soft.flexural_rigidity_nm

    def test_rigidity_below_stiffest_uniform(self, paper_laminate):
        stiff = _uniform(SILICON_NITRIDE, paper_laminate.thickness_m)
        assert paper_laminate.flexural_rigidity_nm < stiff.flexural_rigidity_nm

    def test_split_layer_invariance(self):
        """Splitting one physical layer into two identical halves must not
        change any derived stiffness quantity."""
        whole = _uniform(SILICON_OXIDE, 2e-6)
        split = Laminate(
            [Layer(SILICON_OXIDE, 1e-6), Layer(SILICON_OXIDE, 1e-6)]
        )
        assert split.neutral_axis_m == pytest.approx(whole.neutral_axis_m)
        assert split.flexural_rigidity_nm == pytest.approx(
            whole.flexural_rigidity_nm
        )
        assert split.membrane_force_n_per_m == pytest.approx(
            whole.membrane_force_n_per_m
        )

    def test_stacking_order_affects_rigidity(self):
        """An asymmetric stack's D depends on layer order relative to the
        neutral axis... but flipping the whole stack must NOT change D
        (mirror symmetry)."""
        a = Laminate(
            [Layer(SILICON_OXIDE, 2e-6), Layer(SILICON_NITRIDE, 0.5e-6)]
        )
        b = Laminate(
            [Layer(SILICON_NITRIDE, 0.5e-6), Layer(SILICON_OXIDE, 2e-6)]
        )
        assert a.flexural_rigidity_nm == pytest.approx(
            b.flexural_rigidity_nm, rel=1e-9
        )

    def test_effective_moduli_are_thickness_weighted(self, paper_laminate):
        e = paper_laminate.effective_youngs_modulus_pa
        moduli = [l.material.youngs_modulus_pa for l in paper_laminate.layers]
        assert min(moduli) < e < max(moduli)


class TestStressOverride:
    def test_describe_mentions_layers(self, paper_laminate):
        text = paper_laminate.describe()
        assert "neutral axis" in text
        assert "N0" in text
        assert f"{len(paper_laminate.layers)} layers" in text


class TestPaperStackProperties:
    def test_paper_stack_is_net_tensile(self, paper_laminate):
        """The oxide/nitride balance must come out mildly tensile,
        otherwise released membranes would buckle."""
        assert paper_laminate.membrane_force_n_per_m > 0

    def test_rigidity_order_of_magnitude(self, paper_laminate):
        # D ~ E h^3 / 12 with E ~ 100 GPa, h = 3 um -> ~2e-7 N m.
        d = paper_laminate.flexural_rigidity_nm
        assert 1e-8 < d < 1e-6

    def test_areal_mass_order(self, paper_laminate):
        # ~2500 kg/m^3 * 3 um
        assert paper_laminate.areal_mass_kg_m2 == pytest.approx(
            7.5e-3, rel=0.4
        )
