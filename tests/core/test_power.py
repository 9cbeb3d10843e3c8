"""Power model anchored at 11.5 mW / 5 V / 128 kHz."""

import pytest

from repro.core.power import PowerModel
from repro.errors import ConfigurationError
from repro.params import ChipParams


@pytest.fixture(scope="module")
def model() -> PowerModel:
    return PowerModel()


class TestAnchor:
    def test_reproduces_paper_point(self, model):
        report = model.report()
        assert report.total_w == pytest.approx(11.5e-3, rel=1e-9)
        assert report.total_w == model.chip.power_w

    def test_split(self, model):
        report = model.report()
        assert report.static_w == pytest.approx(0.6 * 11.5e-3)
        assert report.dynamic_w == pytest.approx(0.4 * 11.5e-3)


class TestScaling:
    def test_dynamic_scales_with_rate(self, model):
        double = model.report(sampling_rate_hz=256e3)
        base = model.report()
        assert double.dynamic_w == pytest.approx(2 * base.dynamic_w)
        assert double.static_w == pytest.approx(base.static_w)

    def test_supply_scaling(self, model):
        low = model.report(supply_v=3.3)
        base = model.report()
        assert low.dynamic_w == pytest.approx(
            base.dynamic_w * (3.3 / 5.0) ** 2
        )
        assert low.static_w == pytest.approx(base.static_w * 3.3 / 5.0)

    def test_bad_operating_point(self, model):
        with pytest.raises(ConfigurationError):
            model.report(sampling_rate_hz=-1.0)


class TestConfiguration:
    def test_custom_split(self):
        all_static = PowerModel(static_fraction=1.0)
        assert all_static.report(sampling_rate_hz=1e6).total_w == (
            pytest.approx(11.5e-3)
        )

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            PowerModel(static_fraction=1.5)

    def test_describe(self, model):
        assert "mW" in model.report().describe()

    def test_custom_chip(self):
        chip = ChipParams(power_w=20e-3)
        assert PowerModel(chip).report().total_w == pytest.approx(20e-3)
