"""Array element wrapper."""

import pytest

from repro.array.element import ArrayElement
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def element(sensor) -> ArrayElement:
    return ArrayElement(
        index=0,
        row=0,
        col=0,
        center_m=(-75e-6, -75e-6),
        sensor=sensor,
        capacitance_scale=1.01,
        offset_cap_f=2e-15,
    )


class TestTransfer:
    def test_mismatch_applied(self, element, sensor):
        base = sensor.capacitance_f(0.0)[0]
        assert element.capacitance_f(0.0)[0] == pytest.approx(
            base * 1.01 + 2e-15
        )

    def test_rest_capacitance_consistent(self, element):
        assert element.rest_capacitance_f == pytest.approx(
            element.capacitance_f(0.0)[0]
        )

    def test_responds_to_pressure(self, element):
        assert element.capacitance_f(5000.0)[0] > element.rest_capacitance_f


class TestGeometry:
    def test_rejects_bad_scale(self, sensor):
        with pytest.raises(ConfigurationError):
            ArrayElement(
                index=0, row=0, col=0, center_m=(0, 0), sensor=sensor,
                capacitance_scale=0.0,
            )
