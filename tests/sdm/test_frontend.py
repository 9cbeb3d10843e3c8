"""Capacitive and voltage input branches."""

import pytest

from repro.errors import ConfigurationError
from repro.sdm.frontend import CapacitiveFrontEnd, VoltageFrontEnd


class TestCapacitive:
    def test_zero_at_reference(self):
        fe = CapacitiveFrontEnd(reference_cap_f=174e-15)
        assert fe.loop_input(174e-15) == pytest.approx(0.0)

    def test_gain(self):
        fe = CapacitiveFrontEnd(reference_cap_f=174e-15, feedback_cap_f=50e-15)
        delta = 5e-15
        assert fe.loop_input(174e-15 + delta) == pytest.approx(delta / 50e-15)

    def test_sign(self):
        fe = CapacitiveFrontEnd(reference_cap_f=174e-15)
        assert fe.loop_input(180e-15) > 0
        assert fe.loop_input(170e-15) < 0

    def test_excitation_fraction_scales(self):
        full = CapacitiveFrontEnd(174e-15, excitation_fraction=1.0)
        half = CapacitiveFrontEnd(174e-15, excitation_fraction=0.5)
        c = 180e-15
        assert half.loop_input(c) == pytest.approx(full.loop_input(c) / 2)

    def test_gain_per_farad(self):
        fe = CapacitiveFrontEnd(174e-15, feedback_cap_f=50e-15)
        assert fe.gain_per_farad == pytest.approx(1.0 / 50e-15)

    def test_rejects_nonpositive_caps(self):
        with pytest.raises(ConfigurationError):
            CapacitiveFrontEnd(0.0)
        with pytest.raises(ConfigurationError):
            CapacitiveFrontEnd(174e-15, feedback_cap_f=0.0)

    def test_rejects_nonpositive_sense(self):
        fe = CapacitiveFrontEnd(174e-15)
        with pytest.raises(ConfigurationError):
            fe.loop_input(-1e-15)


class TestVoltage:
    def test_normalization(self):
        fe = VoltageFrontEnd(vref_v=2.5)
        assert fe.loop_input(1.25) == pytest.approx(0.5)

    def test_rejects_bad_vref(self):
        with pytest.raises(ConfigurationError):
            VoltageFrontEnd(vref_v=0.0)
