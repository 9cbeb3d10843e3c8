"""Single-bit comparator behaviour."""

import pytest

from repro.errors import ConfigurationError
from repro.sdm.comparator import Comparator


class TestIdeal:
    def test_sign_function(self):
        comp = Comparator()
        assert comp.decide(0.1) == 1
        assert comp.decide(-0.1) == -1
        assert comp.decide(0.0) == 1  # ties resolve high

    def test_is_ideal_flag(self):
        assert Comparator().is_ideal()
        assert not Comparator(offset_v=0.01).is_ideal()
        assert not Comparator(hysteresis_v=0.01).is_ideal()


class TestOffset:
    def test_offset_shifts_threshold(self):
        comp = Comparator(offset_v=0.2)
        assert comp.decide(0.1) == -1
        assert comp.decide(0.3) == 1

    def test_negative_offset(self):
        comp = Comparator(offset_v=-0.2)
        assert comp.decide(-0.1) == 1


class TestHysteresis:
    def test_holds_previous_decision(self):
        comp = Comparator(hysteresis_v=0.2)
        assert comp.decide(1.0) == 1  # now latched high
        # Input slightly below zero but above -hyst/2: stays high.
        assert comp.decide(-0.05) == 1
        # Below -hyst/2: flips.
        assert comp.decide(-0.15) == -1
        # Slightly above zero but below +hyst/2: stays low.
        assert comp.decide(0.05) == -1

    def test_reset_restores_high_state(self):
        comp = Comparator(hysteresis_v=0.2)
        comp.decide(-1.0)
        assert comp.previous_decision == -1
        comp.reset()
        assert comp.previous_decision == 1

    def test_rejects_negative_hysteresis(self):
        with pytest.raises(ConfigurationError):
            Comparator(hysteresis_v=-0.1)

