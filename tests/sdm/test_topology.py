"""Loop coefficients and stability screening."""

import pytest

from repro.errors import ConfigurationError
from repro.sdm.topology import LoopCoefficients


class TestCoefficients:
    def test_boser_wooley_defaults(self):
        c = LoopCoefficients.boser_wooley()
        assert (c.a1, c.a2, c.b1, c.b2) == (0.5, 0.5, 0.5, 0.5)

    def test_input_full_scale(self):
        assert LoopCoefficients.boser_wooley().input_full_scale == 1.0
        assert LoopCoefficients(a1=0.25, b1=0.5).input_full_scale == 2.0

    def test_with_feedback_ratio(self):
        c = LoopCoefficients.boser_wooley().with_feedback_ratio(0.5)
        assert c.b1 == pytest.approx(0.25)
        assert c.b2 == 0.5  # second stage untouched
        assert c.a1 == 0.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            LoopCoefficients(a1=0.0)
        with pytest.raises(ConfigurationError):
            LoopCoefficients.boser_wooley().with_feedback_ratio(0.0)
