"""Feedback DAC with adjustable first-stage capacitor."""

import pytest

from repro.errors import ConfigurationError
from repro.sdm.feedback import FeedbackDAC


class TestCfbRatio:
    def test_ratio_scales_b1_only(self):
        dac = FeedbackDAC(cfb_ratio=0.5)
        assert dac.coefficients.b1 == pytest.approx(0.25)
        assert dac.coefficients.b2 == pytest.approx(0.5)

    def test_gain_boost(self):
        assert FeedbackDAC(cfb_ratio=0.5).conversion_gain_boost == 2.0
        assert FeedbackDAC(cfb_ratio=2.0).conversion_gain_boost == 0.5

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ConfigurationError):
            FeedbackDAC(cfb_ratio=0.0)


class TestReferenceErrors:
    def test_rejects_large_static_error(self):
        with pytest.raises(ConfigurationError):
            FeedbackDAC(reference_error=0.6)

    def test_rejects_negative_noise(self):
        with pytest.raises(ConfigurationError):
            FeedbackDAC(reference_noise_sigma=-1e-4)
