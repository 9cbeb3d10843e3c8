"""SC integrator stage: accumulation, leak, saturation."""

import pytest

from repro.errors import ConfigurationError
from repro.sdm.integrator import SCIntegrator


class TestIdealAccumulation:
    def test_accumulates(self):
        integ = SCIntegrator(signal_gain=0.5, feedback_gain=0.5)
        integ.step(1.0, 0.0)
        integ.step(1.0, 0.0)
        assert integ.state == pytest.approx(1.0)

    def test_delaying_output(self):
        """step() returns the state *before* this cycle's charge."""
        integ = SCIntegrator(signal_gain=0.5, feedback_gain=0.5)
        out0 = integ.step(1.0, 0.0)
        out1 = integ.step(0.0, 0.0)
        assert out0 == pytest.approx(0.0)
        assert out1 == pytest.approx(0.5)

    def test_feedback_subtracts(self):
        integ = SCIntegrator(signal_gain=0.5, feedback_gain=0.5)
        integ.step(1.0, 1.0)
        assert integ.state == pytest.approx(0.0)

    def test_reset(self):
        integ = SCIntegrator(signal_gain=0.5, feedback_gain=0.5)
        integ.step(1.0, 0.0)
        integ.reset()
        assert integ.state == 0.0

    def test_noise_injection(self):
        integ = SCIntegrator(signal_gain=0.5, feedback_gain=0.5)
        integ.step(0.0, 0.0, noise=0.01)
        assert integ.state == pytest.approx(0.01)


class TestFiniteGain:
    def test_ideal_leak_is_unity(self):
        integ = SCIntegrator(signal_gain=0.5, feedback_gain=0.5,
                             opamp_gain=1e12)
        assert integ.leak == pytest.approx(1.0)

    def test_finite_gain_leaks(self):
        integ = SCIntegrator(signal_gain=0.5, feedback_gain=0.5,
                             opamp_gain=100.0)
        assert integ.leak == pytest.approx(1.0 - 1.5 / 100.0)

    def test_leak_decays_state(self):
        integ = SCIntegrator(signal_gain=0.5, feedback_gain=0.5,
                             opamp_gain=50.0)
        integ.state = 1.0
        for _ in range(100):
            integ.step(0.0, 0.0)
        assert 0.0 < integ.state < 0.1

    def test_gain_error(self):
        integ = SCIntegrator(signal_gain=0.5, feedback_gain=0.5,
                             opamp_gain=100.0)
        integ.step(1.0, 0.0)
        assert integ.state == pytest.approx(0.5 * 0.99)


class TestSaturation:
    def test_clips_at_swing(self):
        integ = SCIntegrator(signal_gain=0.5, feedback_gain=0.5,
                             swing_limit=2.0)
        for _ in range(20):
            integ.step(1.0, 0.0)
        assert integ.state == pytest.approx(2.0)

    def test_clips_negative(self):
        integ = SCIntegrator(signal_gain=0.5, feedback_gain=0.5,
                             swing_limit=2.0)
        for _ in range(20):
            integ.step(-1.0, 0.0)
        assert integ.state == pytest.approx(-2.0)

    def test_recovers_after_clip(self):
        integ = SCIntegrator(signal_gain=0.5, feedback_gain=0.5,
                             swing_limit=2.0)
        for _ in range(20):
            integ.step(1.0, 0.0)
        integ.step(-1.0, 0.0)
        assert integ.state < 2.0


class TestValidation:
    def test_rejects_bad_gains(self):
        with pytest.raises(ConfigurationError):
            SCIntegrator(signal_gain=0.0, feedback_gain=0.5)
        with pytest.raises(ConfigurationError):
            SCIntegrator(signal_gain=0.5, feedback_gain=-1.0)

    def test_rejects_bad_swing(self):
        with pytest.raises(ConfigurationError):
            SCIntegrator(signal_gain=0.5, feedback_gain=0.5, swing_limit=0.0)
