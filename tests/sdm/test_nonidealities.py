"""Noise calculators: physical scaling laws."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sdm.nonidealities import (
    BOLTZMANN_J_PER_K,
    FlickerNoiseGenerator,
    integrator_noise_sigma_v,
    kt_over_c_sigma_v,
    leak_factor_from_gain,
)


class TestKTC:
    def test_textbook_value(self):
        """kT/C at 1 pF, 300 K: ~64 uV per phase."""
        sigma = kt_over_c_sigma_v(1e-12, 300.0, phases=1)
        assert sigma == pytest.approx(
            math.sqrt(BOLTZMANN_J_PER_K * 300 / 1e-12), rel=1e-12
        )
        assert sigma == pytest.approx(64e-6, rel=0.02)

    def test_two_phase_sqrt2(self):
        one = kt_over_c_sigma_v(1e-12, phases=1)
        two = kt_over_c_sigma_v(1e-12, phases=2)
        assert two == pytest.approx(one * math.sqrt(2))

    def test_smaller_cap_noisier(self):
        assert kt_over_c_sigma_v(0.5e-12) > kt_over_c_sigma_v(1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            kt_over_c_sigma_v(0.0)
        with pytest.raises(ConfigurationError):
            kt_over_c_sigma_v(1e-12, temperature_k=-1.0)

    def test_integrator_excess(self):
        base = kt_over_c_sigma_v(1e-12)
        total = integrator_noise_sigma_v(1e-12, opamp_excess_factor=1.5)
        assert total == pytest.approx(base * math.sqrt(1.5))


class TestLeak:
    def test_ideal_gain(self):
        assert leak_factor_from_gain(1e12, 0.5) == pytest.approx(1.0)

    def test_formula(self):
        assert leak_factor_from_gain(100.0, 0.5) == pytest.approx(0.985)

    def test_floors_at_zero(self):
        assert leak_factor_from_gain(1.0, 0.5) == 0.0


class TestFlicker:
    def test_psd_slope_near_one_over_f(self):
        """Averaged PSD slope between two decades ~ -10 dB/decade."""
        rng = np.random.default_rng(6)
        fs = 10000.0
        gen = FlickerNoiseGenerator(
            corner_hz=100.0, white_sigma=1.0, sample_rate_hz=fs, rng=rng
        )
        n = 2**16
        x = gen.sample_block(n)
        freqs = np.fft.rfftfreq(n, 1 / fs)
        psd = np.abs(np.fft.rfft(x)) ** 2
        def band_power(f0, f1):
            m = (freqs >= f0) & (freqs < f1)
            return psd[m].mean()
        p_low = band_power(1.0, 3.0)
        p_high = band_power(10.0, 30.0)
        slope_db = 10 * np.log10(p_high / p_low)
        assert slope_db == pytest.approx(-10.0, abs=3.5)

    def test_streaming_continuity(self):
        """Block boundaries must not reset the correlation state: the
        two-block output equals a single run with the same rng stream."""
        rng1 = np.random.default_rng(77)
        gen1 = FlickerNoiseGenerator(10.0, 1.0, 1000.0, rng=rng1)
        whole = gen1.sample_block(200)
        rng2 = np.random.default_rng(77)
        gen2 = FlickerNoiseGenerator(10.0, 1.0, 1000.0, rng=rng2)
        parts = np.concatenate([gen2.sample_block(90), gen2.sample_block(110)])
        assert parts == pytest.approx(whole)

    def test_reset_clears_state(self):
        gen = FlickerNoiseGenerator(
            10.0, 1.0, 1000.0, rng=np.random.default_rng(5)
        )
        gen.sample_block(100)
        gen.reset()
        assert np.all(gen._state == 0.0)

    def test_empty_block(self):
        gen = FlickerNoiseGenerator(
            10.0, 1.0, 1000.0, rng=np.random.default_rng(5)
        )
        assert gen.sample_block(0).size == 0

    def test_rejects_bad_args(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ConfigurationError):
            FlickerNoiseGenerator(0.0, 1.0, 1000.0, rng=rng)
        with pytest.raises(ConfigurationError):
            FlickerNoiseGenerator(10.0, 1.0, 1000.0, rng=rng, n_sources=1)
