"""Spectral analysis: SNR accounting on synthetic known-truth signals."""

import numpy as np
import pytest

from repro.dsp.spectrum import (
    analyze_tone,
    coherent_tone_frequency,
    enob_from_sndr,
)
from repro.errors import ConfigurationError

FS = 1000.0
N = 4096


def make_tone(amplitude=1.0, freq=None, noise=0.0, harmonics=(), seed=7):
    rng = np.random.default_rng(seed)
    f = freq if freq is not None else coherent_tone_frequency(15.625, FS, N)
    t = np.arange(N) / FS
    x = amplitude * np.sin(2 * np.pi * f * t)
    for order, amp in harmonics:
        x += amp * np.sin(2 * np.pi * order * f * t)
    if noise > 0:
        x += noise * rng.standard_normal(N)
    return x, f


class TestCoherentFrequency:
    def test_lands_on_bin(self):
        f = coherent_tone_frequency(15.625, FS, N)
        k = f * N / FS
        assert k == pytest.approx(round(k))

    def test_odd_bin(self):
        f = coherent_tone_frequency(15.625, FS, N)
        assert round(f * N / FS) % 2 == 1

    def test_near_target(self):
        f = coherent_tone_frequency(15.625, FS, N)
        assert abs(f - 15.625) < FS / N * 2

    def test_rejects_out_of_band(self):
        with pytest.raises(ConfigurationError):
            coherent_tone_frequency(600.0, FS, 16)


class TestSNRMeasurement:
    def test_known_snr_recovered(self):
        noise = 1e-3
        x, f = make_tone(amplitude=1.0, noise=noise)
        a = analyze_tone(x, FS, tone_hz=f)
        # True SNR = 10log10(0.5 / noise^2) over full Nyquist band.
        expected = 10 * np.log10(0.5 / noise**2)
        assert a.snr_db == pytest.approx(expected, abs=1.0)

    def test_noiseless_tone_very_high_snr(self):
        x, f = make_tone(amplitude=0.5, noise=0.0)
        a = analyze_tone(x, FS, tone_hz=f)
        assert a.snr_db > 150.0

    def test_band_limiting_excludes_noise(self):
        """Restricting the band to 100 Hz cuts broadband noise ~7 dB
        (1000/2 -> 100 Hz is a factor 5)."""
        x, f = make_tone(amplitude=1.0, noise=3e-3)
        full = analyze_tone(x, FS, tone_hz=f)
        narrow = analyze_tone(x, FS, tone_hz=f, max_band_hz=100.0)
        assert narrow.snr_db == pytest.approx(full.snr_db + 7.0, abs=1.0)

    def test_amplitude_invariance(self):
        """SNR is a ratio: scaling the record must not change it."""
        x, f = make_tone(amplitude=1.0, noise=1e-3)
        a1 = analyze_tone(x, FS, tone_hz=f)
        a2 = analyze_tone(1000 * x, FS, tone_hz=f)
        assert a1.snr_db == pytest.approx(a2.snr_db, abs=1e-6)

    def test_finds_tone_without_hint(self):
        x, f = make_tone(amplitude=1.0, noise=1e-3)
        a = analyze_tone(x, FS)
        assert a.tone_frequency_hz == pytest.approx(f, abs=FS / N)

    def test_dc_offset_ignored(self):
        x, f = make_tone(amplitude=1.0, noise=1e-3)
        a0 = analyze_tone(x, FS, tone_hz=f)
        a1 = analyze_tone(x + 5.0, FS, tone_hz=f)
        assert a1.snr_db == pytest.approx(a0.snr_db, abs=0.5)
        assert a1.dc_power > a0.dc_power


class TestDistortion:
    def test_harmonics_counted_in_thd_not_snr(self):
        x, f = make_tone(
            amplitude=1.0, noise=1e-4, harmonics=((2, 0.01), (3, 0.005))
        )
        a = analyze_tone(x, FS, tone_hz=f)
        expected_thd = 10 * np.log10((0.01**2 + 0.005**2) / 2 / 0.5)
        assert a.thd_db == pytest.approx(expected_thd, abs=0.5)
        # SNR should NOT be degraded by the harmonics.
        clean = analyze_tone(make_tone(amplitude=1.0, noise=1e-4)[0], FS, tone_hz=f)
        assert a.snr_db == pytest.approx(clean.snr_db, abs=1.0)

    def test_sndr_includes_harmonics(self):
        x, f = make_tone(amplitude=1.0, noise=1e-4, harmonics=((3, 0.02),))
        a = analyze_tone(x, FS, tone_hz=f)
        assert a.sndr_db < a.snr_db

    def test_sfdr_matches_spur(self):
        x, f = make_tone(amplitude=1.0, noise=1e-5, harmonics=((3, 0.01),))
        a = analyze_tone(x, FS, tone_hz=f)
        # Spur is 40 dB below the tone (power of the spur bin ~ 1e-4/2
        # vs 0.5). Skirt spreads the spur over bins; allow slack.
        assert a.sfdr_db == pytest.approx(40.0, abs=3.0)

    def test_aliased_harmonic_found(self):
        """A 3rd harmonic beyond Nyquist folds back and must still be
        booked as distortion."""
        f = coherent_tone_frequency(400.0, FS, N)  # 3f = 1200 -> alias 200
        t = np.arange(N) / FS
        x = np.sin(2 * np.pi * f * t) + 0.01 * np.sin(2 * np.pi * 3 * f * t)
        a = analyze_tone(x, FS, tone_hz=f)
        assert a.distortion_power > 0.5 * (0.01**2 / 2)


class TestENOB:
    def test_formula(self):
        assert enob_from_sndr(74.0) == pytest.approx(12.0, abs=0.01)
        assert enob_from_sndr(1.76) == pytest.approx(0.0, abs=1e-9)

    def test_ideal_quantizer_enob(self):
        """A 10-bit quantized full-scale sine shows ~10 ENOB."""
        x, f = make_tone(amplitude=1.0, noise=0.0)
        lsb = 2.0 / 2**10
        xq = np.round(x / lsb) * lsb
        a = analyze_tone(xq, FS, tone_hz=f)
        assert a.enob_bits == pytest.approx(10.0, abs=0.35)


class TestValidation:
    def test_rejects_short_record(self):
        with pytest.raises(ConfigurationError):
            analyze_tone(np.ones(32), FS)

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            analyze_tone(np.ones((64, 2)), FS)

    def test_rejects_tone_outside(self):
        x, _ = make_tone()
        with pytest.raises(ConfigurationError):
            analyze_tone(x, FS, tone_hz=FS)

    def test_summary_string(self):
        x, f = make_tone(noise=1e-3)
        a = analyze_tone(x, FS, tone_hz=f)
        assert "SNR" in a.summary()
        assert "ENOB" in a.summary()
