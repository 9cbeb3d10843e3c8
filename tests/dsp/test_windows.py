"""Hann window metadata used by the SNR accounting."""

import numpy as np
import pytest

from repro.dsp.windows import HANN_HALF_LEAKAGE_BINS, hann
from repro.errors import ConfigurationError


class TestCatalog:
    @pytest.mark.parametrize("name", ["hann"])
    def test_lengths(self, name):
        assert hann(256).size == 256

    def test_too_short(self):
        with pytest.raises(ConfigurationError):
            hann(4)


class TestMetadata:
    def test_hann_enbw(self):
        w = hann(4096)
        enbw_bins = w.size * np.sum(w**2) / np.sum(w) ** 2
        assert enbw_bins == pytest.approx(1.5, rel=1e-3)

    def test_hann_coherent_gain(self):
        assert float(np.mean(hann(4096))) == pytest.approx(0.5, rel=1e-3)

    def test_leakage_containment(self):
        """A coherent windowed tone's power outside the declared skirt is
        negligible — the property the SNR bookkeeping rests on."""
        n = 4096
        k = 333  # exact bin
        t = np.arange(n)
        x = np.sin(2 * np.pi * k * t / n)
        fft = np.abs(np.fft.rfft(x * hann(n))) ** 2
        skirt = slice(k - HANN_HALF_LEAKAGE_BINS, k + HANN_HALF_LEAKAGE_BINS + 1)
        inside = fft[skirt].sum()
        outside = fft.sum() - inside
        assert outside / inside < 1e-6
