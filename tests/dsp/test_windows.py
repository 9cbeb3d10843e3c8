"""Window metadata used by the SNR accounting."""

import numpy as np
import pytest

from repro.dsp.windows import get_window
from repro.errors import ConfigurationError


class TestCatalog:
    @pytest.mark.parametrize(
        "name", ["rectangular", "hann", "blackmanharris", "flattop"]
    )
    def test_lengths(self, name):
        spec = get_window(name, 256)
        assert spec.values.size == 256

    def test_unknown_window(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            get_window("kaiser", 256)

    def test_too_short(self):
        with pytest.raises(ConfigurationError):
            get_window("hann", 4)

    def test_case_insensitive(self):
        assert get_window("HANN", 64).name == "hann"


class TestMetadata:
    def test_rectangular_reference_values(self):
        spec = get_window("rectangular", 1024)
        assert spec.coherent_gain == pytest.approx(1.0)
        assert spec.noise_equivalent_bandwidth_bins == pytest.approx(1.0)
        assert spec.half_leakage_bins == 0

    def test_hann_enbw(self):
        spec = get_window("hann", 4096)
        assert spec.noise_equivalent_bandwidth_bins == pytest.approx(1.5, rel=1e-3)

    def test_hann_coherent_gain(self):
        spec = get_window("hann", 4096)
        assert spec.coherent_gain == pytest.approx(0.5, rel=1e-3)

    def test_blackmanharris_enbw(self):
        spec = get_window("blackmanharris", 4096)
        assert spec.noise_equivalent_bandwidth_bins == pytest.approx(2.0, rel=0.01)

    def test_processing_gain_ordering(self):
        """Stronger sidelobe suppression costs more ENBW."""
        rect = get_window("rectangular", 1024)
        hann = get_window("hann", 1024)
        bh = get_window("blackmanharris", 1024)
        ft = get_window("flattop", 1024)
        assert (
            rect.noise_equivalent_bandwidth_bins
            < hann.noise_equivalent_bandwidth_bins
            < bh.noise_equivalent_bandwidth_bins
            < ft.noise_equivalent_bandwidth_bins
        )

    def test_leakage_containment(self):
        """A coherent windowed tone's power outside the declared skirt is
        negligible — the property the SNR bookkeeping rests on."""
        n = 4096
        for name in ("hann", "blackmanharris"):
            spec = get_window(name, n)
            k = 333  # exact bin
            t = np.arange(n)
            x = np.sin(2 * np.pi * k * t / n)
            fft = np.abs(np.fft.rfft(x * spec.values)) ** 2
            skirt = slice(k - spec.half_leakage_bins, k + spec.half_leakage_bins + 1)
            inside = fft[skirt].sum()
            outside = fft.sum() - inside
            assert outside / inside < 1e-6
