"""Spectral windows with the bookkeeping needed for honest SNR numbers.

Computing SNR from a windowed periodogram requires knowing how many bins
the windowed tone leaks into (to collect all signal power) and the window's
noise-equivalent bandwidth (to keep noise totals unbiased). This module
pairs each supported window with that metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class WindowSpec:
    """A window function plus its spectral bookkeeping constants.

    Attributes
    ----------
    name:
        Identifier accepted by :func:`get_window`.
    half_leakage_bins:
        Number of bins on each side of a tone's center bin that carry
        significant leaked signal power and must be attributed to the
        signal (and excluded from noise).
    """

    name: str
    values: np.ndarray
    half_leakage_bins: int

    @property
    def coherent_gain(self) -> float:
        """Mean of the window: amplitude scaling of a coherent tone."""
        return float(np.mean(self.values))

    @property
    def noise_equivalent_bandwidth_bins(self) -> float:
        """ENBW in bins: N * sum(w^2) / sum(w)^2."""
        w = self.values
        return float(w.size * np.sum(w**2) / np.sum(w) ** 2)


# Cosine-sum coefficients, as in ``scipy.signal.windows``.
_COSINE_SUMS = {
    "hann": (0.5, 1.0 - 0.5),
    "blackmanharris": (0.35875, 0.48829, 0.14128, 0.01168),
    "flattop": (0.21557895, 0.41663158, 0.277263158, 0.083578947, 0.006947368),
}

_HALF_LEAKAGE = {
    "rectangular": 0,
    "hann": 3,
    "blackmanharris": 4,
    "flattop": 5,
}


def cosine_sum(
    n: int, coefficients: tuple[float, ...], sym: bool
) -> np.ndarray:
    """Generalized cosine window ``sum_k a_k cos(k * phase)`` of length ``n``.

    The arithmetic of ``scipy.signal.windows.general_cosine``, so the
    values are bit-identical to SciPy's: sample the phase on
    ``linspace(-pi, pi)``, accumulate the terms in order, and for a
    periodic (``sym=False``) window build ``n + 1`` points and drop the
    last.
    """
    m = n if sym else n + 1
    fac = np.linspace(-np.pi, np.pi, m)
    w = np.zeros(m)
    for k, a_k in enumerate(coefficients):
        w += a_k * np.cos(k * fac)
    return w if sym else w[:-1]


def get_window(name: str, n: int) -> WindowSpec:
    """Build a supported window of length ``n``.

    Supported names: ``rectangular``, ``hann``, ``blackmanharris``,
    ``flattop``. Periodic (DFT-even) variants are used, as appropriate for
    spectral analysis.
    """
    if n < 8:
        raise ConfigurationError("window length must be >= 8")
    key = name.lower()
    if key == "rectangular":
        values = np.ones(n)
    elif key in _COSINE_SUMS:
        values = cosine_sum(n, _COSINE_SUMS[key], sym=False)
    else:
        raise ConfigurationError(
            f"unknown window {name!r}; choose from {sorted(_HALF_LEAKAGE)}"
        )
    return WindowSpec(
        name=key, values=values, half_leakage_bins=_HALF_LEAKAGE[key]
    )
