"""The periodic Hann window with the bookkeeping needed for honest SNR numbers.

Computing SNR from a windowed periodogram requires knowing how many bins
the windowed tone leaks into, to collect all signal power and keep it out
of the noise total. The tone test (Fig. 7) uses one window, the periodic
Hann, whose leakage skirt is :data:`HANN_HALF_LEAKAGE_BINS` bins wide on
each side of the tone.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

#: Bins on each side of a coherent tone's center bin that carry
#: significant leaked Hann-windowed signal power and must be attributed to
#: the signal (and excluded from noise).
HANN_HALF_LEAKAGE_BINS = 3


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


def hann(n: int) -> np.ndarray:
    """Periodic (DFT-even) Hann window of length ``n``, as used for
    spectral analysis."""
    if n < 8:
        raise ConfigurationError("window length must be >= 8")
    return cosine_sum(n, (0.5, 1.0 - 0.5), sym=False)
