"""Relative maxima of a 1-D signal, without SciPy.

:func:`relative_maxima` is ``scipy.signal.argrelextrema(x, np.greater,
order=order)[0]`` for 1-D input: a sample is a maximum when it is strictly
greater than every neighbour up to ``order`` samples away, with indices
past either end clipped to the edge sample. A plateau is therefore never a
maximum, and neither is an edge sample (it compares against itself).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


def relative_maxima(x: np.ndarray, order: int = 1) -> np.ndarray:
    """Indices of the strict relative maxima of ``x`` within ``order``."""
    if order < 1:
        raise ConfigurationError("order must be >= 1")
    x = np.asarray(x)
    locs = np.arange(x.size)
    is_max = np.ones(x.size, dtype=bool)
    for shift in range(1, order + 1):
        is_max &= x > x.take(locs + shift, mode="clip")
        is_max &= x > x.take(locs - shift, mode="clip")
    return np.flatnonzero(is_max)
