"""Relative maxima and peaks of a 1-D signal, without SciPy.

:func:`relative_maxima` is ``scipy.signal.argrelextrema(x, np.greater,
order=order)[0]`` for 1-D input: a sample is a maximum when it is strictly
greater than every neighbour up to ``order`` samples away, with indices
past either end clipped to the edge sample. A plateau is therefore never a
maximum, and neither is an edge sample (it compares against itself).

:func:`find_peaks` is ``scipy.signal.find_peaks(x, distance=...,
prominence=...)[0]`` with scalar conditions: local maxima with plateau
midpoints (``_local_maxima_1d``), distance pruning from the highest
peak down in the order ``np.argsort`` gives, then a minimum prominence,
where a peak's prominence is its height over the higher of its two
bases and each base is the lowest sample before the first higher one.
Both are bit-identical to SciPy (``tests/dsp/test_scipy_parity.py``).
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


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Midpoints of every strict local maximum, plateaus included.

    Works on runs of equal samples (NaN never equals itself, so it is a
    run of its own): an interior run is a maximum when both neighbouring
    runs are lower, and a run touching either end never is.
    """
    if x.size < 3:
        return np.zeros(0, dtype=np.intp)
    starts = np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1))
    ends = np.append(starts[1:] - 1, x.size - 1)
    v = x[starts]
    is_max = (v[:-2] < v[1:-1]) & (v[2:] < v[1:-1])
    return ((starts[1:-1] + ends[1:-1]) // 2)[is_max].astype(np.intp)


def _keep_by_distance(peaks: np.ndarray, heights: np.ndarray, distance) -> np.ndarray:
    """Drop every peak closer than ``distance`` to a higher-priority one."""
    distance = float(np.ceil(distance))
    keep = np.ones(peaks.size, dtype=bool)
    at = peaks.tolist()
    for j in np.argsort(heights)[::-1].tolist():
        if not keep[j]:
            continue
        k = j - 1
        while k >= 0 and at[j] - at[k] < distance:
            keep[k] = False
            k -= 1
        k = j + 1
        while k < peaks.size and at[k] - at[j] < distance:
            keep[k] = False
            k += 1
    return keep


def _within(side: np.ndarray, top: float) -> int:
    """How many leading samples of ``side`` are <= ``top``: the search
    stops at the first higher (or NaN) one, in growing windows so a
    small peak costs a short search."""
    width = 64
    while True:
        stops = np.flatnonzero(~(side[:width] <= top))
        if stops.size:
            return int(stops[0])
        if width >= side.size:
            return side.size
        width *= 4


def _prominences(x: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Each peak's height over the higher of its two bases, a base being
    the lowest sample on that side before the first higher one."""
    out = np.empty(peaks.size)
    for j, peak in enumerate(peaks.tolist()):
        top = x[peak]
        left = peak - _within(x[peak - 1 :: -1], top)
        right = peak + _within(x[peak + 1 :], top)
        out[j] = top - max(x[left : peak + 1].min(), x[peak : right + 1].min())
    return out


def find_peaks(
    x: np.ndarray, distance: float | None = None, prominence: float | None = None
) -> np.ndarray:
    """Indices of the peaks of ``x`` that satisfy both conditions."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigurationError("expected a 1-D signal")
    if distance is not None and distance < 1:
        raise ConfigurationError("distance must be >= 1")
    peaks = _local_maxima(x)
    if distance is not None:
        peaks = peaks[_keep_by_distance(peaks, x[peaks], distance)]
    if prominence is not None:
        peaks = peaks[prominence <= _prominences(x, peaks)]
    return peaks
