"""2-D pulsatile pressure imaging over the wrist (the N x N workload).

The paper scales its 2x2 array to "localizing blood vessels, buried in
tissue"; at 8x8 and beyond the scan's per-element amplitude map becomes a
genuine pressure *image* of the artery's coupling bump. This module turns
that image into quantitative estimates:

* :func:`amplitude_image` — per-element pulsatile amplitude as a
  (rows, cols) map;
* :func:`localize_artery` — the artery as a *line* (transverse position
  plus tilt), each row's Gaussian coupling profile located to sub-pixel
  accuracy by a log-parabola vertex fit and the row estimates fused by a
  weighted straight-line fit;
* :func:`fuse_elements` — amplitude-weighted (matched-filter) fusion of
  many element records into one waveform, which beats strongest-element
  selection whenever more than one element couples to the artery.

Everything here operates on plain NumPy maps/records, independent of how
they were acquired (fused kernel scan, batched scan, or analytic gains).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, SignalQualityError
from ..mems.geometry import ArrayGeometry


def amplitude_image(
    element_signals: np.ndarray,
    rows: int,
    cols: int,
    metric: str = "peak_to_peak",
) -> np.ndarray:
    """Fold per-element records into a (rows, cols) amplitude map.

    Row-major element order (the scan order): element ``(r, c)`` lands at
    ``map[r, c]``. Units follow the input records.
    """
    signals = np.asarray(element_signals, dtype=float)
    if signals.ndim != 2 or signals.shape[1] != rows * cols:
        raise ConfigurationError(
            f"expected (n_samples, {rows * cols}) signals for a "
            f"{rows}x{cols} map"
        )
    if metric == "peak_to_peak":
        amplitudes = signals.max(axis=0) - signals.min(axis=0)
    elif metric == "std":
        amplitudes = signals.std(axis=0)
    else:
        raise ConfigurationError("metric must be peak_to_peak|std")
    return amplitudes.reshape(rows, cols)


def log_parabola_vertex(
    positions_m: np.ndarray, amplitudes: np.ndarray
) -> float:
    """Sub-pixel peak of a sampled Gaussian profile.

    Fits a parabola to ln(amplitude) vs position: for a Gaussian profile
    ln(A) is exactly quadratic, so the vertex recovers the peak position
    — including peaks outside the sampled footprint, where a plain
    centroid saturates at the array edge. ln(A) is taken relative to the
    peak, so a flat profile at any amplitude fits a zero curvature
    exactly. Degenerate (flat or inverted) fits fall back to the
    strongest sample's position.
    """
    xs = np.asarray(positions_m, dtype=float)
    amp = np.asarray(amplitudes, dtype=float)
    if xs.shape != amp.shape or xs.ndim != 1 or xs.size < 1:
        raise ConfigurationError(
            "need matching 1-D positions and amplitudes"
        )
    if xs.size < 3:
        return float(xs[int(np.argmax(amp))])
    log_amp = np.log(np.clip(amp, 1e-30, None))
    coeffs = np.polyfit(xs, log_amp - log_amp.max(), 2)
    if coeffs[0] >= 0.0:
        return float(xs[int(np.argmax(amp))])
    return float(-coeffs[1] / (2.0 * coeffs[0]))


@dataclass(frozen=True)
class ArteryEstimate:
    """The artery as a line in array coordinates (x transverse, y axial).

    ``x(y) = transverse_m + tan(angle_rad) * y``: where the vessel axis
    crosses each array row. ``row_positions_m`` holds the per-row
    sub-pixel vertex estimates that fed the line fit (NaN where a row had
    no usable profile); ``n_rows_used`` how many rows survived.
    """

    transverse_m: float
    angle_rad: float
    row_positions_m: np.ndarray
    n_rows_used: int


def _log_parabola_vertices(xs: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """:func:`log_parabola_vertex` for every row of ``amps`` in one solve.

    Row r fits a parabola to ln(amps[r]) against ``xs`` over its positive
    samples, by one batched solve of the per-row 3x3 normal equations;
    rows with fewer than three positive samples return NaN. Each row's x
    is centred on its samples' mean and scaled to [-1, 1], and ln(A) is
    taken relative to the row's peak, so the normal equations stay well
    conditioned and a flat row fits a zero curvature exactly. Not
    bit-identical to ``np.polyfit``'s SVD solve: agreement with the
    per-row spec is a property test. Degenerate (flat or inverted) rows
    fall back to the strongest sample's position, as the spec does.
    """
    g = (amps > 0.0).astype(float)
    count = g.sum(axis=1)
    fit = count >= 3
    vertices = np.full(amps.shape[0], np.nan)
    if not fit.any():
        return vertices
    g, amps = g[fit], amps[fit]
    centre = g @ xs / count[fit]
    u = xs - centre[:, None]
    scale = np.abs(u * g).max(axis=1)
    u /= scale[:, None]
    log_amp = np.log(np.clip(amps, 1e-30, None))
    y = g * (log_amp - log_amp.max(axis=1, keepdims=True))
    # powers[p] = u**p on the good samples, p = 0..4.
    powers = np.empty((5,) + g.shape)
    powers[0] = g
    for p in range(1, 5):
        np.multiply(powers[p - 1], u, out=powers[p])
    sums = powers.sum(axis=2)
    moments = (powers[:3] * y).sum(axis=2)
    normal = sums[[[4, 3, 2], [3, 2, 1], [2, 1, 0]]].transpose(2, 0, 1)
    a, b, _ = np.linalg.solve(normal, moments[::-1].T[:, :, None])[:, :, 0].T
    peak = xs[np.argmax(amps, axis=1)]
    curved = a < 0.0
    vertex = centre - scale * b / np.where(curved, 2.0 * a, 1.0)
    vertices[fit] = np.where(curved, vertex, peak)
    return vertices


def localize_artery(
    amplitude_map: np.ndarray,
    geometry: ArrayGeometry,
) -> ArteryEstimate:
    """Sub-pixel artery-line estimate from a pulsatile amplitude map.

    Each array row samples the artery's Gaussian coupling profile along
    x; a log-parabola vertex fit (:func:`log_parabola_vertex`, solved for
    all rows at once) locates the per-row peak, and a weighted
    least-squares line through the row peaks (weights: each row's peak
    amplitude) gives transverse position and tilt. With fewer than two
    usable rows (a line needs two rows) the estimate degrades gracefully
    to the column-collapsed vertex at zero tilt (the 1-D estimate
    ``experiments/localization.py`` uses).
    """
    amps = np.asarray(amplitude_map, dtype=float)
    rows, cols = geometry.rows, geometry.cols
    if amps.shape != (rows, cols):
        raise ConfigurationError(
            f"amplitude map must have shape ({rows}, {cols})"
        )
    if not np.any(amps > 0.0):
        raise SignalQualityError("no pulsatile amplitude to localize")

    xs = geometry.column_x_m()
    ys = geometry.row_y_m()

    row_positions = _log_parabola_vertices(xs, amps)
    usable = np.isfinite(row_positions)
    n_used = int(np.count_nonzero(usable))

    if n_used >= 2:
        # Weighted line x = slope * y + intercept (weights: row peak
        # amplitudes), as the 2x2 normal equations in y centred on its
        # weighted mean.
        w = amps[usable].max(axis=1)
        y = ys[usable]
        x = row_positions[usable]
        sw = float(w.sum())
        y_mean = float(w @ y) / sw
        d = y - y_mean
        wd = w * d
        swd, swdd = float(wd.sum()), float(wd @ d)
        swx, swdx = float(w @ x), float(wd @ x)
        det = swdd * sw - swd * swd
        slope = (sw * swdx - swd * swx) / det
        level = (swdd * swx - swd * swdx) / det
        return ArteryEstimate(
            transverse_m=level - slope * y_mean,
            angle_rad=float(math.atan(slope)),
            row_positions_m=row_positions,
            n_rows_used=n_used,
        )
    # Graceful 1-D fallback: collapse rows, fit the column profile.
    col_amp = amps.mean(axis=0)
    x0 = _log_parabola_vertices(xs, col_amp[None, :])[0]
    if not np.isfinite(x0):
        x0 = xs[int(np.argmax(col_amp))]
    return ArteryEstimate(
        transverse_m=float(x0),
        angle_rad=0.0,
        row_positions_m=row_positions,
        n_rows_used=n_used,
    )


@dataclass(frozen=True)
class FusionResult:
    """Outcome of multi-element waveform fusion."""

    #: The fused waveform (same units and length as the input records).
    waveform: np.ndarray
    #: Per-element combining weights (zero for unused elements; sum 1).
    weights: np.ndarray
    #: Elements that contributed.
    used: np.ndarray
    #: The single strongest eligible element (the selection baseline).
    best_index: int
    #: Predicted SNR of the fusion over the best single element under
    #: independent per-element noise: ||a||_2 / max(a) >= 1.
    predicted_snr_gain: float


def fuse_elements(element_signals: np.ndarray) -> FusionResult:
    """Amplitude-weighted fusion of element records into one waveform.

    With element k seeing the pulse at coupling gain ``a_k`` plus
    independent noise, the matched combiner weights each record by its
    own peak-to-peak amplitude: ``w_k = a_k / sum(a)``. The fused SNR is then
    ``||a||_2`` vs ``max(a)`` for the paper's pick-the-strongest strategy
    — a guaranteed (Cauchy-Schwarz) gain whenever the artery couples
    into more than one element, which is exactly the placement-drift
    regime where the strongest element is about to walk off its pixel.
    """
    signals = np.asarray(element_signals, dtype=float)
    if signals.ndim != 2 or signals.shape[0] < 2:
        raise ConfigurationError(
            "expected (n_samples >= 2, n_elements) records"
        )
    amplitudes = signals.max(axis=0) - signals.min(axis=0)
    eligible = amplitudes > 0.0
    if not np.any(eligible):
        raise SignalQualityError("no eligible element to fuse")
    a_used = np.where(eligible, amplitudes, 0.0)
    weights = a_used / a_used.sum()
    waveform = signals @ weights
    best = int(np.argmax(a_used))
    gain = float(np.linalg.norm(a_used) / a_used[best])
    return FusionResult(
        waveform=waveform,
        weights=weights,
        used=eligible,
        best_index=best,
        predicted_snr_gain=gain,
    )
