"""Pulse-waveform morphology metrics.

Once a continuous calibrated waveform exists (the paper's deliverable),
clinically meaningful morphology indices come almost for free — the
motivating payoff of tonometry over the cuff. Implemented here:

* per-beat **ensemble average** (noise-free template of the subject's
  pulse),
* **augmentation index** (AIx): relative height of the reflected-wave
  shoulder, the standard arterial-stiffness surrogate,
* **dicrotic notch** timing and depth,
* **upstroke time** (foot to systolic peak), and dP/dt max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.extrema import relative_maxima
from ..errors import ConfigurationError, SignalQualityError
from .features import BeatFeatures


@dataclass(frozen=True)
class MorphologyReport:
    """Ensemble-averaged beat shape and derived indices."""

    ensemble_phase: np.ndarray  # 0..1
    ensemble_wave: np.ndarray  # same units as the input waveform
    augmentation_index: float  # (shoulder - dia) / (peak - dia), or nan
    notch_phase: float  # phase of the dicrotic notch, or nan
    notch_depth_fraction: float  # (peak - notch)/(peak - foot), or nan
    upstroke_time_s: float
    dpdt_max: float  # per second, input units


def ensemble_average_beat(
    waveform: np.ndarray,
    sample_rate_hz: float,
    features: BeatFeatures,
    exclude_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Average all complete beats onto a common phase grid.

    Beats are delimited foot-to-foot; each is resampled to 200 phase
    points and the pointwise median taken (robust to the odd corrupted
    beat). With ``exclude_mask`` (e.g. from
    :class:`~repro.calibration.artifacts.ArtifactDetector`), beats that
    overlap any flagged sample are dropped entirely — the right way to
    combine artifact rejection with morphology analysis, since patched
    samples would distort the template.
    """
    if features.n_beats < 3:
        raise SignalQualityError("need >= 3 beats for an ensemble")
    x = np.asarray(waveform, dtype=float)
    if exclude_mask is not None:
        exclude = np.asarray(exclude_mask, dtype=bool)
        if exclude.shape != x.shape:
            raise ConfigurationError("exclude mask must match the waveform")
    else:
        exclude = None
    feet = (features.foot_times_s * sample_rate_hz).astype(int)
    phase = np.linspace(0.0, 1.0, 200, endpoint=False)
    beats = []
    for start, stop in zip(feet[:-1], feet[1:]):
        if stop - start < 8 or stop > x.size:
            continue
        if exclude is not None and exclude[start:stop].any():
            continue
        seg = x[start:stop]
        resampled = np.interp(
            phase * (seg.size - 1), np.arange(seg.size), seg
        )
        beats.append(resampled)
    if len(beats) < 3:
        raise SignalQualityError("too few clean beats for an ensemble")
    return phase, np.median(np.array(beats), axis=0)


def analyze_morphology(
    waveform: np.ndarray,
    sample_rate_hz: float,
    features: BeatFeatures,
    exclude_mask: np.ndarray | None = None,
) -> MorphologyReport:
    """Compute the morphology report from a calibrated (or raw) record."""
    if sample_rate_hz <= 0:
        raise ConfigurationError("sample rate must be positive")
    phase, wave = ensemble_average_beat(
        waveform, sample_rate_hz, features, exclude_mask=exclude_mask
    )

    peak_idx = int(np.argmax(wave))
    foot_level = float(wave[0])
    peak_level = float(wave[peak_idx])
    height = peak_level - foot_level
    if height <= 0:
        raise SignalQualityError("degenerate ensemble (no pulse)")

    # Mean beat duration for phase->time conversion.
    beat_s = float(np.mean(np.diff(features.foot_times_s)))
    upstroke_time = phase[peak_idx] * beat_s

    dpdt = np.gradient(wave, phase * beat_s)
    dpdt_max = float(np.max(dpdt))

    # Dicrotic notch: the point on the decay limb where the fall stalls
    # most — a true local minimum when the dicrotic wave rebounds, or a
    # shelf (slope magnitude collapses) when beat-length jitter smears
    # the rebound in the ensemble. Detected on the smoothed derivative:
    # the candidate is the slope maximum in (peak + 5 %, 70 %) of the
    # beat, accepted if the slope there is positive (rebound) or less
    # than half the window's median downslope (shelf).
    end = int(0.7 * wave.size)
    notch_phase = float("nan")
    notch_depth = float("nan")
    kernel = np.ones(5) / 5.0
    smooth = np.convolve(wave, kernel, mode="same")
    derivative = np.gradient(smooth)
    lo = peak_idx + max(3, int(0.05 * wave.size))
    if end - lo >= 5:
        window = derivative[lo:end]
        candidate = int(np.argmax(window)) + lo
        median_slope = float(np.median(window))  # negative on the decay
        slope = float(derivative[candidate])
        is_rebound = slope > 0.0
        is_shelf = median_slope < 0.0 and slope > 0.5 * median_slope
        if is_rebound or is_shelf:
            notch_phase = float(phase[candidate])
            notch_depth = (peak_level - float(wave[candidate])) / height

    # Augmentation index: the reflected-wave shoulder is the first local
    # maximum after the notch (late-systolic augmentation on the decay
    # limb) — or, in young-subject waveforms, an inflection before the
    # peak; we report the post-peak shoulder variant.
    aix = float("nan")
    if np.isfinite(notch_phase):
        after = smooth[int(notch_phase * wave.size) : end]
        maxima = relative_maxima(after, order=4)
        if maxima.size:
            shoulder = float(after[maxima[0]])
            aix = (shoulder - foot_level) / height

    return MorphologyReport(
        ensemble_phase=phase,
        ensemble_wave=wave,
        augmentation_index=aix,
        notch_phase=notch_phase,
        notch_depth_fraction=notch_depth,
        upstroke_time_s=float(upstroke_time),
        dpdt_max=dpdt_max,
    )
