"""Artifact detection and rejection on the raw tonometer stream.

Host-side defense against motion: flag windows whose statistics cannot be
cardiac (slew too high, amplitude off-scale, beat template mismatch) and
excise them before feature extraction. Scored against the artifact
generator's ground truth in the tests and the robustness bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.extrema import find_peaks
from ..dsp.iir import butter, sosfiltfilt
from ..errors import ConfigurationError
from .features import lowpass_cardiac


@dataclass(frozen=True)
class ArtifactReport:
    """Per-sample artifact flags plus summary statistics."""

    mask: np.ndarray  # True = contaminated
    fraction_flagged: float
    n_segments: int

    def clean(self, samples: np.ndarray) -> np.ndarray:
        """Return only the uncontaminated samples (concatenated)."""
        samples = np.asarray(samples)
        return samples[~self.mask]


class ArtifactDetector:
    """Threshold-based artifact flagging.

    Three detectors vote per sample; any vote flags it:

    1. **Slew**: |d/dt| of the fast-band (<= 45 Hz) signal beyond the
       steepest plausible systolic upstroke — pulses rise their full
       height in no less than ~60 ms, so anything slewing faster than
       ``slew_factor * pulse_scale / 60 ms`` is mechanical (taps).
    2. **Baseline excursion**: deviation of the sub-cardiac baseline
       (< 0.5 Hz) from its median beyond a fraction of the pulse
       amplitude (flexion).
    3. **Amplitude**: local raw peak-to-peak beyond a multiple of the
       pulse amplitude (anything big).

    Thresholds are expressed relative to the record's own pulse scale,
    so the detector is unit-free and needs no calibration. The slew and
    amplitude detectors use a 45 Hz "fast band": wide enough to pass
    mechanical taps (which a 25 Hz cardiac filter would hide), narrow
    enough to reject converter quantization noise at kS/s record rates.
    """

    #: Fastest plausible full-height systolic upstroke [s].
    MIN_UPSTROKE_S = 0.06
    #: Baseline-excursion and local peak-to-peak limits, in pulse scales,
    #: and the guard band added around every flagged span [s].
    BASELINE_FACTOR = 0.4
    AMPLITUDE_FACTOR = 1.5
    DILATE_S = 0.3

    def __init__(self, slew_factor: float = 1.4):
        if slew_factor <= 0:
            raise ConfigurationError("slew factor must be positive")
        self.slew_factor = float(slew_factor)

    def detect(
        self, samples: np.ndarray, sample_rate_hz: float
    ) -> ArtifactReport:
        """Flag contaminated samples in a raw record."""
        x = np.asarray(samples, dtype=float)
        if x.ndim != 1 or x.size < 64:
            raise ConfigurationError("need a 1-D record of >= 64 samples")
        cardiac = lowpass_cardiac(x, sample_rate_hz)

        # Reference scale from the (hopefully mostly clean) record.
        pulse_scale = float(
            np.percentile(cardiac, 90) - np.percentile(cardiac, 10)
        )
        if pulse_scale <= 0:
            pulse_scale = float(np.std(cardiac)) or 1.0

        # 1. Slew detector, on a "fast band" version of the signal: a
        # 45 Hz low-pass passes mechanical taps (10-50 ms wide, i.e.
        # bandwidth of a few tens of Hz) essentially intact while
        # removing converter quantization noise, whose sample-to-sample
        # LSB toggling would otherwise dominate the raw derivative at
        # kS/s record rates.
        fast_cutoff = min(45.0, 0.4 * sample_rate_hz / 2.0)
        fast = sosfiltfilt(butter(4, fast_cutoff, fs=sample_rate_hz), x)
        slew = np.abs(np.gradient(fast)) * sample_rate_hz
        slew_limit = self.slew_factor * pulse_scale / self.MIN_UPSTROKE_S
        mask = slew > slew_limit

        # 2. Baseline-excursion detector (< 0.5 Hz band, flexion).
        baseline = sosfiltfilt(butter(2, 0.5, fs=sample_rate_hz), x)
        excursion = np.abs(baseline - np.median(baseline))
        mask |= excursion > self.BASELINE_FACTOR * pulse_scale

        # 3. Amplitude detector: rolling fast-band peak-to-peak over ~1
        # beat (fast band keeps tap amplitude, drops converter noise).
        window = max(int(0.8 * sample_rate_hz), 8)
        local_max = _rolling_extreme(fast, window, np.maximum)
        local_min = _rolling_extreme(fast, window, np.minimum)
        p2p = local_max - local_min
        mask |= p2p > self.AMPLITUDE_FACTOR * pulse_scale

        # 4. Rhythm detector: a tap landing mid-diastole fakes an extra
        # systolic peak — invisible to slew/amplitude (it looks like a
        # beat) but it breaks the RR rhythm. Find all prominent peaks
        # WITHOUT a refractory window and flag any that crowd their
        # neighbours closer than 60 % of the median interval.
        peaks = find_peaks(cardiac, prominence=0.4 * pulse_scale)
        if peaks.size >= 4:
            intervals = np.diff(peaks)
            median_rr = float(np.median(intervals))
            crowded = np.zeros(peaks.size, dtype=bool)
            crowded[:-1] |= intervals < 0.6 * median_rr
            crowded[1:] |= intervals < 0.6 * median_rr
            half = int(0.25 * sample_rate_hz)
            for peak in peaks[crowded]:
                mask[max(peak - half, 0) : peak + half] = True

        # Dilate flags so event edges are covered.
        n_dilate = int(self.DILATE_S * sample_rate_hz)
        if n_dilate > 0 and mask.any():
            kernel = np.ones(2 * n_dilate + 1)
            mask = np.convolve(mask.astype(float), kernel, mode="same") > 0

        segments = int(np.sum(np.diff(mask.astype(int)) == 1)) + int(mask[0])
        return ArtifactReport(
            mask=mask,
            fraction_flagged=float(mask.mean()),
            n_segments=segments,
        )


def _rolling_extreme(x: np.ndarray, window: int, op) -> np.ndarray:
    """Cheap rolling max/min via strided comparison in log2 steps."""
    out = x.copy()
    shift = 1
    while shift < window:
        shifted = np.empty_like(out)
        shifted[:shift] = out[:shift]
        shifted[shift:] = out[:-shift]
        out = op(out, shifted)
        shift *= 2
    return out


def score_against_truth(
    report: ArtifactReport, truth_mask: np.ndarray
) -> tuple[float, float]:
    """(sensitivity, specificity) of the detector vs ground truth."""
    truth = np.asarray(truth_mask, dtype=bool)
    if truth.shape != report.mask.shape:
        raise ConfigurationError("mask shapes must match")
    tp = np.sum(report.mask & truth)
    fn = np.sum(~report.mask & truth)
    tn = np.sum(~report.mask & ~truth)
    fp = np.sum(report.mask & ~truth)
    sensitivity = tp / (tp + fn) if (tp + fn) else 1.0
    specificity = tn / (tn + fp) if (tn + fp) else 1.0
    return float(sensitivity), float(specificity)
