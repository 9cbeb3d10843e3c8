"""Beat detection and systolic/diastolic feature extraction.

Works on the raw (uncalibrated) tonometer output: low-pass the record to
the cardiac band, find systolic peaks with a physiologic refractory
constraint, locate each beat's diastolic foot as the minimum between
consecutive peaks, and report per-beat features plus pulse rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.extrema import find_peaks
from ..dsp.iir import butter, sosfiltfilt
from ..errors import ConfigurationError, SignalQualityError


@dataclass(frozen=True)
class BeatFeatures:
    """Per-beat features of a pressure-like waveform (raw units)."""

    peak_times_s: np.ndarray  # systolic peak instants
    systolic_raw: np.ndarray  # waveform value at each peak
    foot_times_s: np.ndarray  # diastolic foot instants (one per beat)
    diastolic_raw: np.ndarray  # waveform value at each foot

    @property
    def n_beats(self) -> int:
        return self.peak_times_s.size

    @property
    def mean_systolic_raw(self) -> float:
        return float(self.systolic_raw.mean())

    @property
    def mean_diastolic_raw(self) -> float:
        return float(self.diastolic_raw.mean())

    @property
    def pulse_pressure_raw(self) -> float:
        return self.mean_systolic_raw - self.mean_diastolic_raw

    def pulse_rate_bpm(self) -> float:
        if self.n_beats < 2:
            raise SignalQualityError("need >= 2 beats for a pulse rate")
        intervals = np.diff(self.peak_times_s)
        return 60.0 / float(np.median(intervals))


#: Cardiac-band edge: 25 Hz retains every clinically relevant pulse
#: feature (dicrotic notch included) while suppressing converter
#: quantization noise — the averaging that buys back sub-LSB resolution
#: from the noisy 12-bit codes.
CARDIAC_CUTOFF_HZ = 25.0


def lowpass_cardiac(samples: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Zero-phase 4th-order low-pass at :data:`CARDIAC_CUTOFF_HZ`."""
    if not sample_rate_hz > 2.0 * CARDIAC_CUTOFF_HZ:
        raise ConfigurationError(
            "sample rate must exceed twice the cardiac cutoff"
        )
    sos = butter(4, CARDIAC_CUTOFF_HZ, fs=sample_rate_hz)
    return sosfiltfilt(sos, np.asarray(samples, dtype=float))


def detect_beats(
    samples: np.ndarray,
    sample_rate_hz: float,
    expected_rate_bpm: float = 70.0,
) -> BeatFeatures:
    """Find beats and extract systolic/diastolic features.

    Low-passes the record (:func:`lowpass_cardiac`) and hands the
    cardiac band to :func:`find_beats`.

    Parameters
    ----------
    samples:
        Raw waveform (uncalibrated units are fine).
    sample_rate_hz:
        Sampling rate of the record.
    expected_rate_bpm:
        Prior on the pulse rate; only sets the refractory window
        (0.5 * expected interval), so +/-40 % errors are harmless.

    Raises
    ------
    SignalQualityError
        If fewer than two plausible beats are found.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 16:
        raise ConfigurationError("need a 1-D record of at least 16 samples")
    return find_beats(
        lowpass_cardiac(x, sample_rate_hz), sample_rate_hz, expected_rate_bpm
    )


def find_beats(
    filtered: np.ndarray, sample_rate_hz: float, expected_rate_bpm: float
) -> BeatFeatures:
    """:func:`detect_beats` on a record already in the cardiac band.

    Beats are the peaks of ``filtered`` (the :func:`lowpass_cardiac`
    output) whose prominence is at least a quarter of its peak-to-peak
    span, which rejects flatlines and pure noise. Callers that keep the
    cardiac band for themselves pass it here instead of filtering twice.
    """
    if expected_rate_bpm <= 0:
        raise ConfigurationError("expected rate must be positive")
    span = float(filtered.max() - filtered.min())
    if span <= 0.0:
        raise SignalQualityError("flat record: no pulsatile signal")
    min_distance = int(0.5 * 60.0 / expected_rate_bpm * sample_rate_hz)
    peaks = find_peaks(
        filtered,
        distance=max(min_distance, 1),
        prominence=0.25 * span,
    )
    if peaks.size < 2:
        raise SignalQualityError(
            f"only {peaks.size} beat(s) detected; signal too weak or "
            "record too short"
        )

    # Diastolic foot: the minimum in the interval preceding each peak
    # (between the previous peak and this one; for the first peak, from
    # the record start).
    foot_idx = np.empty(peaks.size, dtype=int)
    for i, peak in enumerate(peaks):
        start = peaks[i - 1] if i > 0 else 0
        segment = filtered[start:peak]
        if segment.size == 0:
            foot_idx[i] = start
        else:
            foot_idx[i] = start + int(np.argmin(segment))

    times = np.arange(filtered.size) / sample_rate_hz
    return BeatFeatures(
        peak_times_s=times[peaks],
        systolic_raw=filtered[peaks],
        foot_times_s=times[foot_idx],
        diastolic_raw=filtered[foot_idx],
    )
