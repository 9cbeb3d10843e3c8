"""Signal-quality assessment of the raw tonometer output.

Before trusting a calibration, the host software should check that the
waveform actually looks like a pulse: adequate pulsatile amplitude over
the noise floor, a physiologic pulse rate, and consistent beat-to-beat
features. This module scores those, returning a report the monitor uses
to accept or reject a placement/hold-down operating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, SignalQualityError
from .features import find_beats, lowpass_cardiac


@dataclass(frozen=True)
class SignalQualityReport:
    """Quality metrics for one raw record."""

    pulse_amplitude_raw: float
    noise_rms_raw: float
    snr_db: float
    pulse_rate_bpm: float
    beat_regularity: float  # 1 - CV of RR intervals, clipped to [0, 1]
    n_beats: int

    @property
    def acceptable(self) -> bool:
        """Conservative accept rule: >= 10 dB SNR, plausible rate,
        reasonably regular rhythm."""
        return (
            self.snr_db >= 10.0
            and 30.0 <= self.pulse_rate_bpm <= 220.0
            and self.beat_regularity >= 0.5
            and self.n_beats >= 3
        )

    def describe(self) -> str:
        verdict = "OK" if self.acceptable else "POOR"
        return (
            f"quality {verdict}: SNR {self.snr_db:.1f} dB, "
            f"rate {self.pulse_rate_bpm:.0f} bpm, "
            f"regularity {self.beat_regularity:.2f}, "
            f"{self.n_beats} beats"
        )


def assess_quality(
    samples: np.ndarray,
    sample_rate_hz: float,
    expected_rate_bpm: float = 70.0,
) -> SignalQualityReport:
    """Score a raw record; raises only on malformed input.

    A record with no detectable beats returns a report with
    ``n_beats = 0`` and ``acceptable = False`` rather than raising, so
    scanning code can compare candidate operating points uniformly.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 32:
        raise ConfigurationError("need a 1-D record of at least 32 samples")

    cardiac = lowpass_cardiac(x, sample_rate_hz)
    residual = x - cardiac
    noise_rms = float(np.sqrt(np.mean(residual**2)))

    try:
        features = find_beats(
            cardiac, sample_rate_hz, expected_rate_bpm=expected_rate_bpm
        )
    except SignalQualityError:
        return SignalQualityReport(
            pulse_amplitude_raw=float(cardiac.max() - cardiac.min()),
            noise_rms_raw=noise_rms,
            snr_db=-np.inf if noise_rms > 0 else 0.0,
            pulse_rate_bpm=0.0,
            beat_regularity=0.0,
            n_beats=0,
        )

    amplitude = features.pulse_pressure_raw
    snr_db = (
        20.0 * np.log10(amplitude / noise_rms) if noise_rms > 0 else np.inf
    )
    rate = features.pulse_rate_bpm() if features.n_beats >= 2 else 0.0
    rr = np.diff(features.peak_times_s)
    if rr.size >= 2 and rr.mean() > 0:
        regularity = float(np.clip(1.0 - rr.std() / rr.mean(), 0.0, 1.0))
    else:
        regularity = 0.0
    return SignalQualityReport(
        pulse_amplitude_raw=float(amplitude),
        noise_rms_raw=noise_rms,
        snr_db=float(snr_db),
        pulse_rate_bpm=float(rate),
        beat_regularity=regularity,
        n_beats=int(features.n_beats),
    )
