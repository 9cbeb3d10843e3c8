"""Beat timing: heart rate, beat-to-beat variability, sinus arrhythmia.

Generates the sequence of beat onset times that drives every waveform
generator. Two variability mechanisms are modelled:

* uncorrelated RR jitter (a Gaussian fraction of the mean interval), and
* respiratory sinus arrhythmia — RR intervals shorten during inspiration,
  phase-locked to the respiration model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class BeatSchedule:
    """The generated beat train."""

    onset_times_s: np.ndarray  # beat k starts at onset_times_s[k]

    @property
    def n_beats(self) -> int:
        return self.onset_times_s.size - 1  # last onset only closes a beat

    def rr_intervals_s(self) -> np.ndarray:
        return np.diff(self.onset_times_s)

    def beat_phase(self, times_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(beat index, phase in [0,1)) for each query time.

        Times before the first onset clamp to phase 0 of beat 0; times
        after the last onset clamp to the final beat.
        """
        t = np.asarray(times_s, dtype=float)
        onsets = self.onset_times_s
        idx = np.clip(
            np.searchsorted(onsets, t, side="right") - 1, 0, onsets.size - 2
        )
        rr = onsets[idx + 1] - onsets[idx]
        phase = np.clip((t - onsets[idx]) / rr, 0.0, 1.0 - 1e-12)
        return idx, phase


class BeatScheduler:
    """Draws beat onset trains with HRV and sinus arrhythmia.

    Parameters
    ----------
    heart_rate_bpm:
        Mean rate.
    hrv_rms_fraction:
        RMS of the uncorrelated RR jitter as a fraction of the mean RR.
    rsa_fraction:
        Peak RR modulation by respiration (fractional); 0 disables.
    respiration_rate_bpm:
        Rate of the sinus-arrhythmia modulation.
    """

    def __init__(
        self,
        heart_rate_bpm: float = 70.0,
        hrv_rms_fraction: float = 0.03,
        rsa_fraction: float = 0.02,
        respiration_rate_bpm: float = 15.0,
    ):
        if heart_rate_bpm <= 0:
            raise ConfigurationError("heart rate must be positive")
        if hrv_rms_fraction < 0 or rsa_fraction < 0:
            raise ConfigurationError("variability fractions must be >= 0")
        if respiration_rate_bpm < 0:
            raise ConfigurationError("respiration rate must be >= 0")
        self.heart_rate_bpm = float(heart_rate_bpm)
        self.hrv_rms_fraction = float(hrv_rms_fraction)
        self.rsa_fraction = float(rsa_fraction)
        self.respiration_rate_bpm = float(respiration_rate_bpm)

    @property
    def mean_rr_s(self) -> float:
        return 60.0 / self.heart_rate_bpm

    def generate(
        self,
        duration_s: float,
        rng: np.random.Generator | None = None,
        start_time_s: float = 0.0,
    ) -> BeatSchedule:
        """Generate onsets covering at least ``duration_s`` seconds."""
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        rng = rng or np.random.default_rng(7)
        mean_rr = self.mean_rr_s
        resp_hz = self.respiration_rate_bpm / 60.0
        onsets = [start_time_s]
        t = start_time_s
        # One extra beat past the end so every query time has a closing
        # onset.
        while t < start_time_s + duration_s + 2.0 * mean_rr:
            rr = mean_rr * (
                1.0
                + self.hrv_rms_fraction * rng.standard_normal()
                + self.rsa_fraction * np.sin(2.0 * np.pi * resp_hz * t)
            )
            rr = max(rr, 0.3 * mean_rr)  # physiologic floor
            t += rr
            onsets.append(t)
        return BeatSchedule(onset_times_s=np.array(onsets))
