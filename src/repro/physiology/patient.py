"""The virtual patient: ground-truth arterial pressure on demand.

Composes the beat scheduler, the pulse template and the respiration
model into a single façade producing the intra-arterial pressure
waveform at any sampling rate — with the per-beat ground-truth
systolic/diastolic values that the fabricated sensor of the paper could
only approximate with a cuff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..params import PASCAL_PER_MMHG, PatientParams
from .heart import BeatSchedule, BeatScheduler
from .pulse import RadialPulseTemplate
from .respiration import RespirationModel


@dataclass(frozen=True)
class PatientRecording:
    """A generated ground-truth pressure record."""

    times_s: np.ndarray
    pressure_mmhg: np.ndarray
    schedule: BeatSchedule
    #: Per-beat ground truth: (onset time, systolic, diastolic) rows.
    beat_truth: np.ndarray

    @property
    def pressure_pa(self) -> np.ndarray:
        return self.pressure_mmhg * PASCAL_PER_MMHG

    def interp_pressure_pa(self, times_s: np.ndarray) -> np.ndarray:
        """Pressure [Pa] resampled onto an arbitrary time grid.

        The record lives at the physiology rate (the waveform is below
        ~25 Hz); resampling windows of it on demand is what lets the
        streaming acquisition path synthesize the modulator-rate field
        chunk-by-chunk instead of materializing minutes of 128 kHz data.
        """
        return np.interp(
            np.asarray(times_s, dtype=float), self.times_s, self.pressure_pa
        )

    @property
    def systolic_mmhg(self) -> float:
        """Record-average systolic value."""
        return float(self.beat_truth[:, 1].mean())

    @property
    def diastolic_mmhg(self) -> float:
        """Record-average diastolic value."""
        return float(self.beat_truth[:, 2].mean())


class VirtualPatient:
    """Ground-truth hemodynamics generator.

    Parameters
    ----------
    params:
        Target systole/diastole, heart rate, variability, respiration.
    template:
        Pulse-shape override (default: radial template), phase-locked to
        the beat schedule so the record hits the sys/dia targets exactly.
    rng:
        Randomness source for HRV; fixed default for reproducibility.
    """

    def __init__(
        self,
        params: PatientParams | None = None,
        template: RadialPulseTemplate | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.params = params or PatientParams()
        self.template = template or RadialPulseTemplate()
        self.rng = rng or np.random.default_rng(113)
        self.scheduler = BeatScheduler(
            heart_rate_bpm=self.params.heart_rate_bpm,
            hrv_rms_fraction=self.params.hrv_rms_fraction,
            respiration_rate_bpm=self.params.respiration_rate_bpm,
        )
        self.respiration = RespirationModel(
            rate_bpm=self.params.respiration_rate_bpm,
            depth_mmhg=self.params.respiration_depth_mmhg,
        )

    def record(
        self,
        duration_s: float,
        sample_rate_hz: float,
        pressure_trend_mmhg=None,
    ) -> PatientRecording:
        """Generate a pressure record.

        Parameters
        ----------
        duration_s:
            Record length.
        sample_rate_hz:
            Output grid rate (the chain simulation uses the modulator
            clock; analyses typically use 1 kHz).
        pressure_trend_mmhg:
            Optional callable ``trend(times) -> delta_mmHg`` adding a slow
            trend to both systole and diastole — used by the baseline-
            comparison experiment to create a hypertensive transient.
        """
        if duration_s <= 0 or sample_rate_hz <= 0:
            raise ConfigurationError("duration and rate must be positive")
        n = int(round(duration_s * sample_rate_hz))
        times = np.arange(n) / sample_rate_hz
        schedule = self.scheduler.generate(duration_s, rng=self.rng)

        dia = self.params.diastolic_mmhg
        pp = self.params.pulse_pressure_mmhg
        resp = self.respiration.modulation_mmhg(times, rng=self.rng)
        trend = (
            np.asarray(pressure_trend_mmhg(times), dtype=float)
            if pressure_trend_mmhg is not None
            else np.zeros_like(times)
        )

        _, phase = schedule.beat_phase(times)
        wave = self.template.evaluate(phase)
        pressure = dia + pp * wave + resp + trend

        # Ground truth per beat: evaluate the synthesized curve's extrema
        # within each complete beat falling inside the record.
        onsets = schedule.onset_times_s
        rows = []
        for k in range(onsets.size - 1):
            start, stop = onsets[k], onsets[k + 1]
            if stop > times[-1]:
                break
            mask = (times >= start) & (times < stop)
            if mask.sum() < 3:
                continue
            seg = pressure[mask]
            rows.append((start, float(seg.max()), float(seg.min())))
        if not rows:
            raise ConfigurationError(
                "record too short to contain a complete beat"
            )
        return PatientRecording(
            times_s=times,
            pressure_mmhg=pressure,
            schedule=schedule,
            beat_truth=np.array(rows),
        )
