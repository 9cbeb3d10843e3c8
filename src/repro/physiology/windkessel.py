"""Two-element Windkessel arterial model — the mechanistic alternative.

Where :class:`~repro.physiology.pulse.RadialPulseTemplate` is
phenomenological, the Windkessel derives the pressure waveform from
physiology: aortic inflow Q(t) charges the arterial compliance C, which
discharges through the peripheral resistance R:

    C dP/dt = Q(t) - P / R.

Integrated with the exact exponential update per step (the equation is
linear), it produces the characteristic fast systolic rise and exponential
diastolic decay, and exposes R and C as experiment knobs (e.g. stiffening
the artery raises pulse pressure — an ablation the benchmark suite runs).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..params import PASCAL_PER_MMHG
from .heart import BeatSchedule


class WindkesselModel:
    """2-element Windkessel with a half-sine systolic ejection inflow.

    Parameters
    ----------
    resistance_mmhg_s_per_ml:
        Total peripheral resistance R (clinical units). ~1.0 for an adult.
    compliance_ml_per_mmhg:
        Arterial compliance C. ~1.3 ml/mmHg typical.
    ejection_fraction_of_beat:
        Fraction of the RR interval during which the heart ejects
        (systole), ~0.3.
    """

    #: Volume ejected per beat [ml].
    STROKE_VOLUME_ML = 85.0

    def __init__(
        self,
        resistance_mmhg_s_per_ml: float = 1.05,
        compliance_ml_per_mmhg: float = 1.3,
        ejection_fraction_of_beat: float = 0.3,
    ):
        if resistance_mmhg_s_per_ml <= 0 or compliance_ml_per_mmhg <= 0:
            raise ConfigurationError("R and C must be positive")
        if not 0.05 < ejection_fraction_of_beat < 0.9:
            raise ConfigurationError("ejection fraction must be in (0.05, 0.9)")
        self.resistance = float(resistance_mmhg_s_per_ml)
        self.compliance = float(compliance_ml_per_mmhg)
        self.ejection_fraction = float(ejection_fraction_of_beat)

    @property
    def time_constant_s(self) -> float:
        """Diastolic decay constant tau = R * C."""
        return self.resistance * self.compliance

    def inflow_ml_per_s(
        self, times_s: np.ndarray, schedule: BeatSchedule
    ) -> np.ndarray:
        """Half-sine ejection profile, per beat, integrating to the stroke
        volume."""
        t = np.asarray(times_s, dtype=float)
        idx, phase = schedule.beat_phase(t)
        rr = schedule.rr_intervals_s()[idx]
        ejection = self.ejection_fraction
        # Half sine over [0, ejection); integral of sin over the lobe is
        # 2/pi * duration, so scale for the stroke volume.
        active = phase < ejection
        peak_flow = self.STROKE_VOLUME_ML * np.pi / (2.0 * ejection * rr)
        flow = np.where(
            active,
            peak_flow * np.sin(np.pi * phase / ejection),
            0.0,
        )
        return flow

    def pressure_mmhg(
        self,
        times_s: np.ndarray,
        schedule: BeatSchedule,
        initial_pressure_mmhg: float = 80.0,
    ) -> np.ndarray:
        """Integrate the Windkessel ODE on the given (uniform) time grid.

        Uses the exact exponential update for the linear ODE with the
        inflow held constant across each step, so even coarse grids stay
        stable and unbiased.
        """
        t = np.asarray(times_s, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ConfigurationError("need a 1-D time grid of >= 2 points")
        dt = float(t[1] - t[0])
        if dt <= 0 or not np.allclose(np.diff(t), dt, rtol=1e-6):
            raise ConfigurationError("time grid must be uniform and increasing")
        q = self.inflow_ml_per_s(t, schedule)
        tau = self.time_constant_s
        decay = np.exp(-dt / tau)
        gain = self.resistance * (1.0 - decay)
        p = np.empty_like(t)
        p[0] = initial_pressure_mmhg
        current = initial_pressure_mmhg
        for i in range(1, t.size):
            current = current * decay + gain * q[i - 1]
            p[i] = current
        return p

    def pressure_pa(
        self,
        times_s: np.ndarray,
        schedule: BeatSchedule,
        initial_pressure_mmhg: float = 80.0,
    ) -> np.ndarray:
        """Same as :meth:`pressure_mmhg` in pascals."""
        return (
            self.pressure_mmhg(times_s, schedule, initial_pressure_mmhg)
            * PASCAL_PER_MMHG
        )

    def steady_state_map_mmhg(self, heart_rate_bpm: float) -> float:
        """Mean pressure at steady state: R * (SV * HR) (Ohm's law)."""
        if heart_rate_bpm <= 0:
            raise ConfigurationError("heart rate must be positive")
        cardiac_output_ml_per_s = self.STROKE_VOLUME_ML * heart_rate_bpm / 60.0
        return self.resistance * cardiac_output_ml_per_s
