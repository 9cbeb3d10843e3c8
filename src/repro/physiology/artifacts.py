"""Motion artifacts: what actually limits wearable tonometry.

The paper's outlook calls for field tests of "reliability and stability"
— in practice dominated by motion: wrist flexion shifts the baseline,
taps and knocks inject transients, strap creep slowly changes the
hold-down. This module synthesizes those disturbances as an additive
pressure-equivalent signal with per-event ground truth, so the artifact
*rejection* stage can be scored exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..params import PASCAL_PER_MMHG


@dataclass(frozen=True)
class ArtifactEvent:
    """Ground truth for one injected artifact."""

    kind: str  # "tap" | "flexion" | "creep"
    start_s: float
    duration_s: float
    peak_mmhg: float


@dataclass(frozen=True)
class ArtifactRecord:
    """Synthesized artifact signal plus its event list."""

    times_s: np.ndarray
    pressure_mmhg: np.ndarray
    events: tuple[ArtifactEvent, ...]

    @property
    def pressure_pa(self) -> np.ndarray:
        return self.pressure_mmhg * PASCAL_PER_MMHG

    def contaminated_mask(self, guard_s: float = 0.25) -> np.ndarray:
        """Boolean mask of samples inside any event (plus guard band)."""
        mask = np.zeros(self.times_s.size, dtype=bool)
        for event in self.events:
            lo = event.start_s - guard_s
            hi = event.start_s + event.duration_s + guard_s
            mask |= (self.times_s >= lo) & (self.times_s <= hi)
        return mask


class MotionArtifactGenerator:
    """Synthesizes tap, flexion and strap-creep disturbances.

    Parameters
    ----------
    tap_rate_per_min:
        Mean Poisson rate of short, sharp knock transients.
    flexion_rate_per_min:
        Mean rate of slower wrist-flexion baseline excursions.
    creep_mmhg_per_min:
        Deterministic slow strap-creep drift rate.
    """

    #: Typical peak magnitudes of taps and flexions (randomized ±50 %).
    TAP_PEAK_MMHG = 30.0
    FLEXION_PEAK_MMHG = 15.0

    def __init__(
        self,
        tap_rate_per_min: float = 2.0,
        flexion_rate_per_min: float = 1.0,
        creep_mmhg_per_min: float = 1.0,
    ):
        for name, value in [
            ("tap rate", tap_rate_per_min),
            ("flexion rate", flexion_rate_per_min),
        ]:
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        self.tap_rate = float(tap_rate_per_min)
        self.flexion_rate = float(flexion_rate_per_min)
        self.creep_rate = float(creep_mmhg_per_min)

    def generate(
        self,
        duration_s: float,
        sample_rate_hz: float,
        rng: np.random.Generator | None = None,
    ) -> ArtifactRecord:
        """Synthesize an artifact record with ground-truth events."""
        if duration_s <= 0 or sample_rate_hz <= 0:
            raise ConfigurationError("duration and rate must be positive")
        rng = rng or np.random.default_rng(606)
        n = int(round(duration_s * sample_rate_hz))
        t = np.arange(n) / sample_rate_hz
        signal = np.zeros(n)
        events: list[ArtifactEvent] = []

        def add_events(rate_per_min, kind, peak, dur_range):
            expected = rate_per_min * duration_s / 60.0
            count = rng.poisson(expected)
            for _ in range(count):
                start = float(rng.uniform(0.0, duration_s))
                duration = float(rng.uniform(*dur_range))
                magnitude = float(peak * rng.uniform(0.5, 1.5))
                sign = 1.0 if rng.random() < 0.7 else -1.0
                events.append(
                    ArtifactEvent(kind, start, duration, sign * magnitude)
                )

        add_events(self.tap_rate, "tap", self.TAP_PEAK_MMHG, (0.05, 0.2))
        add_events(
            self.flexion_rate, "flexion", self.FLEXION_PEAK_MMHG, (1.0, 4.0)
        )

        for event in events:
            center = event.start_s + event.duration_s / 2.0
            width = event.duration_s / 4.0
            signal += event.peak_mmhg * np.exp(
                -((t - center) ** 2) / (2.0 * width**2)
            )
        # Strap creep: slow monotone drift (not an "event": always on).
        signal += self.creep_rate * (t / 60.0)
        return ArtifactRecord(
            times_s=t, pressure_mmhg=signal, events=tuple(events)
        )
