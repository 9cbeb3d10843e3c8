"""Radial-artery pulse-shape template.

A normalized single-beat pressure waveform p(phase), phase in [0, 1),
with value 0 at the diastolic foot and 1 at the systolic peak. Built as a
sum of Gaussian lobes — the standard phenomenological model of the radial
pulse (systolic upstroke, reflected wave shoulder, dicrotic notch and
diastolic runoff) — post-processed to be exactly periodic and normalized.

The template is sampled once onto a dense grid at construction and
evaluated by linear interpolation, making waveform synthesis cheap at the
128 kS/s simulation rate.
"""

from __future__ import annotations

import numpy as np

from ..dsp.extrema import relative_maxima
from ..errors import ConfigurationError

#: (amplitude, center phase, width) of the default radial-pulse lobes:
#: systolic peak, reflected-wave shoulder, dicrotic (post-notch) wave.
DEFAULT_LOBES = (
    (1.00, 0.15, 0.070),
    (0.55, 0.28, 0.110),
    (0.34, 0.52, 0.100),
)
#: Negative lobe carving the dicrotic notch between shoulder and wave.
DEFAULT_NOTCH = (-0.09, 0.43, 0.025)


class RadialPulseTemplate:
    """Normalized periodic single-beat waveform.

    Parameters
    ----------
    lobes:
        Iterable of (amplitude, center, width) Gaussian components.
    notch:
        One extra (negative-amplitude) component for the dicrotic notch,
        or None.
    decay_rate:
        Exponential diastolic decay constant (per unit phase) applied to
        the tail so late diastole relaxes like a Windkessel discharge.
    grid_points:
        Resolution of the internal lookup table.
    """

    def __init__(
        self,
        lobes=DEFAULT_LOBES,
        notch=DEFAULT_NOTCH,
        decay_rate: float = 1.0,
        grid_points: int = 2048,
    ):
        if grid_points < 128:
            raise ConfigurationError("template grid must have >= 128 points")
        if decay_rate < 0:
            raise ConfigurationError("decay rate must be >= 0")
        lobes = tuple(lobes)
        if not lobes:
            raise ConfigurationError("need at least one pulse lobe")
        for amp, center, width in lobes:
            if width <= 0:
                raise ConfigurationError("lobe widths must be positive")
            if not 0.0 <= center <= 1.0:
                raise ConfigurationError("lobe centers must be in [0, 1]")

        phase = np.linspace(0.0, 1.0, grid_points, endpoint=False)
        wave = np.zeros_like(phase)
        components = list(lobes)
        if notch is not None:
            components.append(tuple(notch))
        for amp, center, width in components:
            wave += amp * np.exp(
                -((phase - center) ** 2) / (2.0 * width**2)
            )
        # Diastolic runoff: exponential decay over the beat.
        wave *= np.exp(-decay_rate * phase)

        # Late diastole must decay monotonically into the next beat's
        # foot (the waveform minimum sits at the onset of the upstroke,
        # as in real arterial pressure). Enforce it with a running
        # minimum from the last crest (the dicrotic wave) to the end;
        # without this, the Gaussian tails produce a small unphysical
        # late-diastolic rise that confuses foot detection downstream.
        maxima = relative_maxima(wave, order=5)
        tail_start = int(maxima[-1]) if maxima.size else int(0.6 * wave.size)
        wave[tail_start:] = np.minimum.accumulate(wave[tail_start:])

        # Normalize: diastolic foot at 0, systolic peak at 1. (The foot
        # is the last grid point; evaluation wraps periodically, and the
        # small onset step is the physiological sharp upstroke.)
        wave -= wave.min()
        peak = wave.max()
        if peak <= 0:
            raise ConfigurationError("degenerate template (flat waveform)")
        wave /= peak

        self._phase = phase
        self._wave = wave

    @property
    def systolic_phase(self) -> float:
        """Phase of the systolic peak."""
        return float(self._phase[np.argmax(self._wave)])

    @property
    def dicrotic_notch_phase(self) -> float:
        """Phase of the first local minimum after the systolic peak (the
        dicrotic notch), distinct from the end-diastolic global minimum."""
        peak_idx = int(np.argmax(self._wave))
        end = int(0.7 * self._wave.size)
        segment = self._wave[peak_idx:end]
        # First strict local minimum with a little smoothing window.
        for k in range(3, segment.size - 3):
            if segment[k] <= segment[k - 3] and segment[k] < segment[k + 3]:
                return float(self._phase[peak_idx + k])
        # Degenerate shapes (no notch): fall back to the segment minimum.
        return float(self._phase[peak_idx + int(np.argmin(segment))])

    def evaluate(self, phase: np.ndarray) -> np.ndarray:
        """Template value at arbitrary phases (wrapped mod 1)."""
        p = np.mod(np.asarray(phase, dtype=float), 1.0)
        return np.interp(
            p, self._phase, self._wave, period=1.0
        )

    def mean_value(self) -> float:
        """Beat-averaged template value: relates MAP to systole/diastole.

        For the default shape this lands near the clinical rule of thumb
        MAP ≈ diastolic + pulse-pressure/3.
        """
        return float(self._wave.mean())


def ventricular_template() -> RadialPulseTemplate:
    """Left-ventricular pressure shape, for epicardial application.

    The paper notes "an invasive application, e.g., on the beating heart
    during surgery is also possible". Ventricular pressure looks nothing
    like the radial pulse: a near-rectangular systolic plateau (isovolumic
    rise, ejection, isovolumic fall) occupying ~35 % of the beat, then
    pressure near zero through diastole — no dicrotic structure. Modeled
    as one broad plateau lobe with a small late-systolic shoulder and no
    notch.
    """
    return RadialPulseTemplate(
        lobes=(
            (1.00, 0.17, 0.090),
            (0.97, 0.29, 0.080),
        ),
        notch=None,
        decay_rate=0.5,
    )
