"""Hold-down pressure servo: automatic applanation search.

Clinically, a tonometer is useless until the hold-down pressure sits
near the top of the inverted-U transmission curve — the paper's authors
did this by hand ("attached to a test person's wrist"); a wearable must
do it automatically. The servo sweeps a coarse ramp of hold-down
pressures, recording the pulsatile amplitude at each (via any callable
measurement oracle), to find the hill, then refines the peak by a
golden-section search between the neighbours of the best ramp point.

The measurement oracle abstracts the full chain: production code passes
a closure that runs the real readout; tests pass the contact model's
transmission curve plus noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigurationError, SignalQualityError

#: Measurement oracle: hold-down pressure [Pa] -> pulsatile amplitude.
AmplitudeOracle = Callable[[float], float]


@dataclass(frozen=True)
class ServoResult:
    """Outcome of an applanation search."""

    optimal_hold_down_pa: float
    peak_amplitude: float
    sweep_pressures_pa: np.ndarray
    sweep_amplitudes: np.ndarray
    refinement_steps: int

    def transmission_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """The recorded inverted-U (for plotting/inspection)."""
        return self.sweep_pressures_pa, self.sweep_amplitudes


class HoldDownServo:
    """Two-phase applanation pressure search.

    Parameters
    ----------
    min_pa, max_pa:
        Search range of hold-down pressures. The default span covers
        40-300 % of a normotensive MAP.
    coarse_points:
        Sweep resolution.
    refine_tolerance_pa:
        Stop refining when the bracket is narrower than this.
    min_peak_amplitude:
        Below this best amplitude the servo declares "no pulse found"
        (sensor not on the artery at any pressure).
    """

    def __init__(
        self,
        min_pa: float = 3e3,
        max_pa: float = 30e3,
        coarse_points: int = 12,
        refine_tolerance_pa: float = 300.0,
        min_peak_amplitude: float = 0.0,
    ):
        if not 0 <= min_pa < max_pa:
            raise ConfigurationError("need 0 <= min_pa < max_pa")
        if coarse_points < 4:
            raise ConfigurationError("need at least 4 sweep points")
        if refine_tolerance_pa <= 0:
            raise ConfigurationError("tolerance must be positive")
        self.min_pa = float(min_pa)
        self.max_pa = float(max_pa)
        self.coarse_points = int(coarse_points)
        self.refine_tolerance_pa = float(refine_tolerance_pa)
        self.min_peak_amplitude = float(min_peak_amplitude)

    def search(self, oracle: AmplitudeOracle) -> ServoResult:
        """Run sweep + refinement against a measurement oracle."""
        pressures = np.linspace(self.min_pa, self.max_pa, self.coarse_points)
        amplitudes = np.array([float(oracle(p)) for p in pressures])
        if not np.any(np.isfinite(amplitudes)):
            raise SignalQualityError("oracle returned no finite amplitudes")
        best = int(np.nanargmax(amplitudes))
        if amplitudes[best] <= self.min_peak_amplitude:
            raise SignalQualityError(
                "no pulsatile signal at any hold-down pressure; "
                "the sensor is probably not over the artery"
            )

        # Golden-section refinement inside the bracketing neighbours.
        lo = pressures[max(best - 1, 0)]
        hi = pressures[min(best + 1, pressures.size - 1)]
        steps = 0
        golden = 0.38196601125010515
        a, b = lo, hi
        x1 = a + golden * (b - a)
        x2 = b - golden * (b - a)
        f1, f2 = float(oracle(x1)), float(oracle(x2))
        while (b - a) > self.refine_tolerance_pa and steps < 40:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = b - golden * (b - a)
                f2 = float(oracle(x2))
            else:
                b, x2, f2 = x2, x1, f1
                x1 = a + golden * (b - a)
                f1 = float(oracle(x1))
            steps += 1
        optimum = 0.5 * (a + b)
        peak = float(oracle(optimum))
        return ServoResult(
            optimal_hold_down_pa=float(optimum),
            peak_amplitude=peak,
            sweep_pressures_pa=pressures,
            sweep_amplitudes=amplitudes,
            refinement_steps=steps,
        )
