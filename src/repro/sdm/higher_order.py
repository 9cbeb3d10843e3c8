"""Generic order-N single-bit CIFB loop (design-space exploration).

The paper uses order 2. To let the ablation suite answer "what would a
3rd-order loop have bought?", this module implements the cascade-of-
integrators-feedback (CIFB) structure for arbitrary order:

    x_1[n+1] = x_1[n] + a_1 u[n] - b_1 v[n]
    x_k[n+1] = x_k[n] + a_k x_{k-1}[n] - b_k v[n]      (k = 2..N)
    v[n]     = sign(x_N[n])

with the classic conservative coefficient sets that keep single-bit
loops of order 1..4 stable (scaled-down integrator gains for higher
orders, per Norsworthy/Schreier/Temes tables).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

#: Conservative (a_k = b_k) gain sets for stable single-bit CIFB loops.
STANDARD_GAINS: dict[int, tuple[float, ...]] = {
    1: (0.5,),
    2: (0.5, 0.5),
    3: (0.2, 0.5, 0.5),
    4: (0.1, 0.3, 0.5, 0.5),
}


@dataclass(frozen=True)
class HigherOrderOutput:
    bitstream: np.ndarray
    clipped_samples: int


class HigherOrderSDM:
    """Single-bit CIFB modulator of order 1..4.

    Parameters
    ----------
    order:
        Loop order (paper: 2).
    gains:
        Per-stage gains a_k (= feedback b_k); defaults to the
        conservative :data:`STANDARD_GAINS` entry.
    """

    def __init__(
        self,
        order: int = 3,
        gains: tuple[float, ...] | None = None,
    ):
        if order not in STANDARD_GAINS:
            raise ConfigurationError(
                f"order must be one of {sorted(STANDARD_GAINS)}"
            )
        self.order = int(order)
        self.gains = tuple(gains) if gains is not None else STANDARD_GAINS[order]
        if len(self.gains) != self.order:
            raise ConfigurationError("need one gain per stage")
        if any(g <= 0 for g in self.gains):
            raise ConfigurationError("gains must be positive")
        self.reset()

    def reset(self) -> None:
        self._state = np.zeros(self.order)

    @property
    def input_full_scale(self) -> float:
        """DC representability bound b_1 / a_1 (= 1 for a_k = b_k)."""
        return 1.0

    @property
    def recommended_max_amplitude(self) -> float:
        """Stable sine amplitude shrinks with order (empirical ~0.8,
        0.75, 0.5, 0.25 for orders 1..4 with the standard gains)."""
        return {1: 0.8, 2: 0.75, 3: 0.5, 4: 0.25}[self.order]

    def simulate(self, loop_input: np.ndarray) -> HigherOrderOutput:
        """Run the loop (streaming: state persists across calls)."""
        u = np.asarray(loop_input, dtype=float)
        if u.ndim != 1:
            raise ConfigurationError("loop input must be 1-D")
        n = u.size
        bits = np.empty(n, dtype=np.int8)
        state = self._state.copy()
        gains = self.gains
        order = self.order
        swing = 3.0  # integrator saturation (Vref-normalized units)
        clipped = 0
        for i in range(n):
            v = 1.0 if state[-1] >= 0.0 else -1.0
            bits[i] = 1 if v > 0 else -1
            prev = state.copy()
            new0 = state[0] + gains[0] * (u[i] - v)
            state[0] = min(max(new0, -swing), swing)
            if new0 != state[0]:
                clipped += 1
            for k in range(1, order):
                newk = state[k] + gains[k] * (prev[k - 1] - v)
                clipped += newk > swing or newk < -swing
                state[k] = min(max(newk, -swing), swing)
        self._state = state
        return HigherOrderOutput(bitstream=bits, clipped_samples=int(clipped))
