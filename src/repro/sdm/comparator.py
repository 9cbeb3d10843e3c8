"""Single-bit quantizer (latched comparator) behavioural model.

The comparator closes the loop in Fig. 6. Inside a high-loop-gain
sigma-delta its imperfections are strongly noise-shaped, but they are
modelled anyway so ablation studies can show *why* they barely matter:

* input-referred offset — shifts the decision threshold (shaped away),
* hysteresis — the previous decision biases the threshold.
"""

from __future__ import annotations

from ..errors import ConfigurationError


class Comparator:
    """Latched single-bit comparator with offset and hysteresis.

    Parameters
    ----------
    offset_v:
        Static input-referred offset [same units as the loop state].
    hysteresis_v:
        The threshold moves by ``-hysteresis_v/2 * previous_decision``:
        a comparator that last output +1 needs the input to fall below
        ``offset - hyst/2`` to flip.
    """

    def __init__(self, offset_v: float = 0.0, hysteresis_v: float = 0.0):
        if hysteresis_v < 0:
            raise ConfigurationError("hysteresis must be non-negative")
        self.offset_v = float(offset_v)
        self.hysteresis_v = float(hysteresis_v)
        self._previous = 1

    def reset(self) -> None:
        self._previous = 1

    @property
    def previous_decision(self) -> int:
        return self._previous

    def decide(self, value: float) -> int:
        """Quantize one loop-state sample to +/-1."""
        threshold = self.offset_v - 0.5 * self.hysteresis_v * self._previous
        decision = 1 if value - threshold >= 0.0 else -1
        self._previous = decision
        return decision

    def is_ideal(self) -> bool:
        """True when every non-ideality is disabled (fast-path check)."""
        return self.offset_v == 0.0 and self.hysteresis_v == 0.0
