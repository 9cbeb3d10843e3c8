"""Loop-filter coefficients of the second-order modulator.

The modulator follows the Boser-Wooley arrangement (two delaying SC
integrators, single-bit feedback to both stages), which Fig. 6 of the
paper draws: the sensor/reference branch feeds the first stage whose
output feeds the second, and the comparator decision switches the
reference polarity back into both.

Difference equations (all quantities normalized to Vref):

    x1[n+1] = p1 * x1[n] + a1 * (u[n] - v[n])
    x2[n+1] = p2 * x2[n] + a2 * (x1[n] - v[n])
    v[n]    = sign(x2[n])

with leak factors p = 1 at infinite op-amp gain. The classic 0.5/0.5
scaling keeps the single-bit loop stable for inputs up to roughly 0.8 of
the feedback reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class LoopCoefficients:
    """Normalized charge-transfer gains of the two integrator stages.

    ``a1``/``a2`` are the signal gains (Cin/Cint); ``b1``/``b2`` the
    feedback-DAC gains (Cfb/Cint). In the paper's circuit the input and
    feedback branches of each stage share the integration capacitor, and
    the nominal design uses b = a; the first-stage feedback ``b1`` is the
    adjustable knob the paper's outlook proposes for resolution tuning.
    """

    a1: float = 0.5
    a2: float = 0.5
    b1: float = 0.5
    b2: float = 0.5

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "b1", "b2"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"coefficient {name} must be positive")

    @classmethod
    def boser_wooley(cls) -> "LoopCoefficients":
        """The textbook 0.5/0.5 scaling used as the paper-default loop."""
        return cls(a1=0.5, a2=0.5, b1=0.5, b2=0.5)

    def with_feedback_ratio(self, ratio: float) -> "LoopCoefficients":
        """Scale the first-stage feedback gain (paper future-work knob).

        ``ratio`` multiplies ``b1``; ratios below 1 raise the effective
        input gain (input full scale shrinks to ``b1``), trading overload
        margin for resolution.
        """
        if ratio <= 0:
            raise ConfigurationError("feedback ratio must be positive")
        if ratio == 1.0:
            # Frozen dataclass: safe to share, and it keeps a DAC built
            # from caller-supplied coefficients aliased to them.
            return self
        return LoopCoefficients(
            a1=self.a1, a2=self.a2, b1=self.b1 * ratio, b2=self.b2
        )

    @property
    def input_full_scale(self) -> float:
        """Input level (in Vref units) at which the loop mean saturates.

        A single-bit loop cannot represent a DC beyond the first-stage
        feedback strength: |u| < b1 is the hard limit; practical stable
        amplitude is ~0.75 of it.
        """
        return self.b1 / self.a1
