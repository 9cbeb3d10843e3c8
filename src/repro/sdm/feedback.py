"""Single-bit feedback DAC with the adjustable first-stage capacitor.

The paper's outlook proposes improving resolution "by adjusting the
feedback capacitors of the first modulator stage". In a single-bit SC
loop the feedback charge is ``+/- Cfb * Vref``; shrinking Cfb relative to
the input branch raises the conversion gain (smaller capacitance change
maps to loop full scale) at the cost of overload margin. This module
models that knob plus the DAC's reference-voltage error sources.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .topology import LoopCoefficients


class FeedbackDAC:
    """Single-bit capacitive feedback DAC.

    Parameters
    ----------
    coefficients:
        Nominal loop scaling to derive the feedback gains from.
    cfb_ratio:
        Multiplier on the first-stage feedback capacitor (1.0 = nominal).
        The paper's future-work tuning range; values below ~0.5 destabilize
        the nominal loop for full-scale inputs (the ablation bench maps
        this).
    reference_error:
        Static relative error of the DAC reference levels (gain error of
        the whole converter; not noise-shaped).
    reference_noise_sigma:
        Per-sample RMS noise on the reference [Vref units]. Reference
        noise enters like input noise — un-shaped — making it one of the
        critical analog budgets.
    """

    def __init__(
        self,
        coefficients: LoopCoefficients | None = None,
        cfb_ratio: float = 1.0,
        reference_error: float = 0.0,
        reference_noise_sigma: float = 0.0,
    ):
        if cfb_ratio <= 0:
            raise ConfigurationError("feedback-capacitor ratio must be positive")
        if reference_noise_sigma < 0:
            raise ConfigurationError("reference noise must be non-negative")
        if abs(reference_error) >= 0.5:
            raise ConfigurationError("reference error must be a small fraction")
        base = coefficients or LoopCoefficients.boser_wooley()
        self.coefficients = base.with_feedback_ratio(cfb_ratio)
        self.cfb_ratio = float(cfb_ratio)
        self.reference_error = float(reference_error)
        self.reference_noise_sigma = float(reference_noise_sigma)

    @property
    def conversion_gain_boost(self) -> float:
        """Input-referred gain increase relative to the nominal Cfb.

        Halving Cfb doubles how much loop input a given capacitance
        difference produces: boost = 1 / cfb_ratio.
        """
        return 1.0 / self.cfb_ratio
