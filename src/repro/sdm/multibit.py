"""Multi-bit quantizer and mismatch-shaping DAC (future-work territory).

The paper's outlook asks for better resolution and faster conversion.
Besides the feedback-capacitor knob it names, the standard next step for
this architecture is a multi-bit quantizer: each added quantizer bit buys
~6 dB SQNR at the same OSR and greatly relaxes loop stability. Its cost
is DAC element mismatch, which enters *un-shaped* at the input — unless
the element selection is mismatch-shaped. This module provides:

* :class:`MultibitQuantizer` — a mid-tread flash quantizer model,
* :class:`ThermometerDAC` — unit-element DAC with per-element mismatch,
  with ``"fixed"`` (no shaping) and ``"dwa"`` (data-weighted averaging,
  rotating element pointer = first-order mismatch shaping) selection,
* :class:`MultibitSDM` — the second-order loop closed around them.

The ablation benchmark shows the textbook result: with mismatch, DWA
recovers most of the SNR that fixed element selection loses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..params import ModulatorParams
from .topology import LoopCoefficients


class MultibitQuantizer:
    """Uniform quantizer aligned to the unit-element DAC grid.

    Input full scale is +/-1 (Vref-normalized loop units). With 2^bits
    levels realized by 2^bits - 1 unit elements, the level values are
    L_k = 2k/(2^bits - 1) - 1 for k = 0..2^bits-1 — the same grid the
    thermometer DAC produces, so the digital codes mean exactly what the
    feedback realizes (no static grid-mismatch gain error).
    """

    def __init__(self, bits: int = 3):
        if not 1 <= bits <= 6:
            raise ConfigurationError("quantizer bits must be 1..6")
        self.bits = int(bits)
        self.n_levels = 2**bits

    def quantize(self, value: float) -> int:
        """Loop state -> level index (0 .. n_levels-1)."""
        scaled = (value + 1.0) / 2.0 * (self.n_levels - 1)
        return int(np.clip(round(scaled), 0, self.n_levels - 1))

    def level_value(self, index: int) -> float:
        """Nominal analog value of a level index, in [-1, 1]."""
        if not 0 <= index < self.n_levels:
            raise ConfigurationError("level index out of range")
        return 2.0 * index / (self.n_levels - 1) - 1.0

    @property
    def step(self) -> float:
        return 2.0 / (self.n_levels - 1)


class ThermometerDAC:
    """Unit-element feedback DAC with mismatch and optional DWA.

    Parameters
    ----------
    n_elements:
        Number of unit elements (= quantizer levels - 1).
    mismatch_sigma:
        1-sigma relative mismatch of the unit elements.
    selection:
        ``"fixed"`` — always use elements 0..k-1 (mismatch becomes a
        code-dependent, un-shaped error);
        ``"dwa"`` — data-weighted averaging: a rotating pointer walks
        the element ring so every element is used equally often, first-
        order shaping the mismatch error.
    """

    def __init__(
        self,
        n_elements: int,
        mismatch_sigma: float = 0.0,
        selection: str = "dwa",
        rng: np.random.Generator | None = None,
    ):
        if n_elements < 1:
            raise ConfigurationError("DAC needs at least one element")
        if mismatch_sigma < 0:
            raise ConfigurationError("mismatch sigma must be >= 0")
        if selection not in ("fixed", "dwa"):
            raise ConfigurationError("selection must be fixed|dwa")
        self.n_elements = int(n_elements)
        self.selection = selection
        rng = rng or np.random.default_rng(321)
        # Unit element weights, normalized so the full-scale sum is exact
        # (a global gain error is invisible to the loop; the damage comes
        # from element-to-element differences).
        weights = 1.0 + mismatch_sigma * rng.standard_normal(self.n_elements)
        self.weights = weights / weights.mean()
        self._pointer = 0

    def reset(self) -> None:
        self._pointer = 0

    def convert(self, k: int) -> float:
        """Drive ``k`` of the elements high; return the analog output.

        Output is normalized to [-1, 1]: all elements high = +1, none
        = -1 (differential unit-element DAC).
        """
        if not 0 <= k <= self.n_elements:
            raise ConfigurationError("element count out of range")
        if self.selection == "fixed":
            chosen = np.arange(k)
        else:
            idx = (self._pointer + np.arange(k)) % self.n_elements
            self._pointer = (self._pointer + k) % self.n_elements
            chosen = idx
        high = float(self.weights[chosen].sum()) if k else 0.0
        # sum(weights) == n_elements by normalization.
        return 2.0 * high / self.n_elements - 1.0


@dataclass(frozen=True)
class MultibitOutput:
    """Result of a multi-bit modulator run."""

    codes: np.ndarray  # quantizer level indices per sample
    values: np.ndarray  # nominal analog values of those levels
    clipped_samples: int


class MultibitSDM:
    """Second-order loop with a multi-bit quantizer and mismatch DAC.

    Same topology as :class:`~repro.sdm.modulator.SecondOrderSDM` but the
    comparator is replaced by a flash quantizer and the two-level feedback
    by the thermometer DAC. Analog noise is omitted here — this model
    isolates quantization and DAC-mismatch behaviour for the ablation.
    """

    def __init__(
        self,
        params: ModulatorParams | None = None,
        quantizer_bits: int = 3,
        dac_mismatch_sigma: float = 0.0,
        dac_selection: str = "dwa",
        rng: np.random.Generator | None = None,
    ):
        self.params = params or ModulatorParams()
        self.coefficients = LoopCoefficients.boser_wooley()
        self.quantizer = MultibitQuantizer(quantizer_bits)
        self.dac = ThermometerDAC(
            n_elements=self.quantizer.n_levels - 1,
            mismatch_sigma=dac_mismatch_sigma,
            selection=dac_selection,
            rng=rng,
        )
        self._swing = 3.0
        self.reset()

    def reset(self) -> None:
        self._x1 = 0.0
        self._x2 = 0.0
        self.dac.reset()

    @property
    def input_full_scale(self) -> float:
        """Multi-bit loops are stable nearly to the reference."""
        return self.coefficients.input_full_scale

    def simulate(self, loop_input: np.ndarray) -> MultibitOutput:
        """Run the loop over a normalized input sequence (streaming)."""
        u = np.asarray(loop_input, dtype=float)
        if u.ndim != 1:
            raise ConfigurationError("loop input must be 1-D")
        c = self.coefficients
        codes = np.empty(u.size, dtype=np.int16)
        values = np.empty(u.size)
        clipped = 0
        x1, x2 = self._x1, self._x2
        swing = self._swing
        for i in range(u.size):
            code = self.quantizer.quantize(x2)
            # Feedback: `code` elements high out of n_levels - 1.
            fb = self.dac.convert(code)
            codes[i] = code
            values[i] = self.quantizer.level_value(code)
            x1_new = x1 + c.a1 * u[i] - c.b1 * fb
            x2_new = x2 + c.a2 * x1 - c.b2 * fb
            if abs(x1_new) > swing or abs(x2_new) > swing:
                clipped += 1
                x1_new = float(np.clip(x1_new, -swing, swing))
                x2_new = float(np.clip(x2_new, -swing, swing))
            x1, x2 = x1_new, x2_new
        self._x1, self._x2 = x1, x2
        return MultibitOutput(codes=codes, values=values, clipped_samples=clipped)
