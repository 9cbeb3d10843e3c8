"""The two-stage decimation filter of Sec. 3.1, end to end.

Bitstream in (+/-1 at 128 kS/s), 12-bit codes out (1 kS/s):

    +/-1 -> [CIC, sinc^3, R=32] -> [droop-compensating FIR, 32 taps, R=4]
         -> round & saturate to 12 bits.

Numeric plan (all widths asserted by tests):

* modulator full scale (FS) maps to integer 1 at the CIC input;
* the CIC has DC gain 32^3 = 2^15, so FS = 32768 counts at its output
  (17-bit signed words, Hogenauer bound);
* FIR coefficients are Q1.14; the int64 MAC accumulates
  |acc| <= 2^15 * L1(coeffs) * 2^14 < 2^31;
* real output = acc / (2^15 * 2^14); 12-bit code = round(real * 2^11),
  saturated to [-2048, 2047].

A float reference path (:meth:`process_float`) implements the same
cascade in double precision; tests bound the bit-true path's deviation
from it to the expected quantization level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..params import DecimationParams
from .cic import CICDecimator
from .fir import FIRDecimator, design_compensation_fir
from .fixed_point import QFormat, saturate


@dataclass(frozen=True)
class DecimationResult:
    """Decimated output: integer codes plus their real-value scaling."""

    codes: np.ndarray  # int64, saturated to `bits`
    bits: int
    full_scale: float  # real value corresponding to code 2^(bits-1)

    @property
    def values(self) -> np.ndarray:
        """Codes mapped back to modulator-input units (FS = 1)."""
        return self.codes.astype(float) / (1 << (self.bits - 1)) * self.full_scale


class DecimationFilter:
    """Streaming two-stage decimator (CIC -> FIR -> 12-bit quantizer).

    Parameters
    ----------
    params:
        Architecture parameters; defaults to the paper's
        sinc^3(R=32) + 32-tap FIR(R=4), 500 Hz cutoff, 12-bit output.
    input_rate_hz:
        Modulator sampling rate feeding the filter (128 kHz).
    """

    def __init__(
        self,
        params: DecimationParams | None = None,
        input_rate_hz: float = 128e3,
    ):
        self.params = params or DecimationParams()
        if input_rate_hz <= 0:
            raise ConfigurationError("input rate must be positive")
        self.input_rate_hz = float(input_rate_hz)

        self.cic = CICDecimator(
            order=3, decimation=self.params.cic_decimation, input_bits=2
        )
        fir_rate = self.input_rate_hz / self.params.cic_decimation
        self.fir_coefficients = design_compensation_fir(
            taps=self.params.fir_taps,
            input_rate_hz=fir_rate,
            cutoff_hz=self.params.cutoff_hz,
            cic=self.cic,
        )
        self.fir = FIRDecimator(
            self.fir_coefficients,
            decimation=self.params.fir_decimation,
            coeff_format=QFormat(int_bits=1, frac_bits=14),
        )
        self._fir_rate_hz = fir_rate
        # Float-path state (float CIC + float FIR with same structure).
        self.reset_float()

    # -- rates -------------------------------------------------------------

    @property
    def output_rate_hz(self) -> float:
        """Decimated conversion rate (paper: 1 kS/s)."""
        return self.input_rate_hz / self.params.total_decimation

    @property
    def phase(self) -> int:
        """Input samples since the cascade's last output-word boundary.

        In ``[0, R)``: the cascade emits a word on each input sample at
        phase 0. The CIC phase counts inputs modulo its decimation and
        the FIR phase counts CIC outputs; a CIC part-way through its
        frame has already passed that frame's output to the FIR.
        """
        c, f = self.cic._phase, self.fir._phase
        return (
            self.cic.decimation * (f - (c > 0)) + c
        ) % self.params.total_decimation

    # -- bit-true path ------------------------------------------------------

    def reset(self) -> None:
        """Clear both fixed-point stages (stream restart)."""
        self.cic.reset()
        self.fir.reset()

    def process(self, bitstream: np.ndarray) -> DecimationResult:
        """Decimate a +/-1 bitstream chunk to 12-bit output codes.

        State persists across calls; chunked processing concatenates to
        the same codes as one large call.
        """
        bits = np.asarray(bitstream)
        if bits.dtype.kind == "f":
            rounded = np.round(bits).astype(np.int64)
            if not np.array_equal(rounded, bits):
                raise ConfigurationError(
                    "bitstream must contain exact +/-1 values"
                )
            bits = rounded
        bits = bits.astype(np.int64, copy=False)
        if bits.size and not np.all(np.abs(bits) == 1):
            raise ConfigurationError("bitstream values must be +/-1")

        cic_out = self.cic.process(bits)  # FS = 2^15 counts
        acc = self.fir.process(cic_out)  # FS = 2^15 * 2^14 * gain(=1)
        fs_acc = float(self.cic.dc_gain) / self.fir.coeff_format.scale
        out_half = 1 << (self.params.output_bits - 1)
        # Round-half-away rounding of acc * out_half / fs_acc in integers.
        scaled = np.round(acc.astype(float) * (out_half / fs_acc)).astype(
            np.int64
        )
        codes = saturate(scaled, self.params.output_bits)
        return DecimationResult(
            codes=codes, bits=self.params.output_bits, full_scale=1.0
        )

    # -- float reference path ------------------------------------------------

    def reset_float(self) -> None:
        self._f_integrators = np.zeros(self.cic.order)
        self._f_combs = np.zeros(self.cic.order)
        self._f_phase_cic = 0
        self._f_fir_hist = np.zeros(self.params.fir_taps - 1)
        self._f_phase_fir = 0

    def process_float(self, bitstream: np.ndarray) -> np.ndarray:
        """Double-precision reference cascade (same structure, no rounding).

        Output is in modulator-input units (FS = 1), without the 12-bit
        quantizer, for measuring the quantizer/word-width penalty.
        """
        x = np.asarray(bitstream, dtype=float)
        if x.size == 0:
            return np.zeros(0)
        stage = x
        for k in range(self.cic.order):
            acc = np.cumsum(stage) + self._f_integrators[k]
            self._f_integrators[k] = acc[-1]
            stage = acc
        r = self.params.cic_decimation
        first = (r - self._f_phase_cic) % r
        self._f_phase_cic = (self._f_phase_cic + stage.size) % r
        dec = stage[first::r]
        out = dec
        for k in range(self.cic.order):
            delayed = np.concatenate([self._f_combs[k : k + 1], out])
            diff = out - delayed[: out.size]
            if out.size:
                self._f_combs[k] = out[-1]
            out = diff
        out = out / self.cic.dc_gain

        extended = np.concatenate([self._f_fir_hist, out])
        n_out = out.size
        m = self.params.fir_decimation
        first = (m - self._f_phase_fir) % m
        positions = np.arange(first, n_out, m)
        self._f_phase_fir = (self._f_phase_fir + n_out) % m
        if extended.size >= self.params.fir_taps - 1:
            self._f_fir_hist = extended[-(self.params.fir_taps - 1) :]
        if positions.size == 0:
            return np.zeros(0)
        idx = positions[:, None] + np.arange(self.params.fir_taps)[None, :]
        windows = extended[idx]
        return windows @ self.fir_coefficients[::-1]

    # -- analysis -------------------------------------------------------------

    def cascade_frequency_response(self, freqs_hz: np.ndarray) -> np.ndarray:
        """|H(f)| of CIC x quantized FIR, normalized CIC to unity DC gain."""
        freqs = np.asarray(freqs_hz, dtype=float)
        cic_mag = self.cic.frequency_response(freqs, self.input_rate_hz)
        fir_mag = self.fir.frequency_response(
            freqs, self._fir_rate_hz, quantized=True
        )
        return cic_mag * fir_mag

    def measured_cutoff_hz(self) -> float:
        """Frequency where the cascade response first drops by 3 dB."""
        freqs = np.linspace(1.0, self.output_rate_hz, 4001)
        mag = self.cascade_frequency_response(freqs)
        mag_db = 20.0 * np.log10(np.maximum(mag, 1e-12))
        below = np.nonzero(mag_db <= -3.0)[0]
        if below.size == 0:
            return float(freqs[-1])
        return float(freqs[below[0]])
