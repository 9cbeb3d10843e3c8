"""Bit-true cascaded integrator-comb (CIC / SINC^N) decimator.

The paper's first decimation stage is a "3rd order SINC-filter"
(Sec. 3.1). A CIC decimator of order N and rate change R has transfer
function

    H(z) = ( (1 - z^-R) / (1 - z^-1) )^N,

i.e. an N-fold moving-average (sinc-shaped) response with DC gain R^N.
It is implemented Hogenauer-style: N integrators at the input rate, a
rate-change switch, then N combs at the output rate, all in two's-
complement registers of Hogenauer's bound width where wrap-around is
provably harmless.

The class carries filter state so streams can be processed in chunks;
:meth:`reset` restarts it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .fixed_point import cic_register_width, wrap_twos_complement


class CICDecimator:
    """Hogenauer CIC decimator with persistent streaming state.

    Parameters
    ----------
    order:
        Number of integrator/comb pairs (paper: 3).
    decimation:
        Rate-change factor R (paper's first stage: 32 of the total 128).
    input_bits:
        Width of the input samples (2 for the +/-1 modulator bitstream).
    """

    def __init__(
        self,
        order: int = 3,
        decimation: int = 32,
        input_bits: int = 2,
    ):
        if order < 1:
            raise ConfigurationError("CIC order must be >= 1")
        if decimation < 2:
            raise ConfigurationError("CIC decimation must be >= 2")
        if input_bits < 1:
            raise ConfigurationError("input width must be >= 1 bit")
        self.order = int(order)
        self.decimation = int(decimation)
        self.input_bits = int(input_bits)
        self.register_bits = cic_register_width(input_bits, order, decimation)
        self.reset()

    # -- state ----------------------------------------------------------

    def reset(self) -> None:
        """Clear all integrator and comb registers and phase."""
        self._integrators = np.zeros(self.order, dtype=np.int64)
        self._combs = np.zeros(self.order, dtype=np.int64)
        self._phase = 0  # position within the current decimation frame

    @property
    def dc_gain(self) -> int:
        """R^N — divide outputs by this for unity DC gain."""
        return self.decimation**self.order

    # -- processing -------------------------------------------------------

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Filter and decimate a chunk of integer samples.

        Accepts any integer or boolean array — the modulator bitstream
        in +/-1, 0/1, or raw bool form. Returns the decimated output
        words (full CIC gain, not normalized) as int64. State persists
        across calls, so concatenating the outputs of chunked calls
        equals one big call.
        """
        x = np.asarray(samples)
        if x.dtype.kind not in "iub":
            raise ConfigurationError(
                f"CIC input must be an integer or boolean array "
                f"(got dtype {x.dtype}); floating-point samples are "
                "not accepted — quantize to bitstream levels first"
            )
        x = x.astype(np.int64, copy=False)
        if x.size == 0:
            return np.zeros(0, dtype=np.int64)

        bits = self.register_bits
        # Integrator cascade. Wrapping mod 2^bits commutes with addition,
        # so a cumulative sum followed by one wrap per stage is bit-exact
        # with respect to per-sample wrapping, provided the un-wrapped
        # cumsum cannot overflow int64: each stage's input is bounded by
        # 2^(bits-1) and chunks are < 2^(62-bits) samples.
        max_chunk = 1 << max(62 - bits, 8)
        if x.size > max_chunk:
            # Recurse over sub-chunks; state carries automatically.
            outputs = [
                self.process(x[i : i + max_chunk])
                for i in range(0, x.size, max_chunk)
            ]
            return np.concatenate(outputs)

        stage = x
        for k in range(self.order):
            acc = np.cumsum(stage, dtype=np.int64) + self._integrators[k]
            acc = wrap_twos_complement(acc, bits)
            self._integrators[k] = acc[-1]
            stage = acc

        # Decimation: pick every R-th sample, honouring the carried phase.
        first = (self.decimation - self._phase) % self.decimation
        self._phase = (self._phase + stage.size) % self.decimation
        decimated = stage[first :: self.decimation]
        if decimated.size == 0:
            return np.zeros(0, dtype=np.int64)

        # Comb cascade at the low rate, one register per stage.
        out = decimated
        for k in range(self.order):
            delayed = np.concatenate([self._combs[k : k + 1], out[:-1]])
            self._combs[k] = out[-1]
            out = wrap_twos_complement(out - delayed, bits)
        return out

    # -- analysis ----------------------------------------------------------

    def frequency_response(self, freqs_hz: np.ndarray, input_rate_hz: float) -> np.ndarray:
        """Magnitude response |H(f)| normalized to unity at DC.

        |H(f)| = \\| sin(pi f R / fs) / (R sin(pi f / fs)) \\|^N.
        """
        f = np.asarray(freqs_hz, dtype=float)
        r = self.decimation
        x = np.pi * f / input_rate_hz
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.sin(r * x) / (r * np.sin(x))
        ratio = np.where(np.isclose(np.sin(x), 0.0), 1.0 - 0.0 * f, ratio)
        return np.abs(ratio) ** self.order

    def passband_droop_db(self, freq_hz: float, input_rate_hz: float) -> float:
        """Gain loss at a passband frequency (for FIR droop compensation)."""
        mag = float(self.frequency_response(np.array([freq_hz]), input_rate_hz)[0])
        return -20.0 * np.log10(max(mag, 1e-300))
