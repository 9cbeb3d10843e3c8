"""Second-stage FIR decimator: 32 taps, 500 Hz cutoff, droop compensation.

The paper's second stage is "a 32 tap FIR-filter" with a 500 Hz cutoff
(Sec. 3.1). Running at the CIC output rate (4 kHz for the 32/4 stage
split), it has three jobs:

1. low-pass to the 500 Hz band the 1 kS/s output can represent,
2. suppress the CIC alias images folding into that band, and
3. flatten the sinc^3 passband droop of the first stage.

:func:`design_compensation_fir` builds the coefficient set with a NumPy
frequency-sampling design over a grid whose passband target is the
*inverse* of the CIC droop. The design repeats ``scipy.signal.firwin2``'s
steps and is bit-identical to it (``tests/dsp/test_scipy_parity.py``), so
importing the filter does not import SciPy. :class:`FIRDecimator` applies
the quantized coefficients bit-true with streaming state.
"""

from __future__ import annotations

from math import ceil, log

import numpy as np

from ..errors import ConfigurationError
from ..parallel.cache import precompute_cache
from .cic import CICDecimator
from .fixed_point import QFormat
from .windows import cosine_sum


def design_compensation_fir(
    taps: int,
    input_rate_hz: float,
    cutoff_hz: float,
    cic: CICDecimator | None = None,
) -> np.ndarray:
    """Design the droop-compensating low-pass FIR (float coefficients).

    The design depends only on the scalar arguments and the CIC's
    (order, decimation), so the result is memoized in the process-local
    :func:`~repro.parallel.cache.precompute_cache`:
    building many :class:`~repro.core.chain.ReadoutChain`\\ s (one per
    virtual subject, one per pool worker task) runs the design once per
    process. The returned array is shared and marked read-only; copy it
    before mutating.

    Parameters
    ----------
    taps:
        Number of coefficients (paper: 32).
    input_rate_hz:
        Sample rate at the FIR input (CIC output rate).
    cutoff_hz:
        Band edge of the passband (paper: 500 Hz).
    cic:
        If given, the passband target is 1/|H_cic(f)| so the cascade is
        flat; otherwise the passband target is unity.

    The raised-cosine transition band is 20 % of the cutoff wide.
    """
    if taps < 8:
        raise ConfigurationError("FIR needs at least 8 taps")
    nyquist = input_rate_hz / 2.0
    if not 0 < cutoff_hz < nyquist:
        raise ConfigurationError(
            f"cutoff {cutoff_hz} Hz must lie inside (0, {nyquist}) Hz"
        )
    transition = 0.2 * cutoff_hz
    if cutoff_hz + transition / 2.0 >= nyquist:
        raise ConfigurationError("transition band extends past Nyquist")

    key = (
        "fir_design",
        int(taps),
        float(input_rate_hz),
        float(cutoff_hz),
        float(transition),
        None if cic is None else (cic.order, cic.decimation),
    )
    return precompute_cache().get(
        key,
        lambda: _design_compensation_fir(
            taps, input_rate_hz, cutoff_hz, cic, transition
        ),
    )


def _design_compensation_fir(
    taps: int,
    input_rate_hz: float,
    cutoff_hz: float,
    cic: CICDecimator | None,
    transition: float,
) -> np.ndarray:
    """The design behind the cache front.

    A NumPy frequency-sampling design of the target response (see
    :func:`_firwin2_hamming`), bit-identical to ``scipy.signal.firwin2``
    with a Hamming window, normalized to the target's DC gain.
    """
    freq, gain = _target_response(input_rate_hz, cutoff_hz, cic, transition)
    coeffs = _firwin2_hamming(taps, freq, gain)
    # Normalize exact DC gain to the droop-compensation value at DC (=1).
    coeffs = coeffs / coeffs.sum() * gain[0]
    # Cached values are shared between chains; freeze against mutation.
    coeffs.setflags(write=False)
    return coeffs


def _target_response(
    input_rate_hz: float,
    cutoff_hz: float,
    cic: CICDecimator | None,
    transition: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Desired gain on a dense grid: (frequencies / Nyquist, gains)."""
    nyquist = input_rate_hz / 2.0
    n_grid = 512
    freqs = np.linspace(0.0, nyquist, n_grid)
    f_pass = cutoff_hz - transition / 2.0
    f_stop = cutoff_hz + transition / 2.0

    if cic is not None:
        cic_mag = cic.frequency_response(
            freqs, input_rate_hz * cic.decimation
        )
        # Inverse droop, clipped to avoid blowing up near CIC nulls.
        comp = 1.0 / np.clip(cic_mag, 0.05, None)
    else:
        comp = np.ones_like(freqs)

    gains = np.zeros_like(freqs)
    passband = freqs <= f_pass
    gains[passband] = comp[passband]
    in_transition = (freqs > f_pass) & (freqs < f_stop)
    # Raised-cosine rolloff from the compensated passband edge to zero.
    edge_gain = comp[passband][-1] if passband.any() else 1.0
    t = (freqs[in_transition] - f_pass) / (f_stop - f_pass)
    gains[in_transition] = edge_gain * 0.5 * (1.0 + np.cos(np.pi * t))
    return freqs / nyquist, gains


def _firwin2_hamming(taps: int, freq: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Frequency-sampling FIR design, ``firwin2``'s arithmetic in NumPy.

    ``freq`` is normalized to Nyquist = 1. The gains are interpolated onto
    a uniform grid of ``1 + 2**ceil(log2(taps))`` points, phase-shifted so
    the first ``taps`` samples of the inverse real FFT are the impulse
    response, then windowed by a symmetric Hamming window. Every operation
    and its order follow SciPy's, which keeps the result bit-identical.
    """
    n_freqs = 1 + 2 ** int(ceil(log(taps, 2)))
    x = np.linspace(0.0, 1.0, n_freqs)
    fx = np.interp(x, freq, gain)
    shift = np.exp(-(taps - 1) / 2.0 * 1j * np.pi * x)
    impulse = np.fft.irfft(fx * shift)
    # 1 - 0.54, not the literal 0.46: they differ in the last bit.
    return impulse[:taps] * cosine_sum(taps, (0.54, 1.0 - 0.54), sym=True)


class FIRDecimator:
    """Bit-true polyphase-equivalent FIR filter + decimator.

    Coefficients are quantized to a Q-format; inputs are integer words
    with a known fractional scale; the multiply-accumulate runs in int64
    (a test asserts the accumulator bound). Streaming: keeps the last
    ``taps - 1`` inputs between calls.

    Parameters
    ----------
    coefficients:
        Float coefficient vector (e.g. from :func:`design_compensation_fir`).
    decimation:
        Output keeps every ``decimation``-th filtered sample.
    coeff_format:
        Q-format for coefficient quantization (default Q1.14, 16-bit,
        leaving headroom for the >1 droop-compensated peak).
    """

    def __init__(
        self,
        coefficients: np.ndarray,
        decimation: int = 4,
        coeff_format: QFormat = QFormat(int_bits=1, frac_bits=14),
    ):
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.ndim != 1 or coefficients.size < 2:
            raise ConfigurationError("coefficients must be a 1-D vector, >= 2 taps")
        if decimation < 1:
            raise ConfigurationError("decimation must be >= 1")
        if np.max(np.abs(coefficients)) > coeff_format.max_value:
            raise ConfigurationError(
                "coefficient magnitude exceeds the coefficient Q-format; "
                "use a wider integer part"
            )
        self.decimation = int(decimation)
        self.coeff_format = coeff_format
        self.coefficients = coefficients
        self.coefficients_int = coeff_format.quantize_to_int(
            coefficients, overflow="raise"
        )
        self.taps = coefficients.size
        self.reset()

    def reset(self) -> None:
        """Clear the streaming history."""
        self._history = np.zeros(self.taps - 1, dtype=np.int64)
        self._phase = 0

    @property
    def quantized_coefficients(self) -> np.ndarray:
        """The real values actually implemented after quantization."""
        return self.coeff_format.to_real(self.coefficients_int)

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Filter + decimate integer samples; returns int64 accumulators.

        The output retains the coefficient fractional scale: real output =
        returned value * input_scale * coeff_format.scale.
        """
        x = np.asarray(samples)
        if x.dtype.kind not in "iu":
            raise ConfigurationError("FIR input must be integer words")
        x = x.astype(np.int64)
        if x.size == 0:
            return np.zeros(0, dtype=np.int64)

        extended = np.concatenate([self._history, x])
        # Full-rate convolution outputs for sample indices aligned with x.
        # Output n (0-based within this chunk) sees extended[n : n+taps].
        n_out_full = x.size
        # Select decimated positions according to carried phase.
        first = (self.decimation - self._phase) % self.decimation
        positions = np.arange(first, n_out_full, self.decimation)
        self._phase = (self._phase + x.size) % self.decimation
        self._history = extended[-(self.taps - 1) :]
        if positions.size == 0:
            return np.zeros(0, dtype=np.int64)

        # Gather windows: rows of length `taps` ending at each position.
        idx = positions[:, None] + np.arange(self.taps)[None, :]
        windows = extended[idx]
        # Convolution uses time-reversed coefficients.
        flipped = self.coefficients_int[::-1].astype(np.int64)
        return windows @ flipped

    def frequency_response(
        self, freqs_hz: np.ndarray, input_rate_hz: float, quantized: bool = True
    ) -> np.ndarray:
        """Magnitude response of the (quantized) coefficient set."""
        coeffs = self.quantized_coefficients if quantized else self.coefficients
        w = 2.0 * np.pi * np.asarray(freqs_hz, dtype=float) / input_rate_hz
        n = np.arange(self.taps)
        response = np.exp(-1j * np.outer(w, n)) @ coeffs
        return np.abs(response)
