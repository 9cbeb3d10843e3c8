"""z-domain linear model of the loop: NTF, STF, predicted SQNR.

Replacing the comparator by an additive white noise source E and unity
gain, the Boser-Wooley loop with delaying integrators H(z) =
z^-1/(1 - z^-1) gives

    V = NTF(z) * E + STF(z) * U,
    NTF(z) = (1 - z^-1)^2 / D(z),
    STF(z) = a1 a2 z^-2 / D(z),
    D(z)   = (1 - z^-1)^2 + b2 z^-1 (1 - z^-1) + a2 b1 z^-2

(for the nominal 0.5/0.5 case D reduces to 1 - 1.5 z^-1 + 0.75 z^-2,
whose poles sit at |z| = sqrt(0.75)). The
linear model predicts in-band quantization noise and hence the SQNR-vs-OSR
slope of ~15 dB/octave the ablation benchmarks check against the full
nonlinear simulation.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .topology import LoopCoefficients


def _freqz(num: np.ndarray, den: np.ndarray, worN) -> np.ndarray:
    """Complex response of ``num/den`` from ``scipy.signal.freqz``.

    SciPy is imported here, on first use, so importing the package does
    not load it.
    """
    from scipy import signal

    return signal.freqz(num, den, worN=worN)[1]


class LinearLoopModel:
    """NTF/STF analysis of a second-order loop."""

    def __init__(self, coefficients: LoopCoefficients | None = None):
        self.coefficients = coefficients or LoopCoefficients.boser_wooley()
        c = self.coefficients
        # Polynomials in z^-1 (ascending powers of z^-1). Solving the block
        # diagram of topology.py's difference equations:
        #   V (1 + b2 H + a2 b1 H^2) = a1 a2 H^2 U + E,  H = z^-1/(1-z^-1)
        #   D = (1-z^-1)^2 + b2 z^-1 (1-z^-1) + a2 b1 z^-2
        self._den = np.array(
            [1.0, -2.0 + c.b2, 1.0 - c.b2 + c.a2 * c.b1]
        )
        self._ntf_num = np.array([1.0, -2.0, 1.0])
        self._stf_num = np.array([0.0, 0.0, c.a1 * c.a2])

    # -- pole/zero inspection ------------------------------------------------

    @property
    def poles(self) -> np.ndarray:
        """Loop poles in the z-plane."""
        return np.roots(self._den)

    @property
    def is_stable(self) -> bool:
        """All linear-model poles strictly inside the unit circle."""
        return bool(np.all(np.abs(self.poles) < 1.0))

    @property
    def max_ntf_gain(self) -> float:
        """Peak out-of-band NTF gain (Lee-criterion style figure)."""
        h = _freqz(self._ntf_num, self._den, 4096)
        return float(np.max(np.abs(h)))

    # -- frequency responses ----------------------------------------------------

    def ntf(self, freqs_hz: np.ndarray, sample_rate_hz: float) -> np.ndarray:
        """Complex NTF at the given frequencies."""
        w = self._norm_w(freqs_hz, sample_rate_hz)
        return _freqz(self._ntf_num, self._den, w)

    def stf(self, freqs_hz: np.ndarray, sample_rate_hz: float) -> np.ndarray:
        """Complex STF at the given frequencies."""
        w = self._norm_w(freqs_hz, sample_rate_hz)
        return _freqz(self._stf_num, self._den, w)

    @staticmethod
    def _norm_w(freqs_hz: np.ndarray, sample_rate_hz: float) -> np.ndarray:
        if sample_rate_hz <= 0:
            raise ConfigurationError("sample rate must be positive")
        freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
        if np.any(freqs < 0) or np.any(freqs > sample_rate_hz / 2):
            raise ConfigurationError("frequencies must lie in [0, Nyquist]")
        return 2.0 * np.pi * freqs / sample_rate_hz

    # -- noise prediction ----------------------------------------------------------

    def inband_quantization_noise_power(self, osr: int) -> float:
        """Quantization noise power inside f < fs/(2*OSR).

        The single-bit quantizer error is modelled as white with total
        power Delta^2/12 = 4/12 (levels +/-1 -> Delta = 2) spread over
        [0, fs/2], shaped by |NTF|^2.
        """
        if osr < 2:
            raise ConfigurationError("OSR must be >= 2")
        # Normalized band [0, 0.5/osr] in cycles/sample.
        f = np.linspace(0.0, 0.5 / osr, 8192)
        w = 2.0 * np.pi * f
        h = _freqz(self._ntf_num, self._den, w)
        e_psd = (2.0**2 / 12.0) * 2.0  # one-sided PSD over f in [0, 0.5]
        integrand = e_psd * np.abs(h) ** 2
        return float(np.trapezoid(integrand, f))

    def predicted_sqnr_db(self, osr: int, amplitude: float = 0.5) -> float:
        """Signal-to-quantization-noise for a sine of given amplitude."""
        if amplitude <= 0:
            raise ConfigurationError("amplitude must be positive")
        signal_power = amplitude**2 / 2.0
        noise = self.inband_quantization_noise_power(osr)
        return 10.0 * np.log10(signal_power / noise)

    def sqnr_slope_db_per_octave(
        self, osr_low: int = 32, osr_high: int = 256
    ) -> float:
        """SQNR growth per OSR octave; ~15 dB for a second-order loop."""
        octaves = np.log2(osr_high / osr_low)
        delta = self.predicted_sqnr_db(osr_high) - self.predicted_sqnr_db(
            osr_low
        )
        return float(delta / octaves)
