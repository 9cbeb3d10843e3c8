"""Analog noise/non-ideality calculators for the SC modulator.

The real converter's 72 dB floor is set by analog noise, not quantization
(the ideal 2nd-order loop at OSR 128 would exceed 90 dB SQNR). These
helpers compute the physically-scaled noise levels injected into the
behavioural simulation:

* **kT/C noise** of the switched input branch: each SC sample-and-transfer
  contributes ``2kT/C`` of charge-noise power (sampling + integration
  phases), referred to the input as a voltage.
* **flicker (1/f) noise**: generated by summing first-order low-pass
  shaped white sources spaced logarithmically — an accurate and cheap
  approximation of a 1/f PSD over several decades.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError

BOLTZMANN_J_PER_K = 1.380649e-23


def kt_over_c_sigma_v(
    capacitance_f: float, temperature_k: float = 300.0, phases: int = 2
) -> float:
    """RMS voltage noise of one SC charge transfer, input-referred.

    ``phases=2`` accounts for both the sampling and the integration phase
    each contributing kT/C of noise power (uncorrelated).
    """
    if capacitance_f <= 0:
        raise ConfigurationError("capacitance must be positive")
    if temperature_k <= 0:
        raise ConfigurationError("temperature must be positive")
    if phases < 1:
        raise ConfigurationError("phases must be >= 1")
    return math.sqrt(phases * BOLTZMANN_J_PER_K * temperature_k / capacitance_f)


def integrator_noise_sigma_v(
    sampling_cap_f: float,
    temperature_k: float = 300.0,
    opamp_excess_factor: float = 1.5,
) -> float:
    """Total per-sample input-referred noise of the first integrator.

    kT/C of the switch network plus the op-amp's own thermal noise folded
    by sampling, expressed as an excess factor on the kT/C term (1.5 is a
    typical single-stage OTA figure).
    """
    if opamp_excess_factor < 1.0:
        raise ConfigurationError("excess factor must be >= 1")
    base = kt_over_c_sigma_v(sampling_cap_f, temperature_k)
    return base * math.sqrt(opamp_excess_factor)


def leak_factor_from_gain(opamp_gain: float, charge_gain: float) -> float:
    """Integrator leak p = 1 - (a + 1)/A for finite op-amp DC gain A.

    A delaying SC integrator with charge gain ``a`` and op-amp gain ``A``
    realizes approximately H(z) = a z^-1 / (1 - p z^-1) with
    p = 1 - (a + 1)/A; the lost pole-at-DC raises the in-band noise floor
    once A < OSR (tested in the ablation suite).
    """
    if opamp_gain <= 0:
        raise ConfigurationError("op-amp gain must be positive")
    if charge_gain <= 0:
        raise ConfigurationError("charge gain must be positive")
    leak = 1.0 - (charge_gain + 1.0) / opamp_gain
    return max(leak, 0.0)


class FlickerNoiseGenerator:
    """1/f-shaped noise via a bank of first-order low-passed white sources.

    Summing K white sources, each filtered by a one-pole low-pass with
    pole frequencies log-spaced across the band of interest and amplitudes
    scaled as 1/sqrt(f_pole), approximates a 1/f PSD to within a fraction
    of a dB per decade — the standard trick for long streaming runs where
    FFT-shaping would need the whole record in memory.

    Parameters
    ----------
    corner_hz:
        Frequency where the 1/f PSD crosses the white floor ``white_sigma``.
    white_sigma:
        RMS of the white component per sample.
    sample_rate_hz:
        Simulation rate.

    The 1/f shaping extends five decades below the corner.
    """

    def __init__(
        self,
        corner_hz: float,
        white_sigma: float,
        sample_rate_hz: float,
        rng: np.random.Generator,
        n_sources: int = 12,
    ):
        if corner_hz <= 0 or white_sigma < 0 or sample_rate_hz <= 0:
            raise ConfigurationError(
                "corner, sigma and sample rate must be positive"
            )
        if n_sources < 2:
            raise ConfigurationError("need at least 2 flicker sources")
        self.corner_hz = float(corner_hz)
        self.white_sigma = float(white_sigma)
        self.sample_rate_hz = float(sample_rate_hz)
        self._rng = rng
        f_low = corner_hz / 10.0**5.0
        poles_hz = np.logspace(
            math.log10(f_low), math.log10(corner_hz), n_sources
        )
        self._alphas = np.exp(-2.0 * math.pi * poles_hz / sample_rate_hz)
        # Equal-variance sources at log-spaced poles sum to a ~1/f PSD
        # between the lowest and highest pole. Normalize analytically so
        # the summed one-sided PSD equals the white floor's PSD at the
        # corner frequency.
        psd_at_corner = self._unit_psd_sum(corner_hz)
        white_psd = 2.0 * white_sigma**2 / sample_rate_hz
        self._gains = np.full(
            n_sources, math.sqrt(white_psd / psd_at_corner)
        )
        self._state = np.zeros(n_sources)

    def _unit_psd_sum(self, freq_hz: float) -> float:
        """One-sided PSD of the unit-gain source bank at one frequency."""
        w = 2.0 * math.pi * freq_hz / self.sample_rate_hz
        z = np.exp(-1j * w)
        response = (1.0 - self._alphas**2) / np.abs(1.0 - self._alphas * z) ** 2
        return float(np.sum(response) * 2.0 / self.sample_rate_hz)

    def analytic_psd(self, freqs_hz: np.ndarray) -> np.ndarray:
        """One-sided PSD of the generated noise (for verification)."""
        freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
        gain2 = float(self._gains[0] ** 2)
        return np.array([gain2 * self._unit_psd_sum(f) for f in freqs])

    def reset(self) -> None:
        self._state[:] = 0.0

    def sample_block(self, n: int) -> np.ndarray:
        """Generate ``n`` correlated flicker-noise samples (streaming).

        Each source is an AR(1) recurrence ``s = alpha*s + drive*w``;
        running it through :func:`scipy.signal.lfilter` per source is
        bit-identical to the per-sample loop (the only reordering is a
        commutative addition) and C-speed, which matters because this
        feeds the modulator's block preparation on every chunk.
        """
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        if n == 0:
            return np.zeros(0)
        from scipy.signal import lfilter

        white = self._rng.standard_normal((n, self._state.size))
        out = np.empty((n, self._state.size))
        alphas = self._alphas
        drive = np.sqrt(1.0 - alphas**2)
        for k in range(self._state.size):
            out[:, k] = lfilter(
                [drive[k]],
                [1.0, -alphas[k]],
                white[:, k],
                zi=[alphas[k] * self._state[k]],
            )[0]
        self._state = out[-1].copy()
        return out @ self._gains
