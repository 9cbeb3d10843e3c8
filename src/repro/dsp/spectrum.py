"""Tone-test spectral analysis: the instrumentation behind Fig. 7.

The paper characterizes the converter by driving the differential voltage
input with a sine and reporting the output spectrum and SNR ("better than
72 dB", Sec. 3.1, Fig. 7). This module provides the matching measurement
code: windowed periodogram, signal/noise/harmonic power accounting, and
the derived metrics (SNR, SNDR, THD, SFDR, ENOB).

Conventions: one-sided power spectrum, powers normalized so a full-scale
(amplitude 1) sine has signal power 0.5; dB values are relative to the
tone unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .windows import HANN_HALF_LEAKAGE_BINS, hann


def coherent_tone_frequency(
    target_hz: float, sample_rate_hz: float, n_samples: int
) -> float:
    """Snap a tone frequency onto an exact DFT bin (coherent sampling).

    Coherent sampling removes spectral leakage entirely, which is how ADC
    test setups (and Fig. 7's 15.625 Hz = bin 16 of a 1024-point, 1 kS/s
    record... exactly 1 kHz/64) choose their tone. The bin count is forced
    odd so the tone period and record length share no common factor —
    every quantizer code is exercised.
    """
    if not 0 < target_hz < sample_rate_hz / 2:
        raise ConfigurationError("target tone must lie in (0, Nyquist)")
    if n_samples < 16:
        raise ConfigurationError("need at least 16 samples")
    bin_index = max(1, round(target_hz * n_samples / sample_rate_hz))
    if bin_index % 2 == 0:
        bin_index += 1
    if bin_index >= n_samples // 2:
        raise ConfigurationError("coherent bin would exceed Nyquist")
    return bin_index * sample_rate_hz / n_samples


@dataclass(frozen=True)
class SpectrumAnalysis:
    """Full tone-test result."""

    freqs_hz: np.ndarray
    power: np.ndarray  # one-sided, linear
    tone_frequency_hz: float
    signal_power: float
    noise_power: float
    distortion_power: float
    dc_power: float
    snr_db: float
    sndr_db: float
    thd_db: float
    sfdr_db: float
    enob_bits: float

    def power_db(self) -> np.ndarray:
        """Spectrum in dB re the peak bin."""
        ref = float(self.power.max())
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.power / ref)

    def summary(self) -> str:
        return (
            f"tone {self.tone_frequency_hz:.4g} Hz: "
            f"SNR {self.snr_db:.1f} dB, SNDR {self.sndr_db:.1f} dB, "
            f"THD {self.thd_db:.1f} dB, SFDR {self.sfdr_db:.1f} dB, "
            f"ENOB {self.enob_bits:.2f} bit"
        )


def enob_from_sndr(sndr_db: float) -> float:
    """Effective number of bits: (SNDR - 1.76) / 6.02."""
    return (sndr_db - 1.76) / 6.02


def analyze_tone(
    samples: np.ndarray,
    sample_rate_hz: float,
    tone_hz: float | None = None,
    max_band_hz: float | None = None,
) -> SpectrumAnalysis:
    """Measure SNR/SNDR/THD/SFDR/ENOB of a digitized sine.

    The record is Hann-windowed; harmonics 2..6 are booked as distortion.

    Parameters
    ----------
    samples:
        The converter output record (any scaling).
    sample_rate_hz:
        Output sample rate (1 kS/s in the paper).
    tone_hz:
        Nominal tone frequency; found from the peak bin when omitted.
    max_band_hz:
        Restrict the analysis band (e.g. to the 500 Hz filter cutoff);
        defaults to Nyquist.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 64:
        raise ConfigurationError("need a 1-D record of at least 64 samples")
    freqs, power = _one_sided_power(samples, sample_rate_hz, hann(samples.size))
    bin_hz = freqs[1] - freqs[0]
    n_bins = freqs.size

    band_limit = max_band_hz if max_band_hz is not None else sample_rate_hz / 2.0
    band = freqs <= band_limit + 0.5 * bin_hz

    guard = HANN_HALF_LEAKAGE_BINS
    # DC region: bin 0 plus the window's leakage skirt.
    dc_bins = np.arange(0, min(guard + 1, n_bins))

    # Locate the tone.
    search = power.copy()
    search[dc_bins] = 0.0
    search[~band] = 0.0
    if tone_hz is None:
        tone_bin = int(np.argmax(search))
    else:
        tone_bin = int(round(tone_hz / bin_hz))
        if not 0 < tone_bin < n_bins:
            raise ConfigurationError("tone frequency outside the spectrum")
        # Allow +/-1 bin of disagreement between nominal and actual.
        local = slice(max(tone_bin - 1, 1), min(tone_bin + 2, n_bins))
        tone_bin = int(np.argmax(power[local])) + max(tone_bin - 1, 1)

    signal_bins = _skirt(tone_bin, guard, n_bins)
    signal_power = float(power[signal_bins].sum())
    if signal_power <= 0.0:
        raise ConfigurationError("no signal power found at the tone bin")

    # Harmonic bins (with aliasing back into the first Nyquist zone).
    harmonic_bins: list[np.ndarray] = []
    for k in range(2, 7):
        alias = _alias_bin(k * tone_bin, samples.size)
        if alias in (0, tone_bin):
            continue
        harmonic_bins.append(_skirt(alias, guard, n_bins))
    distortion_mask = np.zeros(n_bins, dtype=bool)
    for bins in harmonic_bins:
        distortion_mask[bins] = True
    distortion_mask[signal_bins] = False
    distortion_mask[dc_bins] = False
    distortion_mask &= band
    distortion_power = float(power[distortion_mask].sum())

    noise_mask = band.copy()
    noise_mask[dc_bins] = False
    noise_mask[signal_bins] = False
    noise_mask[distortion_mask] = False
    noise_power = float(power[noise_mask].sum())
    dc_power = float(power[dc_bins].sum())

    snr_db = 10.0 * np.log10(signal_power / max(noise_power, 1e-300))
    sndr_db = 10.0 * np.log10(
        signal_power / max(noise_power + distortion_power, 1e-300)
    )
    thd_db = (
        10.0 * np.log10(distortion_power / signal_power)
        if distortion_power > 0
        else -np.inf
    )
    spur_mask = noise_mask | distortion_mask
    sfdr_db = (
        10.0 * np.log10(signal_power / float(power[spur_mask].max()))
        if spur_mask.any()
        else np.inf
    )

    return SpectrumAnalysis(
        freqs_hz=freqs,
        power=power,
        tone_frequency_hz=float(tone_bin * bin_hz),
        signal_power=signal_power,
        noise_power=noise_power,
        distortion_power=distortion_power,
        dc_power=dc_power,
        snr_db=float(snr_db),
        sndr_db=float(sndr_db),
        thd_db=float(thd_db),
        sfdr_db=float(sfdr_db),
        enob_bits=enob_from_sndr(float(sndr_db)),
    )


def _one_sided_power(
    samples: np.ndarray, sample_rate_hz: float, window: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided windowed power spectrum, coherent-gain corrected."""
    if sample_rate_hz <= 0:
        raise ConfigurationError("sample rate must be positive")
    n = samples.size
    windowed = samples * window
    fft = np.fft.rfft(windowed)
    # Amplitude-correct normalization: a unit-amplitude coherent tone
    # produces signal power 0.5 summed over its leakage skirt.
    scale = 1.0 / (float(np.mean(window)) * n)
    power = np.abs(fft * scale) ** 2
    power[1:] *= 2.0  # fold negative frequencies
    if n % 2 == 0:
        power[-1] /= 2.0  # Nyquist bin is not duplicated
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
    return freqs, power


def _skirt(center: int, half_width: int, n_bins: int) -> np.ndarray:
    lo = max(center - half_width, 0)
    hi = min(center + half_width + 1, n_bins)
    return np.arange(lo, hi)


def _alias_bin(bin_index: int, n_samples: int) -> int:
    """Fold a bin index back into the one-sided spectrum [0, n/2]."""
    period = n_samples
    folded = bin_index % period
    if folded > period // 2:
        folded = period - folded
    return folded
