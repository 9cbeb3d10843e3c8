"""FIG7: the measured ADC spectrum of Fig. 7.

Paper setup (Sec. 3.1): the sigma-delta modulator driven through its
differential voltage input with a 15.625 Hz sine at 128 kHz sampling,
OSR 128, decimated to 1 kS/s / 12 bit by the sinc^3 + 32-tap FIR; the
reported figure of merit is "a signal-to-noise ratio better than 72 dB".

This harness runs exactly that tone test on the behavioural chain and
returns the spectrum plus SNR/SNDR/ENOB. Expected shape: SNR > 72 dB,
ENOB ~ 11.7 bit, a flat in-band floor set by the 12-bit output quantizer
(the float-path reference, also measured, shows the underlying modulator
reaches ~86 dB — the silicon's own margin is unknown, but the 12-bit
interface is the binding constraint in both worlds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.chain import ReadoutChain
from ..dsp.spectrum import SpectrumAnalysis, analyze_tone, coherent_tone_frequency
from ..errors import ConfigurationError
from ..params import SystemParams

PAPER_TONE_HZ = 15.625
PAPER_SNR_DB = 72.0


@dataclass(frozen=True)
class Fig7Result:
    """Spectrum + metrics for the Fig. 7 tone test."""

    analysis: SpectrumAnalysis
    float_path_analysis: SpectrumAnalysis
    amplitude_fraction_fs: float
    tone_hz: float
    n_fft: int

    @property
    def snr_db(self) -> float:
        return self.analysis.snr_db

    def rows(self) -> list[tuple[str, str, str]]:
        """(quantity, paper, measured) comparison rows."""
        a = self.analysis
        return [
            ("tone frequency [Hz]", f"{PAPER_TONE_HZ}", f"{self.tone_hz:.4f}"),
            ("SNR [dB]", f"> {PAPER_SNR_DB:.0f}", f"{a.snr_db:.1f}"),
            ("SNDR [dB]", "(not quoted)", f"{a.sndr_db:.1f}"),
            ("ENOB [bit]", "12 (output width)", f"{a.enob_bits:.2f}"),
            ("SFDR [dB]", "(not quoted)", f"{a.sfdr_db:.1f}"),
            (
                "float-path SNR [dB]",
                "(n/a: silicon)",
                f"{self.float_path_analysis.snr_db:.1f}",
            ),
        ]

    def spectrum_db(self) -> tuple[np.ndarray, np.ndarray]:
        """(freqs, dB-re-peak-bin) series matching the Fig. 7 axes (the
        paper plots the tone bin at 0 dB)."""
        return self.analysis.freqs_hz, self.analysis.power_db()


def run_fig7(
    params: SystemParams | None = None,
    amplitude_fraction_fs: float = 0.8,
    n_fft: int = 4096,
    settle_words: int = 256,
    rng: np.random.Generator | None = None,
    backend: str = "fast",
) -> Fig7Result:
    """Run the Fig. 7 tone test.

    Parameters
    ----------
    params:
        System configuration (paper defaults).
    amplitude_fraction_fs:
        Sine amplitude relative to the loop full scale. 0.8 is a typical
        "near full scale but stable" test level for a single-bit
        second-order loop.
    n_fft:
        Coherent analysis record length at the output rate.
    settle_words:
        Output words discarded while the chain settles.
    backend:
        Modulator simulation backend (``"fast"``/``"reference"``); both
        produce bit-identical spectra, the fast one in a fraction of the
        wall-time.
    """
    params = params or SystemParams()
    if not 0 < amplitude_fraction_fs < 1:
        raise ConfigurationError("amplitude fraction must be in (0, 1)")
    chain = ReadoutChain(params, rng=rng, backend=backend)

    out_rate = chain.output_rate_hz
    tone = coherent_tone_frequency(PAPER_TONE_HZ, out_rate, n_fft)
    fs = params.modulator.sampling_rate_hz
    n_mod = (n_fft + settle_words) * params.modulator.osr
    t = np.arange(n_mod) / fs
    amplitude_v = (
        amplitude_fraction_fs
        * chain.chip.modulator.input_full_scale
        * params.modulator.vref_v
    )
    stimulus_v = amplitude_v * np.sin(2.0 * np.pi * tone * t)

    recording = chain.record_voltage(stimulus_v)
    codes = recording.values[settle_words : settle_words + n_fft]
    analysis = analyze_tone(
        codes, out_rate, tone_hz=tone, max_band_hz=params.decimation.cutoff_hz
    )

    # Float-path reference: same bitstream through the double-precision
    # cascade, no 12-bit quantizer.
    chain_float = ReadoutChain(params, rng=np.random.default_rng(8), backend=backend)
    mod_out = chain_float.chip.acquire_voltage(stimulus_v)
    float_vals = chain_float.fpga.filter.process_float(
        mod_out.bitstream.astype(float)
    )[settle_words : settle_words + n_fft]
    float_analysis = analyze_tone(
        float_vals, out_rate, tone_hz=tone, max_band_hz=params.decimation.cutoff_hz
    )

    return Fig7Result(
        analysis=analysis,
        float_path_analysis=float_analysis,
        amplitude_fraction_fs=amplitude_fraction_fs,
        tone_hz=tone,
        n_fft=n_fft,
    )
