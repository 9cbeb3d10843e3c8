"""Digital signal processing: the FPGA decimation filter and analysis tools.

The paper's decimation filter (Sec. 3.1) lives in an external FPGA: a
3rd-order SINC (CIC) first stage followed by a 32-tap FIR, decimating by
the OSR of 128 to a 1 kS/s, 12-bit output with 500 Hz cutoff. This package
provides a bit-true fixed-point model of that filter plus the spectral
analysis used to regenerate Fig. 7 (SNR/SNDR/ENOB extraction).
"""

from .fixed_point import QFormat, saturate, wrap_twos_complement
from .cic import CICDecimator
from .fir import FIRDecimator, design_compensation_fir
from .decimator import DecimationFilter, DecimationResult
from .spectrum import (
    SpectrumAnalysis,
    analyze_tone,
    coherent_tone_frequency,
    enob_from_sndr,
)

__all__ = [
    "CICDecimator",
    "DecimationFilter",
    "DecimationResult",
    "FIRDecimator",
    "QFormat",
    "SpectrumAnalysis",
    "analyze_tone",
    "coherent_tone_frequency",
    "design_compensation_fir",
    "enob_from_sndr",
    "saturate",
    "wrap_twos_complement",
]
