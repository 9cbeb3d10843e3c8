"""Second-order single-bit switched-capacitor sigma-delta modulator.

The readout circuit of Sec. 2.2 / Fig. 6: a fully-differential two-stage
SC filter integrating the charge difference between the sensor and
reference capacitors, quantized by a single-bit comparator at 128 kS/s.
This package provides a cycle-accurate behavioural model with the analog
non-idealities that set the real converter's noise floor, plus z-domain
linear analysis (NTF/STF) and the adjustable feedback DAC the paper's
future-work section proposes.
"""

from .fastpath import kernel_available
from .topology import LoopCoefficients
from .linear import LinearLoopModel
from .comparator import Comparator
from .integrator import SCIntegrator
from .nonidealities import (
    FlickerNoiseGenerator,
    integrator_noise_sigma_v,
    kt_over_c_sigma_v,
)
from .frontend import CapacitiveFrontEnd, VoltageFrontEnd
from .feedback import FeedbackDAC
from .modulator import ModulatorOutput, SecondOrderSDM
from .multibit import MultibitQuantizer, MultibitSDM, ThermometerDAC
from .higher_order import STANDARD_GAINS, HigherOrderSDM
from .chopper import ChoppedSecondOrderSDM

__all__ = [
    "CapacitiveFrontEnd",
    "ChoppedSecondOrderSDM",
    "Comparator",
    "FeedbackDAC",
    "FlickerNoiseGenerator",
    "HigherOrderSDM",
    "LinearLoopModel",
    "LoopCoefficients",
    "ModulatorOutput",
    "MultibitQuantizer",
    "MultibitSDM",
    "SCIntegrator",
    "STANDARD_GAINS",
    "SecondOrderSDM",
    "ThermometerDAC",
    "VoltageFrontEnd",
    "integrator_noise_sigma_v",
    "kernel_available",
    "kt_over_c_sigma_v",
]
