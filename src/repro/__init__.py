"""Reproduction of Kirstein et al., "A CMOS-Based Tactile Sensor for
Continuous Blood Pressure Monitoring" (DATE 2004).

A behavioural, laptop-scale simulation of the full system: the released
CMOS membrane array, the second-order switched-capacitor sigma-delta
readout, the FPGA decimation filter and USB link, the tonometric coupling
to a virtual patient, and the cuff-anchored calibration -- plus the
baseline methods the paper's introduction compares against.

Quick start::

    from repro import BloodPressureMonitor, ReadoutChain, VirtualPatient
    from repro.params import paper_defaults
    from repro.tonometry import ContactModel, TonometricCoupling

    params = paper_defaults()
    chain = ReadoutChain(params)
    contact = ContactModel()
    coupling = TonometricCoupling(chain.chip.array.geometry, contact)
    monitor = BloodPressureMonitor(chain, coupling)
    result = monitor.measure(VirtualPatient())
    print(result.summary())
"""

from .core import (
    BloodPressureMonitor,
    ChainRecording,
    MonitorResult,
    PowerModel,
    PowerReport,
    ReadoutChain,
    SensorChip,
)
from .errors import (
    CalibrationError,
    ConfigurationError,
    FixedPointOverflowError,
    FramingError,
    ReproError,
    SignalQualityError,
    SimulationError,
)
from .params import (
    ArrayParams,
    ChipParams,
    ContactParams,
    DecimationParams,
    FrontEndParams,
    MembraneParams,
    ModulatorParams,
    NonidealityParams,
    PatientParams,
    SystemParams,
    TissueParams,
    paper_defaults,
)
from .physiology import VirtualPatient

__version__ = "1.0.0"

__all__ = [
    "ArrayParams",
    "BloodPressureMonitor",
    "CalibrationError",
    "ChainRecording",
    "ChipParams",
    "ConfigurationError",
    "ContactParams",
    "DecimationParams",
    "FixedPointOverflowError",
    "FramingError",
    "FrontEndParams",
    "MembraneParams",
    "ModulatorParams",
    "MonitorResult",
    "NonidealityParams",
    "PatientParams",
    "PowerModel",
    "PowerReport",
    "ReadoutChain",
    "ReproError",
    "SensorChip",
    "SignalQualityError",
    "SimulationError",
    "SystemParams",
    "TissueParams",
    "VirtualPatient",
    "__version__",
    "paper_defaults",
]
