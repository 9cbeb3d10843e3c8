"""Transducer array, analog multiplexer and scan/selection logic.

Sec. 2 of the paper: "an array of force detectors is used and the sensor
element with the strongest signal is selected during measurement. This can
also be used for localizing blood vessels." Sec. 2.2 / Fig. 4: the 2x2
array connects to the single readout through two synchronized analog
multiplexers (row and column select), a modular design extensible to
larger arrays; settling when switching elements is limited by the
sigma-delta converter's signal bandwidth.
"""

from .element import ArrayElement
from .array2d import SensorArray
from .fusedscan import fused_scan_supported, run_fused_scan
from .imaging import (
    ArteryEstimate,
    FusionResult,
    amplitude_image,
    fuse_elements,
    localize_artery,
    log_parabola_vertex,
)
from .mux import (
    AnalogMultiplexer,
    MuxTimingAnalysis,
    ScanSchedule,
    analyze_mux_timing,
    plan_scan,
)
from .scan import ElementSelection, ScanController, ScanTruncation

__all__ = [
    "AnalogMultiplexer",
    "ArrayElement",
    "ArteryEstimate",
    "ElementSelection",
    "FusionResult",
    "MuxTimingAnalysis",
    "ScanController",
    "ScanSchedule",
    "ScanTruncation",
    "SensorArray",
    "amplitude_image",
    "analyze_mux_timing",
    "fuse_elements",
    "fused_scan_supported",
    "localize_artery",
    "log_parabola_vertex",
    "plan_scan",
    "run_fused_scan",
]
