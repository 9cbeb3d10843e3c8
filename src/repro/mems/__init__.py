"""MEMS membrane transducer substrate (paper Sec. 2.1, Fig. 2).

Models the released CMOS membrane: the dielectric/metal laminate, its
deflection under pressure as a stress-stiffened clamped square plate, and
the resulting capacitance between the metal-2 top electrode and the
poly-silicon bottom electrode.
"""

from .materials import (
    ALUMINUM,
    Layer,
    Material,
    SILICON_NITRIDE,
    SILICON_OXIDE,
    paper_membrane_stack,
)
from .laminate import Laminate
from .plate import ClampedSquarePlate, PlateSolution
from .capacitor import DeflectedPlateCapacitor
from .membrane import MembraneSensor
from .geometry import ArrayGeometry
from .thermal import ThermalMembraneModel, ThermalState, drift_induced_bp_error_mmhg

__all__ = [
    "ALUMINUM",
    "ArrayGeometry",
    "ClampedSquarePlate",
    "DeflectedPlateCapacitor",
    "Laminate",
    "Layer",
    "Material",
    "MembraneSensor",
    "PlateSolution",
    "SILICON_NITRIDE",
    "SILICON_OXIDE",
    "ThermalMembraneModel",
    "ThermalState",
    "drift_induced_bp_error_mmhg",
    "paper_membrane_stack",
]
