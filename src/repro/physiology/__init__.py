"""Virtual-patient substrate: the physiological ground truth.

The paper's Fig. 9 records a living subject's radial pulse. Our
substitution is a controllable hemodynamics simulator: a beat scheduler
with heart-rate variability, a radial-artery pulse-shape template (or a
Windkessel alternative), respiratory modulation and the tissue's lateral
coupling profile at the skin surface the sensor touches. Because the
ground-truth pressure is known exactly, calibration accuracy (the Fig. 9
experiment) can be quantified rather than eyeballed.
"""

from .heart import BeatSchedule, BeatScheduler
from .pulse import RadialPulseTemplate, ventricular_template
from .windkessel import WindkesselModel
from .respiration import RespirationModel
from .tissue import TissueTransfer
from .patient import PatientRecording, VirtualPatient
from .artifacts import ArtifactEvent, ArtifactRecord, MotionArtifactGenerator

__all__ = [
    "ArtifactEvent",
    "ArtifactRecord",
    "BeatSchedule",
    "BeatScheduler",
    "MotionArtifactGenerator",
    "PatientRecording",
    "RadialPulseTemplate",
    "RespirationModel",
    "TissueTransfer",
    "VirtualPatient",
    "WindkesselModel",
    "ventricular_template",
]
