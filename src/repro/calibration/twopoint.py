"""Two-point (systolic/diastolic) linear calibration against a cuff.

Exactly the procedure of Fig. 9: take one cuff reading (systolic and
diastolic in mmHg), match it to the raw waveform's mean systolic and
diastolic feature levels, and fit the two-parameter line

    mmHg = gain * raw + offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CalibrationError, ConfigurationError
from .features import BeatFeatures


@dataclass(frozen=True)
class TwoPointCalibration:
    """Affine raw-to-mmHg map established from one cuff reading."""

    gain_mmhg_per_raw: float
    offset_mmhg: float
    #: The anchor points used, kept for reporting.
    raw_systolic: float
    raw_diastolic: float
    cuff_systolic_mmhg: float
    cuff_diastolic_mmhg: float

    @classmethod
    def from_features(
        cls,
        features: BeatFeatures,
        cuff_systolic_mmhg: float,
        cuff_diastolic_mmhg: float,
    ) -> "TwoPointCalibration":
        """Build the calibration from detected beats plus a cuff reading."""
        if cuff_systolic_mmhg <= cuff_diastolic_mmhg:
            raise ConfigurationError(
                "cuff systolic must exceed cuff diastolic"
            )
        raw_sys = features.mean_systolic_raw
        raw_dia = features.mean_diastolic_raw
        if not np.isfinite(raw_sys) or not np.isfinite(raw_dia):
            raise CalibrationError("non-finite feature levels")
        if abs(raw_sys - raw_dia) < 1e-30:
            raise CalibrationError(
                "systolic and diastolic raw levels coincide; "
                "no pulsatile signal to calibrate"
            )
        gain = (cuff_systolic_mmhg - cuff_diastolic_mmhg) / (raw_sys - raw_dia)
        offset = cuff_diastolic_mmhg - gain * raw_dia
        return cls(
            gain_mmhg_per_raw=float(gain),
            offset_mmhg=float(offset),
            raw_systolic=float(raw_sys),
            raw_diastolic=float(raw_dia),
            cuff_systolic_mmhg=float(cuff_systolic_mmhg),
            cuff_diastolic_mmhg=float(cuff_diastolic_mmhg),
        )

    def apply(self, raw: np.ndarray | float) -> np.ndarray | float:
        """Map raw waveform values to calibrated mmHg.

        Scalar in, scalar out: a float input returns a Python float, not
        a 0-d ndarray.
        """
        arr = np.asarray(raw, dtype=float)
        out = self.gain_mmhg_per_raw * arr + self.offset_mmhg
        return float(out) if arr.ndim == 0 else out

    def describe(self) -> str:
        return (
            f"calibration: mmHg = {self.gain_mmhg_per_raw:.4g} * raw "
            f"+ {self.offset_mmhg:.4g} "
            f"(anchored at cuff {self.cuff_systolic_mmhg:.0f}/"
            f"{self.cuff_diastolic_mmhg:.0f} mmHg)"
        )
