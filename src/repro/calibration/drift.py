"""Calibration-drift tracking and re-calibration scheduling.

A cuff-anchored calibration decays: sensor warm-up changes the gain
(:mod:`repro.mems.thermal`), strap creep changes the operating point, and
the subject's own pressure wanders. Field protocols therefore re-cuff
periodically. This module provides the host-side pieces:

* :class:`DriftMonitor` — tracks the raw-feature trajectory (per-beat
  systolic/diastolic levels) and estimates how far the anchored
  calibration has likely drifted;
* :class:`RecalibrationPolicy` — decides when a new cuff reading is
  warranted (time-based floor plus drift-triggered).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CalibrationError, ConfigurationError
from .twopoint import TwoPointCalibration


@dataclass(frozen=True)
class DriftEstimate:
    """Drift of the raw feature levels since calibration."""

    elapsed_s: float
    offset_drift_raw: float  # change of the diastolic (baseline) level
    gain_drift_fraction: float  # change of the pulse amplitude, relative
    estimated_bp_error_mmhg: float


class DriftMonitor:
    """Tracks per-beat raw features against the calibration anchor."""

    def __init__(self, calibration: TwoPointCalibration):
        self.calibration = calibration
        self._times: list[float] = []
        self._sys_raw: list[float] = []
        self._dia_raw: list[float] = []

    def update(
        self, time_s: float, systolic_raw: float, diastolic_raw: float
    ) -> None:
        """Record the latest beat-feature levels."""
        if self._times and time_s < self._times[-1]:
            raise ConfigurationError("updates must be time-ordered")
        self._times.append(float(time_s))
        self._sys_raw.append(float(systolic_raw))
        self._dia_raw.append(float(diastolic_raw))

    def estimate(self, window: int = 10) -> DriftEstimate:
        """Compare recent feature levels to the calibration anchors.

        Raw-level changes are ambiguous (the subject's pressure may have
        truly changed), so the estimate is an *upper bound* on
        calibration error — exactly what a conservative recalibration
        trigger wants.
        """
        if not self._times:
            raise CalibrationError("no feature updates recorded")
        recent_sys = float(np.median(self._sys_raw[-window:]))
        recent_dia = float(np.median(self._dia_raw[-window:]))
        anchor_pp = self.calibration.raw_systolic - self.calibration.raw_diastolic
        recent_pp = recent_sys - recent_dia
        if anchor_pp == 0:
            raise CalibrationError("degenerate anchor")
        gain_drift = recent_pp / anchor_pp - 1.0
        offset_drift = recent_dia - self.calibration.raw_diastolic
        # Error bound: offset drift maps through the gain; gain drift
        # scales the cuff-anchored pulse pressure.
        cuff_pp = (
            self.calibration.cuff_systolic_mmhg
            - self.calibration.cuff_diastolic_mmhg
        )
        # Offset drift is indistinguishable from a true BP change, so only
        # the gain term — attributable to the instrument — enters the
        # error bound.
        error = abs(gain_drift) * cuff_pp
        return DriftEstimate(
            elapsed_s=self._times[-1] - self._times[0],
            offset_drift_raw=offset_drift,
            gain_drift_fraction=float(gain_drift),
            estimated_bp_error_mmhg=float(error),
        )


class RecalibrationPolicy:
    """When to take a fresh cuff reading.

    Parameters
    ----------
    max_interval_s:
        Hard ceiling between cuff readings (clinical practice: tens of
        minutes).
    drift_threshold_mmhg:
        Re-cuff early if the estimated calibration error exceeds this.
    min_interval_s:
        Never re-cuff faster than this (venous rest, comfort).
    """

    def __init__(
        self,
        max_interval_s: float = 1800.0,
        drift_threshold_mmhg: float = 5.0,
        min_interval_s: float = 120.0,
    ):
        if not 0 < min_interval_s < max_interval_s:
            raise ConfigurationError(
                "need 0 < min_interval < max_interval"
            )
        if drift_threshold_mmhg <= 0:
            raise ConfigurationError("threshold must be positive")
        self.max_interval_s = float(max_interval_s)
        self.drift_threshold_mmhg = float(drift_threshold_mmhg)
        self.min_interval_s = float(min_interval_s)

    def should_recalibrate(
        self, elapsed_since_cuff_s: float, drift: DriftEstimate | None
    ) -> bool:
        """The decision rule."""
        if elapsed_since_cuff_s < self.min_interval_s:
            return False
        if elapsed_since_cuff_s >= self.max_interval_s:
            return True
        if drift is not None and (
            drift.estimated_bp_error_mmhg >= self.drift_threshold_mmhg
        ):
            return True
        return False
