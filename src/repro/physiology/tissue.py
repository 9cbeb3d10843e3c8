"""Tissue transfer: artery-wall motion to skin-surface displacement.

Between the artery and the sensor lies a few millimeters of soft tissue.
It acts as a spatial low-pass: the wall's radial motion appears at the
surface as a broadened bump centered above the vessel, a Gaussian lateral
profile transverse to the vessel axis with spread ``surface_spread_m``
(the artery is treated as running along y, so the profile varies with
the transverse offset x only).

This spatial profile is what makes the 2x2 array useful: elements at
different transverse offsets see measurably different pulse amplitudes,
enabling the strongest-element selection of Sec. 2.
"""

from __future__ import annotations

import numpy as np

from ..params import TissueParams


class TissueTransfer:
    """Lateral spread of the artery's pulse through the overlying tissue."""

    def __init__(self, params: TissueParams | None = None):
        self.params = params or TissueParams()

    def lateral_profile(self, offset_m: np.ndarray | float) -> np.ndarray:
        """Normalized bump profile vs. transverse offset from the artery."""
        x = np.asarray(offset_m, dtype=float)
        s = self.params.surface_spread_m
        return np.exp(-(x**2) / (2.0 * s**2))
