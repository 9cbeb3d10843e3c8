"""Array placement over the artery: offsets, rotation, coupling weights.

Sec. 2 of the paper: "In order to relax the necessary accuracy of sensor
placement, an array of force detectors is used." This module computes how
well each element couples to the artery for a given placement: the artery
is a line (along the y axis of the patient frame), the array is placed
with a lateral offset and rotation, and each element's transverse distance
to the vessel axis feeds the tissue's lateral coupling profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..mems.geometry import ArrayGeometry
from ..physiology.tissue import TissueTransfer


@dataclass(frozen=True)
class ArrayPlacement:
    """Where the array sits relative to the artery.

    Parameters
    ----------
    lateral_offset_m:
        Distance of the array center from the artery axis, transverse to
        the vessel (the placement-error axis that matters).
    axial_offset_m:
        Offset along the vessel; irrelevant for a straight artery but kept
        for completeness of the frame transform.
    rotation_rad:
        Rotation of the array relative to the artery axis.
    """

    lateral_offset_m: float = 0.0
    axial_offset_m: float = 0.0
    rotation_rad: float = 0.0

    def element_transverse_offsets_m(
        self, geometry: ArrayGeometry
    ) -> np.ndarray:
        """Per-element transverse distance to the artery axis.

        Elements are first rotated into the patient frame, then offset;
        the artery runs along y, so the transverse coordinate is x.
        """
        centers = geometry.element_centers_m()
        c, s = math.cos(self.rotation_rad), math.sin(self.rotation_rad)
        x = centers[:, 0] * c - centers[:, 1] * s + self.lateral_offset_m
        return x

    def coupling_weights(
        self, geometry: ArrayGeometry, tissue: TissueTransfer
    ) -> np.ndarray:
        """Per-element pulsatile coupling factors in [0, 1]."""
        offsets = self.element_transverse_offsets_m(geometry)
        return tissue.lateral_profile(offsets)

    def perturbed(
        self, delta_lateral_m: float, delta_rotation_rad: float = 0.0
    ) -> "ArrayPlacement":
        """A displaced placement (for placement-tolerance sweeps)."""
        return ArrayPlacement(
            lateral_offset_m=self.lateral_offset_m + delta_lateral_m,
            axial_offset_m=self.axial_offset_m,
            rotation_rad=self.rotation_rad + delta_rotation_rad,
        )
