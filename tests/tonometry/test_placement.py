"""Array placement over the artery."""

import numpy as np
import pytest

from repro.mems.geometry import ArrayGeometry
from repro.params import ArrayParams
from repro.physiology.tissue import TissueTransfer
from repro.tonometry.placement import ArrayPlacement


@pytest.fixture(scope="module")
def geometry() -> ArrayGeometry:
    return ArrayGeometry(ArrayParams())


@pytest.fixture(scope="module")
def tissue() -> TissueTransfer:
    return TissueTransfer()


class TestOffsets:
    def test_centered_placement_symmetric(self, geometry):
        offs = ArrayPlacement().element_transverse_offsets_m(geometry)
        assert sorted(offs) == pytest.approx([-75e-6, -75e-6, 75e-6, 75e-6])

    def test_lateral_offset_shifts_all(self, geometry):
        base = ArrayPlacement().element_transverse_offsets_m(geometry)
        moved = ArrayPlacement(
            lateral_offset_m=1e-3
        ).element_transverse_offsets_m(geometry)
        assert moved == pytest.approx(base + 1e-3)

    def test_rotation_90deg_swaps_axes(self, geometry):
        rotated = ArrayPlacement(
            rotation_rad=np.pi / 2
        ).element_transverse_offsets_m(geometry)
        # After 90 deg rotation, transverse offsets come from y coords.
        assert sorted(rotated) == pytest.approx(
            [-75e-6, -75e-6, 75e-6, 75e-6]
        )

    def test_perturbed(self):
        p = ArrayPlacement(lateral_offset_m=1e-3).perturbed(0.5e-3, 0.1)
        assert p.lateral_offset_m == pytest.approx(1.5e-3)
        assert p.rotation_rad == pytest.approx(0.1)


class TestWeights:
    def test_centered_weights_near_unity(self, geometry, tissue):
        w = ArrayPlacement().coupling_weights(geometry, tissue)
        assert np.all(w > 0.99)  # 75 um << 2.5 mm spread

    def test_far_placement_low_weights(self, geometry, tissue):
        w = ArrayPlacement(lateral_offset_m=8e-3).coupling_weights(
            geometry, tissue
        )
        assert np.all(w < 0.01)

    def test_offset_orders_columns(self, geometry, tissue):
        """With the array shifted +x, the -x column is closer to the
        artery (at x=0 in patient frame... the artery is at transverse
        offset 0, elements sit at offset + center) so it couples better."""
        w = ArrayPlacement(lateral_offset_m=1e-3).coupling_weights(
            geometry, tissue
        )
        # Elements 0, 2 are the -x column (offset 1e-3 - 75e-6).
        assert w[0] > w[1]
        assert w[2] > w[3]
