"""Array geometry."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mems.geometry import ArrayGeometry
from repro.params import ArrayParams


@pytest.fixture(scope="module")
def geometry() -> ArrayGeometry:
    return ArrayGeometry(ArrayParams())


class TestElementLayout:
    def test_2x2_centers(self, geometry):
        centers = geometry.element_centers_m()
        assert centers.shape == (4, 2)
        pitch = geometry.pitch_m
        # Corners of a pitch-sized square centered on the origin.
        expected = np.array(
            [
                [-pitch / 2, -pitch / 2],
                [pitch / 2, -pitch / 2],
                [-pitch / 2, pitch / 2],
                [pitch / 2, pitch / 2],
            ]
        )
        assert centers == pytest.approx(expected)

    def test_centroid_at_origin(self, geometry):
        centers = geometry.element_centers_m()
        assert centers.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-18)

    def test_index_round_trip(self, geometry):
        for idx in range(4):
            row, col = geometry.element_rowcol(idx)
            assert geometry.element_index(row, col) == idx

    def test_index_bounds(self, geometry):
        with pytest.raises(ConfigurationError):
            geometry.element_index(2, 0)
        with pytest.raises(ConfigurationError):
            geometry.element_rowcol(4)

    def test_span(self, geometry):
        side = geometry.params.membrane.side_m
        pitch = geometry.pitch_m
        assert geometry.span_m == pytest.approx((pitch + side, pitch + side))

    def test_paper_array_fits_paper_die(self, geometry):
        assert geometry.footprint_fits_die(2.6e-3, 1.9e-3)

    def test_huge_array_does_not_fit(self):
        big = ArrayGeometry(ArrayParams(rows=32, cols=32))
        assert not big.footprint_fits_die(2.6e-3, 1.9e-3)

    def test_asymmetric_array(self):
        geom = ArrayGeometry(ArrayParams(rows=1, cols=4))
        centers = geom.element_centers_m()
        assert centers.shape == (4, 2)
        assert np.all(centers[:, 1] == 0.0)
        assert np.all(np.diff(centers[:, 0]) > 0)
