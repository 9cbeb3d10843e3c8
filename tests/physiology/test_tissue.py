"""Tissue transfer to the skin surface."""

import numpy as np
import pytest

from repro.physiology.tissue import TissueTransfer


@pytest.fixture(scope="module")
def tissue() -> TissueTransfer:
    return TissueTransfer()


class TestLateralProfile:
    def test_peak_on_axis(self, tissue):
        assert tissue.lateral_profile(0.0) == pytest.approx(1.0)

    def test_symmetric(self, tissue):
        x = np.linspace(0, 5e-3, 10)
        assert tissue.lateral_profile(x) == pytest.approx(
            tissue.lateral_profile(-x)
        )

    def test_one_sigma_value(self, tissue):
        s = tissue.params.surface_spread_m
        assert tissue.lateral_profile(s) == pytest.approx(np.exp(-0.5))

    def test_decays_with_offset(self, tissue):
        x = np.linspace(0, 10e-3, 30)
        prof = tissue.lateral_profile(x)
        assert np.all(np.diff(prof) < 0)
