"""The IMG pressure-imaging harness at reduced scale."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import run_imaging


class TestImagingHarness:
    @pytest.fixture(scope="class")
    def result(self):
        # A fast pulse keeps the one-period-per-element dwell short
        # enough for a full chain scan in a unit test.
        return run_imaging(rows=4, cols=5, pulse_rate_hz=5.0)

    def test_amplitude_map_from_chain_scan(self, result):
        assert result.array_shape == (4, 5)
        assert result.amplitude_map.shape == (4, 5)
        assert np.all(np.isfinite(result.amplitude_map))
        assert result.amplitude_map.max() > 0

    def test_artery_line_recovered_subpixel(self, result):
        # "Sub-pixel" at wrist scale: the 0.6 mm pitch bounds the error.
        assert result.transverse_error_m < 0.6e-3
        assert abs(result.est_angle_rad) < 0.5

    def test_fusion_never_loses_to_strongest(self, result):
        assert result.fusion_gain_predicted >= 1.0
        assert result.fusion_gain_measured > 0.9

    def test_registration_tracks_drift(self, result):
        assert abs(result.registered_drift_m + result.drift_m) < 0.3e-3

    def test_scan_timetable(self, result):
        assert result.frame_rate_banked_hz == pytest.approx(
            5 * result.frame_rate_shared_hz
        )
        assert result.truncated_words >= 0

    def test_rows_render(self, result):
        rows = result.rows()
        assert any("frame rate" in r[0] for r in rows)
        assert all(len(r) == 3 for r in rows)

    def test_rejects_degenerate_array(self):
        with pytest.raises(ConfigurationError):
            run_imaging(rows=1, cols=8)
        with pytest.raises(ConfigurationError):
            run_imaging(rows=8, cols=2)
