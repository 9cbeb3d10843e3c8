"""Imaging primitives: maps, sub-pixel peaks, artery line, registration,
fusion."""

import math

import numpy as np
import pytest

from repro.array.imaging import (
    amplitude_image,
    fuse_elements,
    localize_artery,
    log_parabola_vertex,
)
from repro.errors import ConfigurationError, SignalQualityError
from repro.mems.geometry import ArrayGeometry
from repro.params import ArrayParams


def geometry(rows=8, cols=8) -> ArrayGeometry:
    return ArrayGeometry(ArrayParams(rows=rows, cols=cols))


def ridge_map(geo, transverse_m, angle_rad, sigma_m):
    """Analytic Gaussian artery ridge on the element grid."""
    centers = geo.element_centers_m()
    x = centers[:, 0].reshape(geo.rows, geo.cols)
    y = centers[:, 1].reshape(geo.rows, geo.cols)
    line_x = transverse_m + math.tan(angle_rad) * y
    return np.exp(-((x - line_x) ** 2) / (2 * sigma_m**2))


class TestAmplitudeImage:
    def test_row_major_fold(self):
        amps = np.arange(1.0, 7.0)
        t = np.linspace(0, 1, 50)
        signals = np.outer(np.sin(2 * np.pi * t), amps)
        img = amplitude_image(signals, 2, 3)
        assert img.shape == (2, 3)
        # Element (r, c) = flat index r * cols + c, and peak-to-peak
        # scales with the per-element amplitude.
        assert img[1, 2] == img.max()
        assert np.argmax(img.ravel()) == 5

    def test_std_metric(self):
        signals = np.outer(np.sin(np.linspace(0, 7, 60)), [1.0, 2.0, 3.0, 4.0])
        img = amplitude_image(signals, 2, 2, metric="std")
        assert img[1, 1] == img.max()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            amplitude_image(np.zeros((10, 5)), 2, 3)
        with pytest.raises(ConfigurationError):
            amplitude_image(np.zeros((10, 6)), 2, 3, metric="mad")


class TestLogParabolaVertex:
    def test_exact_on_gaussian(self):
        xs = np.linspace(-1.0, 1.0, 9)
        for peak in (0.13, -0.4):
            amp = np.exp(-((xs - peak) ** 2) / 0.5)
            assert log_parabola_vertex(xs, amp) == pytest.approx(peak, abs=1e-9)

    def test_peak_outside_footprint(self):
        xs = np.linspace(-1.0, 1.0, 9)
        amp = np.exp(-((xs - 1.7) ** 2) / 0.5)
        assert log_parabola_vertex(xs, amp) == pytest.approx(1.7, abs=1e-6)

    @pytest.mark.parametrize("level", [0.37, 5.3, 1.0])
    def test_flat_profile_falls_back_to_the_strongest_sample(self, level):
        """No curvature at any amplitude: ln(A) relative to the peak is
        exactly zero, so no rounding noise can fake a vertex."""
        xs = 0.6e-3 * (np.arange(8) - 3.5)
        amp = np.full(8, level)
        assert log_parabola_vertex(xs, amp) == xs[0]

    def test_two_points_fall_back_to_argmax(self):
        assert log_parabola_vertex(np.array([0.0, 1.0]), np.array([1.0, 2.0])) == 1.0

    def test_inverted_profile_falls_back_to_argmax(self):
        xs = np.linspace(-1, 1, 5)
        amp = np.exp((xs**2))  # valley, not peak
        assert log_parabola_vertex(xs, amp) == pytest.approx(xs[0])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            log_parabola_vertex(np.zeros(3), np.zeros(4))


class TestLocalizeArtery:
    def test_recovers_line(self):
        geo = geometry()
        x0, theta = 40e-6, 0.08
        est = localize_artery(
            ridge_map(geo, x0, theta, sigma_m=200e-6), geo
        )
        assert est.transverse_m == pytest.approx(x0, abs=1e-8)
        assert est.angle_rad == pytest.approx(theta, abs=1e-6)
        assert est.n_rows_used == geo.rows

    def test_flat_map_raises(self):
        geo = geometry(2, 3)
        with pytest.raises(SignalQualityError):
            localize_artery(np.zeros((2, 3)), geo)

    def test_shape_validated(self):
        with pytest.raises(ConfigurationError):
            localize_artery(np.ones((3, 3)), geometry(2, 3))

    def test_single_usable_row_falls_back_to_1d(self):
        """A line through one usable row is no line: with one pulsatile
        row a 4x4 map takes the 1-D estimate at zero tilt instead of a
        rank-deficient fit."""
        geo = geometry(4, 4)
        amps = np.zeros((4, 4))
        amps[1] = ridge_map(geo, 20e-6, 0.0, sigma_m=200e-6)[1]
        est = localize_artery(amps, geo)
        assert est.n_rows_used == 1
        assert est.angle_rad == 0.0

    def test_narrow_array_falls_back_to_1d(self):
        """Rows with < 3 usable columns collapse to the 1-D estimate."""
        geo = geometry(4, 3)
        amps = ridge_map(geo, 10e-6, 0.0, sigma_m=200e-6)
        amps[:, 2] = 0.0  # only two live columns per row
        est = localize_artery(amps, geo)
        assert est.n_rows_used == 0
        assert est.angle_rad == 0.0


class TestFuseElements:
    def synth(self, gains, n=400, noise=0.05, seed=3):
        rng = np.random.default_rng(seed)
        t = np.arange(n) / 100.0
        pulse = np.sin(2 * np.pi * 1.3 * t)
        return np.outer(pulse, gains) + noise * rng.standard_normal(
            (n, len(gains))
        )

    def test_predicted_gain_is_l2_over_max(self):
        fusion = fuse_elements(self.synth([1.0, 1.0, 1.0, 1.0], noise=0.0))
        assert fusion.predicted_snr_gain == pytest.approx(2.0, rel=1e-6)

    def test_weights_proportional_to_amplitude(self):
        fusion = fuse_elements(self.synth([3.0, 1.0], noise=0.0))
        assert fusion.weights.sum() == pytest.approx(1.0)
        assert fusion.weights[0] == pytest.approx(0.75, rel=1e-6)
        assert fusion.best_index == 0

    def test_fusion_reduces_noise(self):
        gains = [1.0, 1.0, 1.0, 1.0]
        signals = self.synth(gains, noise=0.2)
        fusion = fuse_elements(signals)
        t = np.arange(signals.shape[0]) / 100.0
        template = np.sin(2 * np.pi * 1.3 * t)
        template /= np.linalg.norm(template)

        def snr(record):
            amp = record @ template
            return amp / (record - amp * template).std()

        assert snr(fusion.waveform) > snr(signals[:, fusion.best_index])

    def test_exclude_bars_element(self):
        """A flat element carries no pulse and gets no weight."""
        signals = self.synth([5.0, 1.0], noise=0.0)
        signals[:, 0] = 0.3
        fusion = fuse_elements(signals)
        assert fusion.best_index == 1
        assert fusion.weights[0] == 0.0
        assert fusion.used.tolist() == [False, True]

    def test_all_excluded_raises(self):
        with pytest.raises(SignalQualityError):
            fuse_elements(np.full((10, 2), 0.3))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fuse_elements(np.zeros((1, 4)))
