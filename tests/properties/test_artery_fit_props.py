"""The batched artery-line fit against its per-row spec.

``localize_artery`` solves every row's log-parabola fit at once from the
per-row normal equations, then the weighted line from its 2x2 normal
equations. The spec is the per-row form: :func:`log_parabola_vertex`
(``np.polyfit``) on each row with at least three positive samples, and a
weighted ``np.polyfit`` line through the row peaks. The two are not
bit-identical; the property is that every vertex and the line agree to
1e-9 relative (positions relative to the larger of their size and one
pitch).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.array.imaging import localize_artery, log_parabola_vertex
from repro.mems.geometry import ArrayGeometry
from repro.params import ArrayParams

RTOL = 1e-9


def geometry(rows, cols):
    return ArrayGeometry(ArrayParams(rows=rows, cols=cols))


def spec_localize(amps, geo, min_rows=2):
    """The per-row reference: one polyfit per row, one for the line."""
    rows = geo.rows
    xs = geo.column_x_m()
    ys = geo.row_y_m()
    positions = np.full(rows, np.nan)
    weights = np.zeros(rows)
    for r in range(rows):
        good = amps[r] > 0.0
        if np.count_nonzero(good) < 3:
            continue
        positions[r] = log_parabola_vertex(xs[good], amps[r][good])
        weights[r] = amps[r].max()
    usable = np.isfinite(positions) & (weights > 0.0)
    if np.count_nonzero(usable) >= min_rows:
        slope, intercept = np.polyfit(
            ys[usable], positions[usable], 1, w=np.sqrt(weights[usable])
        )
        return positions, float(intercept), math.atan(slope)
    col = amps.mean(axis=0)
    good = col > 0.0
    if np.count_nonzero(good) >= 3:
        return positions, log_parabola_vertex(xs[good], col[good]), 0.0
    return positions, float(xs[int(np.argmax(col))]), 0.0


def assert_matches_spec(amps, geo):
    est = localize_artery(amps, geo)
    positions, transverse, angle = spec_localize(amps, geo)
    scale = np.maximum(np.abs(positions), geo.pitch_m)
    assert np.array_equal(
        np.isnan(est.row_positions_m), np.isnan(positions)
    )
    live = ~np.isnan(positions)
    err = np.abs(est.row_positions_m[live] - positions[live]) / scale[live]
    assert np.all(err <= RTOL), err.max()
    assert abs(est.transverse_m - transverse) <= RTOL * max(
        abs(transverse), geo.pitch_m
    )
    assert abs(est.angle_rad - angle) <= RTOL * max(abs(angle), 1e-3)
    assert est.n_rows_used == np.count_nonzero(live)
    return est


def ridge(geo, x0, angle, sigma_pitches, rng=None, noise=0.0):
    """A Gaussian coupling ridge, optionally with multiplicative noise."""
    x = geo.column_x_m()[None, :]
    y = geo.row_y_m()[:, None]
    sigma = sigma_pitches * geo.pitch_m
    amps = np.exp(-((x - x0 - math.tan(angle) * y) ** 2) / (2 * sigma**2))
    if noise:
        amps *= rng.lognormal(0.0, noise, amps.shape)
    return amps


shapes = st.tuples(st.integers(3, 10), st.integers(3, 10))


class TestBatchedFitMatchesSpec:
    @settings(max_examples=150, deadline=None)
    @given(
        shape=shapes,
        x0_pitches=st.floats(-3.0, 3.0),
        angle=st.floats(-0.3, 0.3),
        sigma_pitches=st.floats(0.7, 4.0),
        noise=st.sampled_from([0.0, 0.02, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_gaussian_profiles(
        self, shape, x0_pitches, angle, sigma_pitches, noise, seed
    ):
        # The curvature's swing in ln(A) across a row must stand well
        # above the noise; a near-flat noisy row puts the vertex metres
        # away, where neither solve is accurate (both are then about
        # 1e-10 off an exact rational solve).
        swing = ((shape[1] - 1) / 2) ** 2 / (2 * sigma_pitches**2)
        assume(swing >= 20 * noise)
        geo = geometry(*shape)
        rng = np.random.default_rng(seed)
        amps = ridge(
            geo, x0_pitches * geo.pitch_m, angle, sigma_pitches, rng, noise
        )
        assert_matches_spec(amps, geo)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=shapes,
        x0_pitches=st.floats(-2.0, 2.0),
        drop=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_excluded_elements(self, shape, x0_pitches, drop, seed):
        """Dead elements (zero amplitude) drop out of their row's fit."""
        geo = geometry(*shape)
        rng = np.random.default_rng(seed)
        amps = ridge(geo, x0_pitches * geo.pitch_m, 0.05, 1.5, rng, 0.05)
        dead = rng.random(amps.shape) < drop
        if dead.all():
            dead[0, 0] = False
        assert_matches_spec(np.where(dead, 0.0, amps), geo)

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_with_exactly_three_good_points(self, seed):
        geo = geometry(6, 8)
        rng = np.random.default_rng(seed)
        amps = ridge(geo, rng.uniform(-1, 1) * geo.pitch_m, 0.1, 1.2)
        for r in range(geo.rows):
            keep = rng.choice(geo.cols, size=3, replace=False)
            dead = np.ones(geo.cols, dtype=bool)
            dead[keep] = False
            amps[r, dead] = 0.0
        est = assert_matches_spec(amps, geo)
        assert est.n_rows_used == geo.rows

    @pytest.mark.parametrize("level", [1.0, 0.37, 1e-3, 5.3])
    def test_flat_rows_fall_back_to_the_strongest_sample(self, level):
        """A flat row has no curvature: the vertex is the strongest
        (first) sample, in the batched fit and in the spec alike."""
        geo = geometry(5, 8)
        amps = ridge(geo, 0.3 * geo.pitch_m, 0.05, 1.5)
        amps[[1, 3]] = level
        est = assert_matches_spec(amps, geo)
        xs = geo.column_x_m()
        assert est.row_positions_m[1] == xs[0]
        assert est.row_positions_m[3] == xs[0]

    def test_inverted_rows_fall_back_to_the_strongest_sample(self):
        geo = geometry(4, 7)
        amps = ridge(geo, -0.4 * geo.pitch_m, 0.0, 1.3)
        xs = geo.column_x_m()
        amps[2] = np.exp((xs / geo.pitch_m) ** 2 / 8.0)  # a valley
        est = assert_matches_spec(amps, geo)
        assert est.row_positions_m[2] == xs[np.argmax(amps[2])]

    @pytest.mark.parametrize("seed", range(10))
    def test_column_fallback(self, seed):
        """Every row keeps two live samples, so no row fits; the column
        mean keeps three or more and takes the 1-D estimate."""
        geo = geometry(4, 6)
        rng = np.random.default_rng(seed)
        amps = ridge(geo, rng.uniform(-1, 1) * geo.pitch_m, 0.0, 1.5)
        for r in range(geo.rows):
            dead = np.ones(geo.cols, dtype=bool)
            dead[[(2 * r) % geo.cols, (2 * r + 1) % geo.cols]] = False
            amps[r, dead] = 0.0
        est = assert_matches_spec(amps, geo)
        assert est.n_rows_used == 0
        assert est.angle_rad == 0.0

    def test_column_fallback_to_the_strongest_column(self):
        geo = geometry(3, 5)
        amps = np.zeros((3, 5))
        amps[:, 1] = [0.2, 0.3, 0.1]
        amps[:, 3] = [0.5, 0.1, 0.2]
        est = assert_matches_spec(amps, geo)
        assert est.transverse_m == geo.column_x_m()[3]
