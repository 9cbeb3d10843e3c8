"""End-to-end tonometric coupling."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mems.geometry import ArrayGeometry
from repro.params import ArrayParams
from repro.tonometry.contact import ContactModel
from repro.tonometry.coupling import TonometricCoupling
from repro.tonometry.placement import ArrayPlacement


@pytest.fixture(scope="module")
def coupling() -> TonometricCoupling:
    return TonometricCoupling(
        ArrayGeometry(ArrayParams()),
        ContactModel(),
        contact_heterogeneity=0.0,
    )


class TestPressureField:
    def test_shape(self, coupling):
        arterial = np.full(100, coupling.contact.map_pa)
        field = coupling.element_pressures_pa(arterial)
        assert field.shape == (100, 4)

    def test_at_map_field_is_static(self, coupling):
        arterial = np.full(50, coupling.contact.map_pa)
        field = coupling.element_pressures_pa(arterial)
        state = coupling.contact.state()
        assert field == pytest.approx(
            state.static_membrane_pressure_pa * np.ones_like(field)
        )

    def test_pulsatile_component_scales_with_gain(self, coupling):
        delta = 1000.0
        arterial = coupling.contact.map_pa + np.array([0.0, delta])
        field = coupling.element_pressures_pa(arterial)
        gains = coupling.effective_gain()
        swing = field[1] - field[0]
        assert swing == pytest.approx(gains * delta)

    def test_rejects_2d_input(self, coupling):
        with pytest.raises(ConfigurationError):
            coupling.element_pressures_pa(np.zeros((10, 2)))

    def test_hold_down_override(self, coupling):
        arterial = np.full(10, coupling.contact.map_pa + 1000.0)
        strong = coupling.element_pressures_pa(
            arterial, hold_down_pa=coupling.contact.optimal_hold_down_pa
        )
        weak = coupling.element_pressures_pa(arterial, hold_down_pa=500.0)
        # Weak hold-down: less static pressure and less pulse.
        assert weak.mean() < strong.mean()


class TestHeterogeneity:
    def test_zero_heterogeneity_uniform(self, coupling):
        assert coupling.contact_quality == pytest.approx(np.ones(4))

    def test_heterogeneity_differentiates_elements(self):
        het = TonometricCoupling(
            ArrayGeometry(ArrayParams()),
            ContactModel(),
            contact_heterogeneity=0.3,
            rng=np.random.default_rng(8),
        )
        assert het.contact_quality.std() > 0.01
        assert np.all(het.contact_quality <= 1.0)
        assert np.all(het.contact_quality >= 0.0)

    def test_reproducible_draw(self):
        a = TonometricCoupling(
            ArrayGeometry(ArrayParams()), ContactModel(),
            rng=np.random.default_rng(5),
        )
        b = TonometricCoupling(
            ArrayGeometry(ArrayParams()), ContactModel(),
            rng=np.random.default_rng(5),
        )
        assert a.contact_quality == pytest.approx(b.contact_quality)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            TonometricCoupling(
                ArrayGeometry(ArrayParams()),
                ContactModel(),
                contact_heterogeneity=-0.1,
            )


class TestPlacementTransfer:
    def test_with_placement_preserves_quality_draw(self):
        base = TonometricCoupling(
            ArrayGeometry(ArrayParams()), ContactModel(),
            contact_heterogeneity=0.3, rng=np.random.default_rng(9),
        )
        moved = base.with_placement(ArrayPlacement(lateral_offset_m=1e-3))
        assert moved.contact_quality == pytest.approx(base.contact_quality)
        assert moved.placement.lateral_offset_m == 1e-3

    def test_offset_reduces_gain(self, coupling):
        centered = coupling.effective_gain()
        moved = coupling.with_placement(
            ArrayPlacement(lateral_offset_m=4e-3)
        ).effective_gain()
        assert np.all(moved < centered)


class TestScanSegments:
    def test_rows_match_full_field_diagonal(self, coupling):
        """Row k must be bit-identical to the dwell window of column k in
        the full field — the memory-lean path may not drift."""
        dwell = 25
        rng = np.random.default_rng(13)
        arterial = coupling.contact.map_pa + 800.0 * rng.standard_normal(
            dwell * 4
        )
        segments = coupling.scan_pressure_segments(arterial, dwell)
        field = coupling.element_pressures_pa(arterial)
        assert segments.shape == (4, dwell)
        for k in range(4):
            assert np.array_equal(
                segments[k], field[k * dwell : (k + 1) * dwell, k]
            )

    def test_hold_down_override_forwarded(self, coupling):
        arterial = np.full(8, coupling.contact.map_pa + 500.0)
        weak = coupling.scan_pressure_segments(
            arterial, 2, hold_down_pa=500.0
        )
        strong = coupling.scan_pressure_segments(arterial, 2)
        assert weak.mean() < strong.mean()

    def test_validation(self, coupling):
        with pytest.raises(ConfigurationError):
            coupling.scan_pressure_segments(np.zeros((4, 4)), 2)
        with pytest.raises(ConfigurationError):
            coupling.scan_pressure_segments(np.zeros(8), 0)
        with pytest.raises(ConfigurationError):
            coupling.scan_pressure_segments(np.zeros(7), 2)


class TestFieldLayout:
    """``pressure_field_fn`` builds the field element-major (F-ordered)
    with the values of the time-major formula, and every session reads
    the layout the same way."""

    @staticmethod
    def het_coupling():
        return TonometricCoupling(
            ArrayGeometry(ArrayParams()), ContactModel(),
            contact_heterogeneity=0.3, rng=np.random.default_rng(21),
        )

    @staticmethod
    def arterial(coupling, n, seed=4):
        t = np.arange(n) / 128e3
        rng = np.random.default_rng(seed)
        return coupling.contact.map_pa + (
            2500.0 * np.sin(2 * np.pi * 1.2 * t)
            + 30.0 * rng.standard_normal(n)
        )

    @pytest.mark.parametrize("splits", [(1, 1, 5), (127, 129, 700), (3000,)])
    def test_equals_time_major_formula_over_chunk_splits(self, splits):
        coupling = self.het_coupling()
        state = coupling.contact.state()
        weights = coupling.element_weights()
        arterial = self.arterial(coupling, 4000)
        field = coupling.pressure_field_fn()
        edges = np.cumsum((0,) + splits + (arterial.size - sum(splits),))
        for lo, hi in zip(edges[:-1], edges[1:]):
            chunk = field(arterial[lo:hi])
            old = state.static_membrane_pressure_pa + state.transmission * (
                np.multiply.outer(arterial[lo:hi] - coupling.contact.map_pa,
                                  weights)
            )
            assert chunk.shape == old.shape
            assert chunk.flags.f_contiguous
            assert np.array_equal(chunk, old)
        assert coupling.element_pressures_pa(arterial).flags.f_contiguous

    @pytest.mark.parametrize("compiled", [True, False])
    def test_solo_and_batch_sessions_agree(self, request, compiled):
        from repro.batch import BatchAcquisitionSession
        from repro.core.chain import ReadoutChain
        from repro.core.session import AcquisitionSession
        from repro.params import SystemParams

        if not compiled:
            request.getfixturevalue("no_native")
        coupling = self.het_coupling()
        field = coupling.pressure_field_fn()
        arterial = self.arterial(coupling, 128 * 60)
        chunks = [
            field(arterial[lo : lo + 1000])
            for lo in range(0, arterial.size, 1000)
        ]

        def chain(seed):
            return ReadoutChain(
                SystemParams(), rng=np.random.default_rng(seed)
            )

        def solo(seed, layout):
            session = AcquisitionSession(chain(seed), element=2)
            for c in chunks:
                session.feed_pressure(layout(c))
            session.finish()
            return session.recording().codes

        batch = BatchAcquisitionSession([chain(1), chain(2)], element=2)
        for c in chunks:
            batch.feed_pressure([c, c])
        batch.finish()
        for lane, seed in enumerate((1, 2)):
            f_order = solo(seed, lambda c: c)
            assert f_order.size > 0
            assert np.array_equal(f_order, solo(seed, np.ascontiguousarray))
            assert np.array_equal(batch.codes(lane), f_order)
