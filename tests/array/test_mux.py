"""Analog multiplexer and settling budget."""

import numpy as np
import pytest

from repro.array.array2d import SensorArray
from repro.array.mux import AnalogMultiplexer, analyze_mux_timing
from repro.dsp.decimator import DecimationFilter
from repro.errors import ConfigurationError
from tests.helpers import field_segments


@pytest.fixture()
def mux() -> AnalogMultiplexer:
    return AnalogMultiplexer(SensorArray())


class TestSelection:
    def test_default_element_zero(self, mux):
        assert mux.selected == 0

    def test_select_rowcol(self, mux):
        mux.select(1, 0)
        assert mux.selected == 2

    def test_select_index(self, mux):
        mux.select_index(3)
        assert mux.selected == 3

    def test_out_of_range(self, mux):
        with pytest.raises(ConfigurationError):
            mux.select_index(4)
        with pytest.raises(ConfigurationError):
            mux.select(2, 0)


class TestRouting:
    def test_routes_selected_column(self, mux):
        pressures = np.zeros((5, 4))
        pressures[:, 2] = 1000.0
        mux.select_index(2)
        routed = mux.routed_capacitance_f(pressures)
        # After the switch glitch (first sample), steady value is the
        # element-2 capacitance under 1000 Pa.
        expected = mux.array.elements[2].capacitance_f(1000.0)[0]
        assert routed[1:] == pytest.approx(expected)

    def test_charge_injection_glitch_on_switch(self, mux):
        pressures = np.zeros((5, 4))
        mux.select_index(1)
        routed = mux.routed_capacitance_f(pressures)
        assert routed[0] > routed[1]  # one-sample glitch
        # Second call without switching: no glitch.
        routed2 = mux.routed_capacitance_f(pressures)
        assert routed2[0] == pytest.approx(routed2[1])

    def test_no_glitch_when_reselecting_same(self, mux):
        pressures = np.zeros((3, 4))
        mux.routed_capacitance_f(pressures)  # clear initial state
        mux.select_index(0)  # same element: no switch
        routed = mux.routed_capacitance_f(pressures)
        assert routed[0] == pytest.approx(routed[1])

    def test_shape_validation(self, mux):
        with pytest.raises(ConfigurationError):
            mux.routed_capacitance_f(np.zeros(4))


class TestTiming:
    def test_electrical_constant_nanoseconds(self, mux):
        # 2 kOhm * ~174 fF ~ 0.35 ns
        assert mux.electrical_time_constant_s < 1e-8

    def test_filter_dominates(self, mux):
        timing = analyze_mux_timing(mux, DecimationFilter())
        assert timing.dominant == "filter"
        assert timing.electrical_settling_s < 1e-6
        assert timing.filter_flush_s > 1e-3

    def test_discarded_words_positive(self, mux):
        timing = analyze_mux_timing(mux, DecimationFilter())
        assert 1 <= timing.output_words_discarded <= 32

    def test_scan_rate_finite(self, mux):
        timing = analyze_mux_timing(mux, DecimationFilter())
        assert 10.0 < timing.max_scan_rate_hz < 1000.0

    def test_rejects_bad_resistance(self):
        with pytest.raises(ConfigurationError):
            AnalogMultiplexer(SensorArray(), switch_resistance_ohm=0.0)


def visit_caps(mux, segments):
    """Route each element's dwell row the way a scan visits it: select
    the element, then route its row as a zero-copy (dwell, n) window."""
    n_el, dwell = segments.shape
    rows = []
    for k in range(n_el):
        mux.select_index(k)
        window = np.broadcast_to(segments[k][:, None], (dwell, n_el))
        rows.append(mux.routed_capacitance_f(window))
    return np.vstack(rows)


def ideal_scan_chain():
    from repro.core.chain import ReadoutChain
    from repro.params import NonidealityParams, SystemParams

    params = SystemParams().replace(nonideality=NonidealityParams.ideal())
    return ReadoutChain(params, rng=np.random.default_rng(3))


class TestScanSegments:
    def _field(self, dwell, n_elements=4, seed=7):
        rng = np.random.default_rng(seed)
        return 2000.0 * rng.standard_normal((dwell * n_elements, 4))

    def test_matches_sequential_selection(self):
        """A segment row routed as a broadcast window == the element's
        column of the full-field window."""
        dwell = 6
        field = self._field(dwell)

        seq_mux = AnalogMultiplexer(SensorArray())
        sequential = []
        for k in range(4):
            seq_mux.select_index(k)
            sequential.append(
                seq_mux.routed_capacitance_f(
                    field[k * dwell : (k + 1) * dwell]
                )
            )
        sequential = np.vstack(sequential)

        segments = field_segments(field, dwell)
        got = visit_caps(AnalogMultiplexer(SensorArray()), segments)
        assert np.array_equal(got, sequential)

    def test_injection_semantics(self, mux):
        caps = visit_caps(mux, np.zeros((4, 3)))
        # Element 0 was already routed: no glitch. Every later visit is
        # a real switch: one-sample glitch on its first word.
        assert caps[0, 0] == pytest.approx(caps[0, 1])
        assert np.all(caps[1:, 0] > caps[1:, 1])
        assert mux.selected == 3  # scan leaves the last element routed

    def test_injection_when_scan_starts_elsewhere(self):
        mux = AnalogMultiplexer(SensorArray())
        mux.select_index(2)
        caps = visit_caps(mux, np.zeros((4, 3)))
        assert caps[0, 0] > caps[0, 1]  # visiting element 0 is a switch

    def test_validation(self):
        from repro.array.scan import ScanController

        chain = ideal_scan_chain()
        controller = ScanController(chain.chip.mux)
        with pytest.raises(ConfigurationError):
            controller.scan_records(
                chain, segments=np.zeros((3, 5)), batched=True
            )
        with pytest.raises(ConfigurationError):
            controller.scan_records(
                chain, segments=np.zeros((4, 0)), batched=True
            )
        with pytest.raises(ConfigurationError):
            chain.chip.acquire_pressure_scan(np.zeros((10, 4)), 5)


class TestScanSchedule:
    def _schedule(self, **overrides):
        from repro.array.mux import ScanSchedule

        base = dict(
            rows=8,
            cols=8,
            banks=1,
            settle_words=9,
            valid_words=91,
            output_rate_hz=1000.0,
            total_decimation=128,
        )
        base.update(overrides)
        return ScanSchedule(**base)

    def test_shared_converter_timetable(self):
        schedule = self._schedule()
        assert schedule.n_elements == 64
        assert schedule.words_per_visit == 100
        assert schedule.element_dwell_s == pytest.approx(0.1)
        assert schedule.visits_per_bank == 64
        assert schedule.frame_time_s == pytest.approx(6.4)
        assert schedule.frame_rate_hz == pytest.approx(1 / 6.4)
        assert schedule.elements_per_s == pytest.approx(10.0)
        assert schedule.efficiency == pytest.approx(0.91)

    def test_per_column_banks_divide_frame_time(self):
        shared = self._schedule()
        banked = self._schedule(banks=8)
        assert banked.visits_per_bank == 8
        assert banked.frame_time_s == pytest.approx(shared.frame_time_s / 8)
        assert banked.elements_per_s == pytest.approx(
            8 * shared.elements_per_s
        )

    def test_uneven_bank_split_rounds_up(self):
        schedule = self._schedule(rows=3, cols=3, banks=2)
        assert schedule.visits_per_bank == 5

    def test_describe(self):
        text = self._schedule().describe()
        assert "8x8" in text and "settle" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self._schedule(banks=0)
        with pytest.raises(ConfigurationError):
            self._schedule(banks=65)
        with pytest.raises(ConfigurationError):
            self._schedule(valid_words=0)
        with pytest.raises(ConfigurationError):
            self._schedule(settle_words=-1)
        with pytest.raises(ConfigurationError):
            self._schedule(rows=0)
        with pytest.raises(ConfigurationError):
            self._schedule(output_rate_hz=0.0)

    def test_plan_scan_takes_settling_budget_from_timing(self, mux):
        from repro.array.mux import plan_scan

        decimator = DecimationFilter()
        timing = analyze_mux_timing(mux, decimator)
        schedule = plan_scan(
            timing,
            rows=2,
            cols=2,
            output_rate_hz=decimator.output_rate_hz,
            total_decimation=decimator.params.total_decimation,
            valid_words=5,
        )
        assert schedule.settle_words == timing.output_words_discarded
        assert schedule.words_per_visit == timing.output_words_discarded + 5
