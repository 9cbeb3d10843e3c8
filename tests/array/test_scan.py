"""Scan controller: strongest-element selection and scan bookkeeping."""

import numpy as np
import pytest

from repro.array.array2d import SensorArray
from repro.array.mux import AnalogMultiplexer
from repro.array.scan import ScanController
from repro.errors import ConfigurationError, SignalQualityError


@pytest.fixture()
def controller() -> ScanController:
    return ScanController(AnalogMultiplexer(SensorArray()))


def synth_signals(amplitudes, n=200, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 100.0
    pulse = np.sin(2 * np.pi * 1.2 * t)
    sig = np.outer(pulse, np.asarray(amplitudes))
    return sig + 1e-6 * rng.standard_normal(sig.shape)


class TestSelection:
    def test_picks_strongest(self, controller):
        selection = controller.select_strongest(
            synth_signals([0.2, 1.0, 0.4, 0.6])
        )
        assert selection.best_index == 1
        assert (selection.best_row, selection.best_col) == (0, 1)

    def test_mux_follows_selection(self, controller):
        controller.select_strongest(synth_signals([0.2, 0.3, 0.9, 0.1]))
        assert controller.mux.selected == 2

    def test_amplitude_map_shape(self, controller):
        selection = controller.select_strongest(
            synth_signals([1, 2, 3, 4])
        )
        assert selection.amplitude_map.shape == (2, 2)
        assert selection.amplitude_map[1, 1] == selection.amplitude_map.max()

    def test_contrast(self, controller):
        selection = controller.select_strongest(
            synth_signals([1.0, 1.0, 1.0, 2.0])
        )
        assert selection.contrast == pytest.approx(2.0, rel=0.05)

    def test_std_metric(self, controller):
        selection = controller.select_strongest(
            synth_signals([0.1, 0.9, 0.2, 0.3]), metric="std"
        )
        assert selection.best_index == 1

    def test_unknown_metric(self, controller):
        with pytest.raises(ConfigurationError):
            controller.select_strongest(synth_signals([1, 1, 1, 1]), metric="mad")

    def test_flat_signals_raise(self, controller):
        with pytest.raises(SignalQualityError):
            controller.select_strongest(np.zeros((100, 4)))

    def test_shape_validation(self, controller):
        with pytest.raises(ConfigurationError):
            controller.select_strongest(np.zeros((100, 3)))
        with pytest.raises(ConfigurationError):
            controller.select_strongest(np.zeros((1, 4)))

    def test_describe(self, controller):
        selection = controller.select_strongest(synth_signals([1, 2, 3, 4]))
        assert "selected element" in selection.describe()


def ideal_chain(rows=2, cols=2):
    from repro.core.chain import ReadoutChain
    from repro.params import ArrayParams, NonidealityParams, SystemParams

    base = SystemParams()
    return ReadoutChain(
        base.replace(
            array=ArrayParams(
                rows=rows, cols=cols, membrane=base.array.membrane
            ),
            nonideality=NonidealityParams.ideal(),
        )
    )


class TestScanTruncationBooking:
    def test_batched_scan_books_flush_asymmetry(self):
        """The element already routed at scan start keeps the words the
        FPGA suppresses everywhere else; the alignment drop is booked."""
        chain = ideal_chain()
        controller = ScanController(chain.chip.mux)
        segments = np.zeros((4, 12 * 128))
        records = controller.scan_records(
            chain, segments=segments, batched=True
        )
        trunc = controller.last_scan_truncation
        assert trunc is not None
        assert records.shape[0] == trunc.words_kept
        assert trunc.words_dropped.tolist() == [8, 0, 0, 0]
        assert trunc.total_dropped == 8
        assert (trunc.words_recorded - trunc.words_dropped).tolist() == [
            trunc.words_kept
        ] * 4
        assert "element 0: -8" in trunc.describe()

    def test_equal_records_describe(self):
        from repro.array.scan import ScanTruncation

        trunc = ScanTruncation(
            words_recorded=np.array([5, 5]),
            words_kept=5,
            words_dropped=np.array([0, 0]),
        )
        assert trunc.total_dropped == 0
        assert "all records equal" in trunc.describe()


class TestScanAndLocalize:
    def test_fused_segments_localize_hot_column(self):
        chain = ideal_chain()
        controller = ScanController(chain.chip.mux)
        dwell = 24 * 128
        t = np.arange(dwell) / 128e3
        tone = np.sin(2 * np.pi * 40.0 * t)
        amplitudes = np.array([500.0, 3000.0, 500.0, 3000.0])  # +x column
        segments = amplitudes[:, None] * tone[None, :]
        records = controller.scan_records(
            chain, batched=True, segments=segments, fused=True
        )
        amplitudes = np.ptp(records[9:], axis=0)  # +x column is 1 and 3
        assert amplitudes[[1, 3]].min() > 2.0 * amplitudes[[0, 2]].max()
        assert controller.select_strongest(records[9:]).best_col == 1


class TestSchedule:
    def test_controller_schedule_wires_timing_and_layout(self, controller):
        from repro.array.mux import analyze_mux_timing
        from repro.dsp.decimator import DecimationFilter

        decimator = DecimationFilter()
        schedule = controller.schedule(decimator, valid_words=10, banks=2)
        timing = analyze_mux_timing(controller.mux, decimator)
        assert (schedule.rows, schedule.cols) == (2, 2)
        assert schedule.banks == 2
        assert schedule.settle_words == timing.output_words_discarded
        assert schedule.valid_words == 10
        assert schedule.output_rate_hz == decimator.output_rate_hz
        assert (
            schedule.total_decimation
            == decimator.params.total_decimation
        )


class TestScanArgumentChecks:
    """Bad scan arguments raise ConfigurationError before any visit."""

    @staticmethod
    def untouched_chain(monkeypatch):
        chain = ideal_chain()

        def touched(*args, **kw):
            raise AssertionError("the chain was driven")

        monkeypatch.setattr(chain, "record_pressure", touched)
        return chain

    @pytest.mark.parametrize("settle_words", [-1, float("nan")])
    def test_bad_settle_words_rejected(self, settle_words, monkeypatch):
        chain = self.untouched_chain(monkeypatch)
        segments = np.zeros((4, 128 * 16))
        with pytest.raises(ConfigurationError, match="settle_words"):
            ScanController(chain.chip.mux).scan_and_select(
                chain, segments, settle_words=settle_words
            )
