"""Readout chain: chip -> FPGA -> USB -> host."""

import numpy as np
import pytest

from repro.array.scan import ScanController
from repro.core.chain import ReadoutChain
from repro.errors import ConfigurationError
from tests.helpers import field_segments


@pytest.fixture()
def chain() -> ReadoutChain:
    return ReadoutChain(rng=np.random.default_rng(60))


def scan(chain, field, dwell_s, batched=False):
    """Visit every element of ``field`` for ``dwell_s``; return their
    records."""
    segments = field_segments(field, int(dwell_s * 128e3))
    return ScanController(chain.chip.mux).scan_records(
        chain, segments, batched=batched
    )


class TestVoltageRecording:
    def test_rates_and_sizes(self, chain):
        n_out = 32
        v = np.zeros(n_out * 128)
        rec = chain.record_voltage(v)
        assert rec.sample_rate_hz == pytest.approx(1000.0)
        assert rec.codes.size == n_out
        assert rec.duration_s == pytest.approx(n_out / 1000.0)

    def test_no_frame_loss(self, chain):
        rec = chain.record_voltage(np.zeros(128 * 100))
        assert rec.lost_frames == 0
        assert rec.crc_errors == 0

    def test_dc_level_recovered(self, chain):
        v = np.full(128 * 64, 0.5 * 2.5)
        rec = chain.record_voltage(v)
        assert rec.values[16:].mean() == pytest.approx(0.5, abs=0.01)

    def test_rejects_2d(self, chain):
        with pytest.raises(ConfigurationError):
            chain.record_voltage(np.zeros((100, 2)))


class TestPressureRecording:
    def test_element_selection(self, chain):
        field = np.zeros((128 * 32, 4))
        rec = chain.record_pressure(field, element=2)
        assert rec.element == 2
        assert chain.chip.selected_element == 2

    def test_pressure_raises_codes(self, chain):
        n = 128 * 64
        quiet = chain.record_pressure(np.zeros((n, 4)), element=0)
        chain.fpga.filter.reset()
        chain.chip.modulator.reset()
        pressed = chain.record_pressure(
            np.full((n, 4), 20000.0), element=0
        )
        expected = 20000.0 * chain.chip.pressure_to_loop_gain()
        shift = pressed.values[16:].mean() - quiet.values[16:].mean()
        assert shift == pytest.approx(expected, abs=0.3 * expected)


class TestScan:
    def test_scan_shape(self, chain):
        n_mod = int(0.25 * 128e3) * 4
        field = np.zeros((n_mod, 4))
        records = scan(chain, field, 0.25)
        assert records.shape[1] == 4
        assert records.shape[0] >= 240  # 250 words minus flush

    def test_scan_detects_pulsing_element(self, chain):
        """Pulsatile load on element 1: its record shows the largest
        peak-to-peak swing (DC pedestals differ per element and are
        irrelevant to selection)."""
        n_per = int(0.25 * 128e3)
        n = n_per * 4
        t = np.arange(n) / 128e3
        field = np.zeros((n, 4))
        field[:, 1] = 10000.0 * (1 + np.sin(2 * np.pi * 5.0 * t)) / 2
        records = scan(chain, field, 0.25)
        settled = records[16:]
        swings = settled.max(axis=0) - settled.min(axis=0)
        assert np.argmax(swings) == 1


class TestBatchedScan:
    """batched=True scans as a bank of matched modulators (every visit
    from the pre-scan state); the result must be interchangeable with
    the sequential visit."""

    def pulsing_field(self, n_per):
        n = n_per * 4
        t = np.arange(n) / 128e3
        field = np.zeros((n, 4))
        field[:, 1] = 10000.0 * (1 + np.sin(2 * np.pi * 5.0 * t)) / 2
        return field

    def ideal_chain(self, seed=60):
        from repro.params import NonidealityParams, SystemParams

        params = SystemParams().replace(nonideality=NonidealityParams.ideal())
        return ReadoutChain(params, rng=np.random.default_rng(seed))

    def test_batched_matches_sequential_element0_exactly(self):
        """Element 0 starts from the same (zero) state in both modes, so
        an ideal chain produces bit-identical words for it."""
        field = self.pulsing_field(int(0.1 * 128e3))
        seq = scan(self.ideal_chain(), field, 0.1)
        bat = scan(self.ideal_chain(), field, 0.1, batched=True)
        assert seq.shape == bat.shape
        assert np.array_equal(seq[:, 0], bat[:, 0])

    def test_batched_statistically_equivalent(self):
        """Later elements start from different modulator states; after
        the FPGA settle words the records must still agree closely."""
        field = self.pulsing_field(int(0.1 * 128e3))
        seq = scan(self.ideal_chain(), field, 0.1)[16:]
        bat = scan(self.ideal_chain(), field, 0.1, batched=True)[16:]
        assert np.allclose(seq.mean(axis=0), bat.mean(axis=0), atol=0.01)
        swing_seq = seq.max(axis=0) - seq.min(axis=0)
        swing_bat = bat.max(axis=0) - bat.min(axis=0)
        assert np.allclose(swing_seq, swing_bat, atol=0.02)

    def test_batched_scan_detects_pulsing_element(self, chain):
        field = self.pulsing_field(int(0.25 * 128e3))
        records = scan(chain, field, 0.25, batched=True)
        settled = records[16:]
        swings = settled.max(axis=0) - settled.min(axis=0)
        assert np.argmax(swings) == 1

    @pytest.mark.parametrize("batched", [False, True])
    def test_segments_match_field_exactly(self, batched):
        """A scan fed only the routed segments gives the records of
        visiting the full field's windows, bit for bit, noisy chain
        included: a visit reads only its routed column."""
        n_per = int(0.1 * 128e3)
        field = self.pulsing_field(n_per)
        field[:, 2] = 3000.0  # unrouted outside element 2's own dwell

        chain = ReadoutChain(rng=np.random.default_rng(61))
        saved = chain.chip.state_snapshot()
        visits = []
        for k in range(4):
            if batched:
                chain.chip.restore_state(saved)
            window = field[k * n_per : (k + 1) * n_per]
            visits.append(chain.record_pressure(window, element=k).values)
        sizes = np.array([v.size for v in visits])
        ref = np.column_stack([v[: sizes.min()] for v in visits])

        chain = ReadoutChain(rng=np.random.default_rng(61))
        controller = ScanController(chain.chip.mux)
        got = controller.scan_records(
            chain, field_segments(field, n_per), batched=batched
        )
        assert np.array_equal(got, ref)
        assert np.array_equal(
            controller.last_scan_truncation.words_recorded, sizes
        )

    def test_scan_and_select_agrees_across_modes(self):
        """The sequential scan-and-select picks the pulsing element, as
        the bank scan's records do."""
        n_per = int(0.1 * 128e3)
        field = self.pulsing_field(n_per)
        chain = self.ideal_chain()
        sel = ScanController(chain.chip.mux).scan_and_select(
            chain, field_segments(field, n_per), settle_words=16
        )
        bank = scan(self.ideal_chain(), field, 0.1, batched=True)
        bank_sel = ScanController(chain.chip.mux).select_strongest(bank[16:])
        assert sel.best_index == bank_sel.best_index == 1
