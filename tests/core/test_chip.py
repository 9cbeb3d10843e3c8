"""Sensor chip integration: both acquisition paths."""

import numpy as np
import pytest

from repro.core.chip import SensorChip
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def chip() -> SensorChip:
    return SensorChip(rng=np.random.default_rng(50))


class TestVoltagePath:
    def test_dc_tracking(self, chip):
        chip.modulator.reset()
        v = np.full(20000, 0.5 * chip.params.modulator.vref_v)
        out = chip.acquire_voltage(v)
        assert out.mean == pytest.approx(0.5, abs=0.02)

    def test_bitstream_pm1(self, chip):
        chip.modulator.reset()
        out = chip.acquire_voltage(np.zeros(1000))
        assert set(np.unique(out.bitstream)) <= {-1, 1}


class TestPressurePath:
    def test_pressure_changes_bitstream_mean(self, chip):
        """Same element quiet vs pressed: the mismatch pedestal cancels
        and the shift equals pressure * chain gain."""
        chip.modulator.reset()
        n = 20000
        quiet = chip.acquire_pressure(np.zeros((n, 4)))
        chip.modulator.reset()
        pressed = chip.acquire_pressure(np.full((n, 4), 20000.0))
        expected = 20000.0 * chip.pressure_to_loop_gain()
        assert pressed.mean - quiet.mean == pytest.approx(
            expected, abs=0.3 * expected
        )

    def test_selected_element_matters(self, chip):
        """Loading element 3 shifts element 3's reading, not element 0's
        (each compared against its own quiet baseline, so per-element
        mismatch pedestals cancel)."""
        n = 20000
        loaded = np.zeros((n, 4))
        loaded[:, 3] = 20000.0
        quiet = np.zeros((n, 4))

        def mean_on(element, field):
            chip.modulator.reset()
            chip.select_element(element)
            return chip.acquire_pressure(field).mean

        shift_elem3 = mean_on(3, loaded) - mean_on(3, quiet)
        shift_elem0 = mean_on(0, loaded) - mean_on(0, quiet)
        assert shift_elem3 > 0.008
        assert abs(shift_elem0) < 0.25 * shift_elem3

    def test_rejects_1d_field(self, chip):
        with pytest.raises(ConfigurationError):
            chip.acquire_pressure(np.zeros(100))


class TestPressureScan:
    def test_scan_is_a_bank_of_visits(self):
        """``acquire_pressure_scan`` == per element: restore the pre-scan
        modulator state, select the element, convert its dwell window;
        the pre-scan state is restored at the end."""
        dwell = 700
        t = np.arange(4 * dwell) / 128e3
        field = 2500.0 + 600.0 * np.sin(
            2 * np.pi * 40.0 * t[:, None] + np.arange(4)[None, :]
        )
        scanned, ref = (SensorChip(rng=np.random.default_rng(8)) for _ in "ab")
        for c in (scanned, ref):
            c.select_element(2)
            c.acquire_pressure(field[:300])
        outs = scanned.acquire_pressure_scan(field, dwell)

        saved = ref.state_snapshot()
        for k, out in enumerate(outs):
            ref.restore_state(saved)
            ref.select_element(k)
            expected = ref.acquire_pressure(field[k * dwell : (k + 1) * dwell])
            assert np.array_equal(out.bitstream, expected.bitstream)
            assert out.clipped_samples == expected.clipped_samples
        ref.restore_state(saved)
        assert scanned.state_snapshot() == saved
        assert scanned.selected_element == ref.selected_element == 3
        # Both chips continue identically (RNG streams in step).
        more = field[:500]
        assert np.array_equal(
            scanned.acquire_pressure(more).bitstream,
            ref.acquire_pressure(more).bitstream,
        )

    def test_rejects_short_field(self, chip):
        with pytest.raises(ConfigurationError, match="too short"):
            chip.acquire_pressure_scan(np.zeros((10, 4)), 5)


class TestDerived:
    def test_pressure_gain_positive(self, chip):
        assert chip.pressure_to_loop_gain() > 0

    def test_full_scale_pressure_sensible(self, chip):
        # ~ FS / (sens * 1/Cfb): should be far above physiologic range.
        fs = chip.full_scale_pressure_pa()
        assert 100e3 < fs < 100e6

    def test_describe(self, chip):
        text = chip.describe()
        assert "SensorChip" in text
        assert "pressure gain" in text
