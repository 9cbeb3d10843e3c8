"""Two-stage decimation filter: rates, DC accuracy, float path."""

import numpy as np
import pytest

from repro.dsp.decimator import DecimationFilter
from repro.errors import ConfigurationError
from repro.params import DecimationParams


@pytest.fixture()
def filt() -> DecimationFilter:
    return DecimationFilter()


def dc_bitstream(level: float, n: int, rng=None) -> np.ndarray:
    """First-order sigma-delta encoding of a DC level (exact mean)."""
    rng = rng or np.random.default_rng(0)
    bits = np.empty(n, dtype=np.int64)
    acc = 0.0
    for i in range(n):
        v = 1 if acc >= 0 else -1
        acc += level - v
        bits[i] = v
    return bits


class TestRates:
    def test_output_rate_is_1k(self, filt):
        assert filt.output_rate_hz == pytest.approx(1000.0)

    def test_total_decimation(self, filt):
        assert filt.params.total_decimation == 128

    def test_output_count(self, filt):
        bits = np.ones(128 * 50, dtype=np.int64)
        out = filt.process(bits)
        assert out.codes.size == 50


class TestDCAccuracy:
    @pytest.mark.parametrize("level", [0.0, 0.25, -0.5, 0.8])
    def test_dc_level_recovered(self, filt, level):
        bits = dc_bitstream(level, 128 * 80)
        out = filt.process(bits)
        # Discard settling, average the rest: within 1 LSB of the level.
        settled = out.values[20:]
        assert settled.mean() == pytest.approx(level, abs=2.0 / 4096)

    def test_full_scale_positive_saturates_cleanly(self, filt):
        bits = np.ones(128 * 40, dtype=np.int64)
        out = filt.process(bits)
        assert out.codes.max() <= 2047
        assert out.codes[-1] == 2047  # +FS = top code

    def test_full_scale_negative(self, filt):
        bits = -np.ones(128 * 40, dtype=np.int64)
        out = filt.process(bits)
        assert out.codes.min() >= -2048


class TestBitstreamValidation:
    def test_rejects_non_pm1(self, filt):
        with pytest.raises(ConfigurationError, match=r"\+/-1"):
            filt.process(np.array([1, 0, -1], dtype=np.int64))

    def test_accepts_exact_float_pm1(self, filt):
        out = filt.process(np.ones(256))
        assert out.codes.size == 2

    def test_rejects_fractional_floats(self, filt):
        with pytest.raises(ConfigurationError):
            filt.process(np.full(256, 0.5))


class TestStreaming:
    def test_chunked_equals_monolithic(self):
        rng = np.random.default_rng(31)
        bits = rng.choice([-1, 1], size=128 * 60).astype(np.int64)
        whole = DecimationFilter()
        expected = whole.process(bits).codes
        chunked = DecimationFilter()
        pieces = [
            chunked.process(bits[i : i + 1000]).codes
            for i in range(0, bits.size, 1000)
        ]
        assert np.array_equal(np.concatenate(pieces), expected)

    def test_reset(self):
        bits = np.ones(128 * 10, dtype=np.int64)
        filt = DecimationFilter()
        a = filt.process(bits).codes
        filt.reset()
        b = filt.process(bits).codes
        assert np.array_equal(a, b)


class TestFloatPath:
    def test_fixed_point_tracks_float(self):
        """Bit-true output within ~1 LSB of the double-precision cascade."""
        rng = np.random.default_rng(41)
        bits = rng.choice([-1, 1], size=128 * 60).astype(np.int64)
        filt = DecimationFilter()
        fixed = filt.process(bits).values
        float_out = filt.process_float(bits.astype(float))
        n = min(fixed.size, float_out.size)
        err = np.abs(fixed[:n] - float_out[:n])
        assert err.max() < 3.0 / 4096  # quantizer + coeff rounding

    def test_float_path_streaming(self):
        rng = np.random.default_rng(42)
        bits = rng.choice([-1.0, 1.0], size=128 * 40)
        whole = DecimationFilter()
        expected = whole.process_float(bits)
        chunked = DecimationFilter()
        pieces = [
            chunked.process_float(bits[i : i + 777])
            for i in range(0, bits.size, 777)
        ]
        got = np.concatenate(pieces)
        assert got == pytest.approx(expected, abs=1e-12)


class TestCascadeResponse:
    def test_cutoff_near_500(self, filt):
        cutoff = filt.measured_cutoff_hz()
        assert 350.0 < cutoff < 550.0

    def test_flat_in_cardiac_band(self, filt):
        f = np.linspace(0.5, 40.0, 40)
        mag = filt.cascade_frequency_response(f)
        assert np.max(np.abs(20 * np.log10(mag))) < 0.1

    def test_result_metadata(self, filt):
        out = filt.process(np.ones(256, dtype=np.int64))
        assert out.bits == 12


class TestAlternativeArchitectures:
    def test_custom_split(self):
        params = DecimationParams(
            cic_decimation=16, fir_decimation=8, fir_taps=48
        )
        filt = DecimationFilter(params)
        assert filt.params.total_decimation == 128
        out = filt.process(np.ones(128 * 20, dtype=np.int64))
        assert out.codes.size == 20

    def test_mismatched_osr_guard_in_system_params(self):
        from repro.params import SystemParams

        with pytest.raises(ConfigurationError, match="OSR"):
            SystemParams(
                decimation=DecimationParams(cic_decimation=16, fir_decimation=4)
            )


class TestPhase:
    @pytest.mark.parametrize(
        "chunks", [[1], [31, 1], [32], [33, 95], [128], [129, 300, 7]]
    )
    def test_phase_counts_samples_since_word_boundary(self, chunks):
        filt = DecimationFilter()
        r = filt.params.total_decimation
        rng = np.random.default_rng(3)
        n = 0
        for size in chunks:
            filt.process(rng.choice([-1, 1], size=size))
            n += size
            assert filt.phase == n % r
        filt.reset()
        assert filt.phase == 0
