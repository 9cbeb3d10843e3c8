"""Fixed-point arithmetic helpers."""

import numpy as np
import pytest

from repro.dsp.fixed_point import (
    QFormat,
    check_overflow,
    cic_register_width,
    saturate,
    wrap_twos_complement,
)
from repro.errors import ConfigurationError, FixedPointOverflowError


class TestWrap:
    def test_identity_in_range(self):
        x = np.array([-128, -1, 0, 1, 127])
        assert np.array_equal(wrap_twos_complement(x, 8), x)

    def test_wraps_past_top(self):
        assert wrap_twos_complement(np.array([128]), 8)[0] == -128
        assert wrap_twos_complement(np.array([129]), 8)[0] == -127

    def test_wraps_past_bottom(self):
        assert wrap_twos_complement(np.array([-129]), 8)[0] == 127

    def test_periodicity(self):
        x = np.arange(-10, 10)
        assert np.array_equal(
            wrap_twos_complement(x + 256, 8), wrap_twos_complement(x, 8)
        )

    def test_wrap_commutes_with_addition(self):
        """wrap(a+b) == wrap(wrap(a)+b): the property the CIC relies on."""
        rng = np.random.default_rng(3)
        a = rng.integers(-10**9, 10**9, 100)
        b = rng.integers(-10**9, 10**9, 100)
        bits = 16
        assert np.array_equal(
            wrap_twos_complement(a + b, bits),
            wrap_twos_complement(wrap_twos_complement(a, bits) + b, bits),
        )

    def test_rejects_zero_bits(self):
        with pytest.raises(ConfigurationError):
            wrap_twos_complement(np.array([0]), 0)


class TestSaturate:
    def test_clamps_both_sides(self):
        x = np.array([-1000, -128, 0, 127, 1000])
        out = saturate(x, 8)
        assert out.tolist() == [-128, -128, 0, 127, 127]

    def test_identity_in_range(self):
        x = np.array([-5, 0, 5])
        assert np.array_equal(saturate(x, 8), x)


class TestSaturateMatchesClip:
    """The integer fast path equals ``np.clip`` in value and dtype."""

    DTYPES = (
        np.int8, np.int16, np.int32, np.int64,
        np.uint8, np.uint16, np.uint32, np.uint64,
    )

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("bits", [1, 2, 7, 8, 9, 12, 16, 17, 32, 33, 63, 64])
    def test_rails_and_dtype(self, dtype, bits):
        info = np.iinfo(dtype)
        top = (1 << (bits - 1)) - 1
        bottom = -(1 << (bits - 1))
        probes = {info.min, info.max, 0, 1}
        for rail in (top, bottom):
            probes |= {rail - 1, rail, rail + 1}
        x = np.array(
            sorted(p for p in probes if info.min <= p <= info.max),
            dtype=dtype,
        )
        want = np.clip(x, bottom, top)
        got = saturate(x, bits)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        scalar = saturate(x[-1:].reshape(()), bits)
        assert scalar == np.clip(x[-1:].reshape(()), bottom, top)

    @pytest.mark.parametrize("dtype", DTYPES + (np.float64,))
    def test_empty(self, dtype):
        got = saturate(np.zeros(0, dtype=dtype), 12)
        assert got.dtype == np.dtype(dtype)
        assert got.size == 0

    def test_floats_keep_clip(self):
        x = np.array([-5000.5, -0.0, 2047.5, np.inf])
        assert np.array_equal(saturate(x, 12), np.clip(x, -2048, 2047))


class TestCheckOverflow:
    def test_passes_in_range(self):
        x = np.array([-128, 127])
        assert np.array_equal(check_overflow(x, 8), x)

    def test_raises_out_of_range(self):
        with pytest.raises(FixedPointOverflowError):
            check_overflow(np.array([128]), 8)

    def test_empty_array_ok(self):
        check_overflow(np.zeros(0, dtype=np.int64), 8)


class TestQFormat:
    def test_scale(self):
        q = QFormat(int_bits=1, frac_bits=14)
        assert q.scale == pytest.approx(2.0**-14)
        assert q.total_bits == 16

    def test_round_trip_exact_values(self):
        q = QFormat(int_bits=3, frac_bits=4)
        values = np.array([0.0, 0.25, -1.5, 3.0625])
        assert np.array_equal(q.quantize(values), values)

    def test_rounding(self):
        q = QFormat(int_bits=3, frac_bits=0)
        assert q.quantize(np.array([1.4]))[0] == pytest.approx(1.0)
        assert q.quantize(np.array([1.6]))[0] == pytest.approx(2.0)

    def test_saturation_policy(self):
        q = QFormat(int_bits=1, frac_bits=2)  # range [-2, 1.75]
        assert q.quantize(np.array([5.0]))[0] == pytest.approx(q.max_value)
        assert q.quantize(np.array([-5.0]))[0] == pytest.approx(q.min_value)

    def test_raise_policy(self):
        q = QFormat(int_bits=1, frac_bits=2)
        with pytest.raises(FixedPointOverflowError):
            q.quantize_to_int(np.array([5.0]), overflow="raise")

    def test_unknown_policy(self):
        q = QFormat(int_bits=1, frac_bits=2)
        with pytest.raises(ConfigurationError):
            q.quantize_to_int(np.array([0.0]), overflow="bogus")

    def test_quantization_noise_power(self):
        q = QFormat(int_bits=0, frac_bits=11)
        assert q.quantization_noise_power() == pytest.approx(
            (2.0**-11) ** 2 / 12.0
        )

    def test_max_error_half_lsb(self):
        q = QFormat(int_bits=2, frac_bits=6)
        rng = np.random.default_rng(9)
        x = rng.uniform(-3.9, 3.9, 1000)
        err = np.abs(q.quantize(x) - x)
        assert err.max() <= q.scale / 2.0 + 1e-15


class TestWidths:
    def test_cic_register_width_paper_config(self):
        # order 3, R 32, 2-bit input: 3*5 + 2 = 17 bits.
        assert cic_register_width(2, 3, 32) == 17

    def test_cic_register_width_full_osr(self):
        # order 3, R 128: 3*7 + 2 = 23.
        assert cic_register_width(2, 3, 128) == 23

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            cic_register_width(0, 3, 32)


class TestInt16Rails:
    """The FPGA word path clamps to the asymmetric i16 range before
    framing; silent astype() wraparound is the bug these rails pin."""

    def test_positive_rail_is_32767(self):
        out = saturate(np.array([32767, 32768, 40000, 10**9]), 16)
        assert out.tolist() == [32767, 32767, 32767, 32767]

    def test_negative_rail_is_minus_32768(self):
        out = saturate(np.array([-32768, -32769, -40000, -(10**9)]), 16)
        assert out.tolist() == [-32768, -32768, -32768, -32768]

    def test_rails_are_asymmetric(self):
        # Two's complement: |min| = max + 1.
        out = saturate(np.array([-32768, 32767]), 16)
        assert out[0] == -(out[1] + 1)

    def test_saturate_differs_from_wrap_past_rail(self):
        x = np.array([40000])
        assert saturate(x, 16)[0] == 32767
        assert wrap_twos_complement(x, 16)[0] == 40000 - 65536
