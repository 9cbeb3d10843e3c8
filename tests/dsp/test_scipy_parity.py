"""The NumPy FIR design, windows and maxima are bit-identical to SciPy's.

The package computes these without importing SciPy; SciPy is the oracle
here, and every comparison is exact (``np.array_equal``), not a tolerance.
"""

import numpy as np
import pytest
from scipy import signal

from repro.dsp import fir
from repro.dsp.cic import CICDecimator
from repro.dsp.decimator import DecimationFilter
from repro.dsp.extrema import relative_maxima
from repro.dsp.fixed_point import QFormat
from repro.dsp.windows import cosine_sum, hann
from repro.errors import ConfigurationError
from repro.params import DecimationParams

MODULATOR_RATE = 128e3


def _scipy_taps(taps, input_rate_hz, cutoff_hz, cic):
    """The repo's design with ``scipy.signal.firwin2`` as the sampler."""
    freq, gain = fir._target_response(
        input_rate_hz, cutoff_hz, cic, 0.2 * cutoff_hz
    )
    coeffs = signal.firwin2(taps, freq, gain, window="hamming")
    return coeffs / coeffs.sum() * gain[0]


class TestFIRDesign:
    @pytest.mark.parametrize("cic_decimation", [8, 16, 32, 64])
    def test_sweep_matches_firwin2(self, cic_decimation):
        """Taps 8-64 x CIC order 2-4 x six cutoffs, per CIC decimation."""
        rate = MODULATOR_RATE / cic_decimation
        mismatched = []
        for order in (2, 3, 4):
            cic = CICDecimator(order=order, decimation=cic_decimation)
            for cutoff in (100.0, 250.0, 400.0, 500.0, 700.0, 900.0):
                freq, gain = fir._target_response(rate, cutoff, cic, 0.2 * cutoff)
                for taps in range(8, 65):
                    ours = fir._firwin2_hamming(taps, freq, gain)
                    ref = signal.firwin2(taps, freq, gain, window="hamming")
                    if not np.array_equal(ours, ref):
                        mismatched.append((order, cutoff, taps))
        assert mismatched == []

    def test_uncompensated_design_matches(self):
        ours = fir._design_compensation_fir(32, 4000.0, 500.0, None, 100.0)
        assert np.array_equal(ours, _scipy_taps(32, 4000.0, 500.0, None))

    @pytest.mark.parametrize(
        "params",
        [
            DecimationParams(),
            DecimationParams(cic_decimation=16, fir_decimation=8, fir_taps=48),
            DecimationParams(fir_taps=16),
            DecimationParams(cic_decimation=16, fir_decimation=4, cutoff_hz=900.0),
        ],
        ids=["paper", "16x8-48taps", "16taps", "osr64-900Hz"],
    )
    def test_repo_configurations_match_in_float_and_q14(self, params):
        filt = DecimationFilter(params, input_rate_hz=MODULATOR_RATE)
        ref = _scipy_taps(
            params.fir_taps,
            MODULATOR_RATE / params.cic_decimation,
            params.cutoff_hz,
            filt.cic,
        )
        assert np.array_equal(filt.fir_coefficients, ref)
        ref_int = QFormat(int_bits=1, frac_bits=14).quantize_to_int(
            ref, overflow="raise"
        )
        assert np.array_equal(filt.fir.coefficients_int, ref_int)


class TestWindows:
    # Blackman-Harris and flat-top exercise the 4- and 5-term sums of
    # ``cosine_sum``; the analysis window itself is the periodic Hann.
    _COSINE_SUMS = {
        "blackmanharris": (0.35875, 0.48829, 0.14128, 0.01168),
        "flattop": (
            0.21557895, 0.41663158, 0.277263158, 0.083578947, 0.006947368,
        ),
    }

    @pytest.mark.parametrize("name", ["hann", "blackmanharris", "flattop"])
    @pytest.mark.parametrize("n", [8, 9, 31, 64, 255, 1000, 4097, 65536])
    def test_periodic_window_matches_scipy(self, name, n):
        ref = getattr(signal.windows, name)(n, sym=False)
        if name == "hann":
            values = hann(n)
        else:
            values = cosine_sum(n, self._COSINE_SUMS[name], sym=False)
        assert np.array_equal(values, ref)


class TestRelativeMaxima:
    @staticmethod
    def _ref(x, order):
        return signal.argrelextrema(x, np.greater, order=order)[0]

    @pytest.mark.parametrize("order", [1, 2, 4, 5, 9])
    def test_random_data(self, order):
        rng = np.random.default_rng(order)
        for size in (1, 2, 5, 17, 300):
            x = rng.standard_normal(size)
            assert np.array_equal(relative_maxima(x, order), self._ref(x, order))

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_plateaus_do_not_count(self, order):
        rng = np.random.default_rng(40 + order)
        # Coarse integer levels make ties common.
        x = rng.integers(0, 4, size=400).astype(float)
        x[100:110] = 9.0  # a flat top: no sample is strictly greater
        got = relative_maxima(x, order)
        assert np.array_equal(got, self._ref(x, order))
        assert not np.any((got >= 100) & (got < 110))

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_near_both_edges(self, order):
        for x in (
            np.array([5.0, 1.0, 0.0, 1.0, 0.0, 1.0, 5.0]),
            np.array([0.0, 3.0, 1.0, 0.0, 1.0, 3.0, 0.0]),
            np.array([0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
            np.sin(np.linspace(0.0, 6.0 * np.pi, 61)),
        ):
            assert np.array_equal(relative_maxima(x, order), self._ref(x, order))

    def test_empty_and_bad_order(self):
        assert relative_maxima(np.zeros(0), 3).size == 0
        with pytest.raises(ConfigurationError):
            relative_maxima(np.ones(4), 0)
