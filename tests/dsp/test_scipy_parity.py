"""The package's own DSP and error function are bit-identical to SciPy's.

The FIR design, windows, maxima, Butterworth low-pass, zero-phase
filter, peak picker and ``erf`` are computed without importing SciPy;
SciPy is the oracle here, and every comparison is exact
(``np.array_equal``), not a tolerance.
"""

import numpy as np
import pytest
from scipy import signal, special

from repro import native
from repro.baselines.cuff import erf
from repro.dsp import fir, iir
from repro.dsp.cic import CICDecimator
from repro.dsp.decimator import DecimationFilter
from repro.dsp.extrema import find_peaks, relative_maxima
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


class TestButter:
    @pytest.mark.parametrize("order", range(1, 9))
    def test_sweep_matches_butter(self, order):
        """Sample rates 100-2000 Hz x 30 cutoffs up to 0.95 Nyquist."""
        mismatched = []
        for fs in (100.0, 250.0, 500.0, 1000.0, 1234.5, 2000.0):
            for frac in np.linspace(0.002, 0.95, 30):
                cutoff = frac * fs / 2
                ref = signal.butter(order, cutoff, fs=fs, output="sos")
                if not np.array_equal(iir.butter(order, cutoff, fs), ref):
                    mismatched.append((fs, cutoff))
        assert mismatched == []

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, 500.0, 600.0])
    def test_cutoff_outside_the_band_rejected(self, cutoff):
        with pytest.raises(ConfigurationError):
            iir.butter(4, cutoff, 1000.0)

    @pytest.mark.parametrize("order", [0, 2.5])
    def test_bad_order_rejected(self, order):
        with pytest.raises(ConfigurationError):
            iir.butter(order, 25.0, 1000.0)


def _padlen(sos):
    """SciPy's default padding: three filter lengths, less one tap per
    section pair with trailing zeros."""
    ntaps = 2 * sos.shape[0] + 1
    return 3 * (ntaps - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum()))


@pytest.fixture(params=["native", "reference"])
def cascade(request):
    """Run once with the native cascade (when it builds) and once with
    the Python reference."""
    if request.param == "reference":
        request.getfixturevalue("no_native")
    elif not native.available():
        pytest.skip("no native library")
    return request.param


class TestSosfiltfilt:
    # The calibration's three designs, then odd orders (whose padding
    # SciPy shortens by the section with trailing zeros) and a steep one.
    DESIGNS = [
        (4, 25.0, 1000.0), (4, 45.0, 1000.0), (2, 0.5, 1000.0),
        (1, 10.0, 500.0), (3, 40.0, 1000.0), (5, 200.0, 1000.0),
        (8, 300.0, 2000.0),
    ]

    @pytest.mark.parametrize("order, cutoff, fs", DESIGNS)
    def test_random_lengths_match(self, cascade, order, cutoff, fs):
        sos = signal.butter(order, cutoff, fs=fs, output="sos")
        pad = _padlen(sos)
        rng = np.random.default_rng(order * 1000 + int(cutoff))
        lengths = [pad + 1, pad + 2, *rng.integers(pad + 3, 4000, size=6)]
        for n in lengths:
            x = rng.standard_normal(n).cumsum() + 50.0 * rng.standard_normal()
            got = iir.sosfiltfilt(sos, x)
            assert np.array_equal(got, signal.sosfiltfilt(sos, x)), n

    @pytest.mark.parametrize("order", [1, 2, 4, 5])
    def test_record_not_longer_than_the_padding_rejected(self, order):
        sos = signal.butter(order, 30.0, fs=1000.0, output="sos")
        pad = _padlen(sos)
        x = np.ones(pad)
        with pytest.raises(ValueError, match="padlen") as ours:
            iir.sosfiltfilt(sos, x)
        with pytest.raises(ValueError, match="padlen") as ref:
            signal.sosfiltfilt(sos, x)
        assert str(ours.value) == str(ref.value)

    def test_initial_state_matches(self):
        for order in range(1, 9):
            sos = signal.butter(order, 40.0, fs=1000.0, output="sos")
            assert np.array_equal(iir._sosfilt_zi(sos), signal.sosfilt_zi(sos))


class TestFindPeaks:
    @staticmethod
    def _ref(x, **kw):
        return signal.find_peaks(x, **kw)[0]

    @pytest.mark.parametrize("distance", [None, 1, 2, 3, 7.5, 40, 600])
    def test_plateaus_and_distance(self, distance):
        rng = np.random.default_rng(17)
        for size in (0, 1, 2, 3, 5, 40, 700, 3000):
            # Coarse integer levels make plateaus and equal heights common.
            x = rng.integers(0, 6, size=size).astype(float)
            assert np.array_equal(
                find_peaks(x, distance=distance),
                self._ref(x, distance=distance),
            ), size

    @pytest.mark.parametrize("prominence", [0.0, 0.5, 1.0, 2.5, 4.0])
    def test_prominence_only(self, prominence):
        rng = np.random.default_rng(29)
        for size in (3, 50, 2000):
            for x in (
                rng.integers(0, 6, size=size).astype(float),
                rng.standard_normal(size).cumsum(),
            ):
                assert np.array_equal(
                    find_peaks(x, prominence=prominence),
                    self._ref(x, prominence=prominence),
                )

    def test_pulse_train_with_both_conditions(self):
        t = np.arange(20_000) / 1000.0
        rng = np.random.default_rng(3)
        x = (0.5 + 0.5 * np.sin(2 * np.pi * 1.2 * t)) ** 4
        x += 0.02 * rng.standard_normal(t.size)
        for distance in (1, 100, 428, 600):
            for prominence in (0.05, 0.25, 0.9):
                kw = {"distance": distance, "prominence": prominence}
                assert np.array_equal(find_peaks(x, **kw), self._ref(x, **kw))

    def test_edges_nan_and_flat_tops(self):
        cases = [
            [1.0, 3.0, 3.0, 3.0, 1.0],
            [1.0, 3.0, 3.0, 3.0],
            [3.0, 3.0, 1.0, 2.0, 2.0, 1.0],
            [0.0, 1.0, np.nan, 1.0, 0.0, 2.0, 0.0],
            [0.0, np.nan, 0.0, 5.0, 5.0, 0.0, np.nan],
            [0.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 0.0],
        ]
        for x in map(np.array, cases):
            for kw in ({}, {"distance": 2}, {"prominence": 0.5}):
                assert np.array_equal(find_peaks(x, **kw), self._ref(x, **kw))

    def test_distance_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            find_peaks(np.zeros(5), distance=0.5)


class TestErf:
    def test_dense_grid_matches(self):
        x = np.linspace(-40.0, 40.0, 400_001)
        assert np.array_equal(erf(x), special.erf(x))

    def test_special_values_and_branch_edges(self):
        edges = np.array([1.0, 8.0, -1.0, -8.0])
        x = np.concatenate(
            [
                [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324],
                edges,
                np.nextafter(edges, 0.0),
                np.nextafter(edges, 2.0 * edges),
            ]
        )
        got, ref = erf(x), special.erf(x)
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
