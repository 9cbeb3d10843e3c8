"""Fast backend vs reference loop: bit-identity and statistical parity."""

import numpy as np
import pytest

from repro.batch import batch_kernel_available
from repro.batch import kernel as batch_kernel
from repro.dsp.cic import CICDecimator
from repro.dsp.spectrum import analyze_tone, coherent_tone_frequency
from repro.errors import ConfigurationError
from repro.params import NonidealityParams
from repro.sdm import fastpath
from repro.sdm.feedback import FeedbackDAC
from repro.sdm.modulator import SecondOrderSDM


def make_pair(nonideality=None, seed=7, **kwargs):
    """Two modulators in identical configurations and RNG states."""
    ref = SecondOrderSDM(
        nonideality=nonideality,
        rng=np.random.default_rng(seed),
        backend="reference",
        **kwargs,
    )
    fast = SecondOrderSDM(
        nonideality=nonideality,
        rng=np.random.default_rng(seed),
        backend="fast",
        **kwargs,
    )
    return ref, fast


def tone(n, amplitude=0.5, freq=0.013):
    return amplitude * np.sin(2 * np.pi * freq * np.arange(n))


NOISY_CONFIGS = {
    "default": NonidealityParams(),
    "flicker": NonidealityParams(flicker_corner_hz=1000.0),
    "offset+hysteresis": NonidealityParams(
        comparator_offset_v=5e-3, comparator_hysteresis_v=2e-3
    ),
}


class TestBitIdentity:
    def test_ideal_bitstream_identical(self, monkeypatch):
        ref, fast = make_pair(NonidealityParams.ideal())
        kernel_runs = []
        run_bits = batch_kernel.run_bits
        monkeypatch.setattr(
            batch_kernel,
            "run_bits",
            lambda *a: kernel_runs.append(1) or run_bits(*a),
        )
        u = tone(20000)
        out_ref = ref.simulate(u)
        out_fast = fast.simulate(u)
        # The fast side ran the compiled kernel whenever one is loaded.
        assert len(kernel_runs) == int(fastpath.kernel_available())
        assert np.array_equal(out_ref.bitstream, out_fast.bitstream)
        assert out_ref.clipped_samples == out_fast.clipped_samples
        assert ref.stage1.state == fast.stage1.state
        assert ref.stage2.state == fast.stage2.state

    @pytest.mark.parametrize("name", sorted(NOISY_CONFIGS))
    def test_same_seed_noisy_identical(self, name):
        """Shared RNG draw order makes noisy runs bit-identical too."""
        ref, fast = make_pair(NOISY_CONFIGS[name])
        u = tone(16000)
        out_ref = ref.simulate(u)
        out_fast = fast.simulate(u)
        assert np.array_equal(out_ref.bitstream, out_fast.bitstream)
        assert out_ref.clipped_samples == out_fast.clipped_samples
        assert ref.stage1.state == fast.stage1.state

    def test_dac_reference_noise_identical(self):
        dac_kwargs = dict(reference_error=0.01, reference_noise_sigma=1e-4)
        ref = SecondOrderSDM(
            dac=FeedbackDAC(**dac_kwargs),
            rng=np.random.default_rng(3),
            backend="reference",
        )
        fast = SecondOrderSDM(
            dac=FeedbackDAC(**dac_kwargs),
            rng=np.random.default_rng(3),
            backend="fast",
        )
        u = tone(8000)
        assert np.array_equal(
            ref.simulate(u).bitstream, fast.simulate(u).bitstream
        )

    def test_streaming_continuation_identical(self):
        """State carried across chunked simulate calls matches too."""
        ref, fast = make_pair(NonidealityParams.ideal())
        u = tone(12000)
        out_ref = ref.simulate(u)
        parts = [fast.simulate(u[i : i + 1000]) for i in range(0, u.size, 1000)]
        got = np.concatenate([p.bitstream for p in parts])
        assert np.array_equal(out_ref.bitstream, got)


class TestStatisticalParity:
    def test_snr_matches_within_tolerance(self):
        """Different seeds: the decimated SNR must agree statistically."""
        osr, n_out = 128, 1024
        fs = 128e3
        out_rate = fs / osr
        f_tone = coherent_tone_frequency(15.625, out_rate, n_out)
        t = np.arange((n_out + 16) * osr) / fs
        u = 0.5 * np.sin(2 * np.pi * f_tone * t)

        def snr(backend, seed):
            sdm = SecondOrderSDM(
                rng=np.random.default_rng(seed), backend=backend
            )
            bits = sdm.simulate(u).bitstream
            cic = CICDecimator(order=3, decimation=osr, input_bits=2)
            vals = (
                cic.process(bits.astype(np.int64)).astype(float) / cic.dc_gain
            )[16 : 16 + n_out]
            return analyze_tone(
                vals, out_rate, tone_hz=f_tone, max_band_hz=500.0
            ).snr_db

        assert snr("fast", 101) == pytest.approx(snr("reference", 202), abs=3.0)


class TestClippingAndOverload:
    def test_clipped_samples_agree(self):
        ref, fast = make_pair(NonidealityParams.ideal())
        u = tone(6000, amplitude=1.3)  # deliberately overloads the loop
        out_ref = ref.simulate(u)
        out_fast = fast.simulate(u)
        assert out_ref.clipped_samples > 0
        assert out_ref.clipped_samples == out_fast.clipped_samples
        assert np.array_equal(out_ref.bitstream, out_fast.bitstream)


class TestBatch:
    """A bank of matched modulators: every row converts from one saved
    analog state (how the bank array scan visits its elements)."""

    def test_batch_rows_match_fresh_single_runs(self):
        sdm = SecondOrderSDM(
            nonideality=NonidealityParams.ideal(),
            rng=np.random.default_rng(5),
        )
        rows = np.stack([tone(3000, 0.4), tone(3000, 0.6), tone(3000, 0.2)])
        saved = sdm.state_snapshot()
        for row in rows:
            sdm.restore_state(saved)
            out = sdm.simulate(row)
            fresh = SecondOrderSDM(
                nonideality=NonidealityParams.ideal(),
                rng=np.random.default_rng(5),
            )
            assert np.array_equal(out.bitstream, fresh.simulate(row).bitstream)

    def test_batch_leaves_state_untouched(self):
        """The chip's bank conversion restores the modulator afterwards."""
        from repro.core.chip import SensorChip

        chip = SensorChip(rng=np.random.default_rng(5))
        chip.acquire_voltage(0.2 * tone(1000))
        m = chip.modulator
        before = m.state_snapshot()
        field = 2500.0 + np.zeros((4 * 500, 4))
        outs = chip.acquire_pressure_scan(field, 500)
        assert len(outs) == 4
        assert m.state_snapshot() == before
        assert chip.selected_element == 3

    def test_batch_rejects_1d(self):
        from repro.core.chip import SensorChip

        chip = SensorChip(rng=np.random.default_rng(5))
        with pytest.raises(ConfigurationError):
            chip.acquire_pressure_scan(tone(100), 10)


class TestFallbackAndDispatch:
    @pytest.mark.parametrize("name", ["ideal", *sorted(NOISY_CONFIGS)])
    def test_fast_equals_reference_without_native(self, no_native, name):
        """With the native library disabled, "fast" runs the reference loop."""
        config = NOISY_CONFIGS.get(name, NonidealityParams.ideal())
        ref, fast = make_pair(config)
        u = tone(4000, amplitude=1.3)  # clips, so the limiter is exercised
        out_ref = ref.simulate(u)
        out_fast = fast.simulate(u)
        assert np.array_equal(out_ref.bitstream, out_fast.bitstream)
        assert out_ref.clipped_samples == out_fast.clipped_samples
        assert ref.stage1.state == fast.stage1.state
        assert ref.stage2.state == fast.stage2.state

    def test_availability_agrees_across_layers(self, request):
        assert fastpath.kernel_available() == batch_kernel_available()
        request.getfixturevalue("no_native")
        assert fastpath.kernel_available() is False
        assert batch_kernel_available() is False

    def test_kernel_available_is_bool(self):
        assert isinstance(fastpath.kernel_available(), bool)


class TestValidationAndRegressions:
    def test_rejects_unknown_backend_at_construction(self):
        with pytest.raises(ConfigurationError):
            SecondOrderSDM(backend="turbo")

    def test_dac_shares_coefficients_object(self):
        """Regression: the DAC must alias, not copy, the loop coefficients."""
        sdm = SecondOrderSDM(rng=np.random.default_rng(1))
        assert sdm.dac.coefficients is sdm.coefficients
