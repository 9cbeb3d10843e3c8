"""The full second-order modulator: tracking, shaping, non-idealities."""

import numpy as np
import pytest

from repro.dsp.cic import CICDecimator
from repro.dsp.spectrum import analyze_tone, coherent_tone_frequency
from repro.errors import ConfigurationError
from repro.params import ModulatorParams, NonidealityParams
from repro.sdm.feedback import FeedbackDAC
from repro.sdm.modulator import SecondOrderSDM
from repro.sdm.topology import LoopCoefficients


def ideal_sdm(**kwargs) -> SecondOrderSDM:
    return SecondOrderSDM(
        nonideality=NonidealityParams.ideal(),
        rng=np.random.default_rng(1),
        **kwargs,
    )


class TestDCTracking:
    @pytest.mark.parametrize("level", [0.0, 0.3, -0.6, 0.85])
    def test_bitstream_mean_tracks_dc(self, level):
        sdm = ideal_sdm()
        out = sdm.simulate(np.full(20000, level))
        assert out.mean == pytest.approx(level, abs=0.01)

    def test_sine_mean_near_zero(self):
        sdm = ideal_sdm()
        t = np.arange(20000)
        out = sdm.simulate(0.5 * np.sin(2 * np.pi * 0.01 * t))
        assert out.mean == pytest.approx(0.0, abs=0.02)

    def test_bitstream_is_pm1(self):
        sdm = ideal_sdm()
        out = sdm.simulate(np.zeros(1000))
        assert set(np.unique(out.bitstream)) <= {-1, 1}


class TestNoiseShaping:
    def test_snr_grows_15db_per_osr_octave(self):
        """The consequence of 2nd-order shaping: SNR gains ~15 dB per
        octave of OSR (theory; idle tones make raw PSD slopes flaky, the
        decimated SNR is the robust observable)."""

        def snr_at_osr(osr: int) -> float:
            n_out = 1024
            fs = 128e3
            out_rate = fs / osr
            tone = coherent_tone_frequency(out_rate / 64, out_rate, n_out)
            t = np.arange((n_out + 16) * osr) / fs
            sdm = ideal_sdm()
            bits = sdm.simulate(0.5 * np.sin(2 * np.pi * tone * t)).bitstream
            cic = CICDecimator(order=3, decimation=osr, input_bits=2)
            vals = (
                cic.process(bits.astype(np.int64)).astype(float) / cic.dc_gain
            )[16 : 16 + n_out]
            return analyze_tone(vals, out_rate, tone_hz=tone).snr_db

        gain_db = snr_at_osr(128) - snr_at_osr(32)
        per_octave = gain_db / 2.0
        assert per_octave == pytest.approx(15.0, abs=3.5)

    def test_snr_at_osr128_exceeds_80db_ideal(self):
        osr, n_out = 128, 2048
        fs = 128e3
        out_rate = fs / osr
        tone = coherent_tone_frequency(15.625, out_rate, n_out)
        t = np.arange((n_out + 16) * osr) / fs
        sdm = ideal_sdm()
        bits = sdm.simulate(0.8 * np.sin(2 * np.pi * tone * t)).bitstream
        cic = CICDecimator(order=3, decimation=osr, input_bits=2)
        vals = (
            cic.process(bits.astype(np.int64)).astype(float) / cic.dc_gain
        )[16 : 16 + n_out]
        a = analyze_tone(vals, out_rate, tone_hz=tone, max_band_hz=500.0)
        assert a.snr_db > 80.0


class TestOverload:
    def test_full_scale_dc_clips(self):
        sdm = ideal_sdm()
        out = sdm.simulate(np.full(5000, 1.5))
        assert out.clipped_samples > 0

    def test_stable_amplitude_does_not_clip(self):
        sdm = ideal_sdm()
        t = np.arange(30000)
        out = sdm.simulate(0.75 * np.sin(2 * np.pi * 0.003 * t))
        assert out.clipped_samples == 0

    def test_recommended_amplitude_below_full_scale(self):
        sdm = ideal_sdm()
        assert sdm.recommended_max_amplitude == pytest.approx(
            0.75 * sdm.input_full_scale
        )


class TestStreaming:
    def test_chunked_equals_monolithic_ideal(self):
        """With deterministic (ideal) settings, chunked simulation must be
        bit-identical to one call."""
        u = 0.5 * np.sin(2 * np.pi * 0.001 * np.arange(10000))
        a = ideal_sdm().simulate(u).bitstream
        sdm = ideal_sdm()
        b = np.concatenate(
            [sdm.simulate(u[:3000]).bitstream, sdm.simulate(u[3000:]).bitstream]
        )
        assert np.array_equal(a, b)

    def test_reset_reproduces(self):
        u = 0.3 * np.sin(2 * np.pi * 0.002 * np.arange(5000))
        sdm = ideal_sdm()
        a = sdm.simulate(u).bitstream
        sdm.reset()
        b = sdm.simulate(u).bitstream
        assert np.array_equal(a, b)

    def test_empty_input(self):
        out = ideal_sdm().simulate(np.zeros(0))
        assert out.bitstream.size == 0

    def test_rejects_2d_input(self):
        with pytest.raises(ConfigurationError):
            ideal_sdm().simulate(np.zeros((10, 2)))


class TestNonidealities:
    def test_noise_raises_floor(self):
        """Thermal noise must degrade SNR vs the ideal loop."""
        osr, n_out = 64, 1024
        fs = 128e3
        out_rate = fs / osr
        tone = coherent_tone_frequency(out_rate / 50, out_rate, n_out)
        t = np.arange((n_out + 16) * osr) / fs
        u = 0.5 * np.sin(2 * np.pi * tone * t)

        def snr_with(ni):
            sdm = SecondOrderSDM(
                ModulatorParams(osr=osr), ni, rng=np.random.default_rng(5)
            )
            bits = sdm.simulate(u).bitstream
            cic = CICDecimator(order=3, decimation=osr, input_bits=2)
            vals = (
                cic.process(bits.astype(np.int64)).astype(float) / cic.dc_gain
            )[16 : 16 + n_out]
            return analyze_tone(vals, out_rate, tone_hz=tone).snr_db

        noisy = NonidealityParams(sampling_cap_f=1e-15, clock_jitter_s=0.0)
        assert snr_with(noisy) < snr_with(NonidealityParams.ideal()) - 6.0

    def test_low_opamp_gain_degrades(self):
        """Leaky integrators raise in-band noise once A ~ OSR."""
        osr, n_out = 128, 1024
        fs = 128e3
        out_rate = fs / osr
        tone = coherent_tone_frequency(out_rate / 50, out_rate, n_out)
        t = np.arange((n_out + 16) * osr) / fs
        u = 0.5 * np.sin(2 * np.pi * tone * t)

        def snr_with_gain(gain):
            ni = NonidealityParams(
                sampling_cap_f=1e-12,
                opamp_gain=gain,
                clock_jitter_s=0.0,
            )
            sdm = SecondOrderSDM(
                ModulatorParams(osr=osr), ni, rng=np.random.default_rng(6)
            )
            bits = sdm.simulate(u).bitstream
            cic = CICDecimator(order=3, decimation=osr, input_bits=2)
            vals = (
                cic.process(bits.astype(np.int64)).astype(float) / cic.dc_gain
            )[16 : 16 + n_out]
            return analyze_tone(vals, out_rate, tone_hz=tone).snr_db

        assert snr_with_gain(30.0) < snr_with_gain(1e6) - 3.0

    def test_comparator_offset_mostly_harmless(self):
        """A 10 mV comparator offset is noise-shaped: <2 dB SNR cost."""
        osr, n_out = 64, 1024
        fs = 128e3
        out_rate = fs / osr
        tone = coherent_tone_frequency(out_rate / 50, out_rate, n_out)
        t = np.arange((n_out + 16) * osr) / fs
        u = 0.5 * np.sin(2 * np.pi * tone * t)

        def snr_with_offset(off):
            ni = NonidealityParams(
                sampling_cap_f=1e-9,  # negligible thermal noise
                opamp_gain=1e12,
                comparator_offset_v=off,
                clock_jitter_s=0.0,
            )
            sdm = SecondOrderSDM(
                ModulatorParams(osr=osr), ni, rng=np.random.default_rng(7)
            )
            bits = sdm.simulate(u).bitstream
            cic = CICDecimator(order=3, decimation=osr, input_bits=2)
            vals = (
                cic.process(bits.astype(np.int64)).astype(float) / cic.dc_gain
            )[16 : 16 + n_out]
            return analyze_tone(vals, out_rate, tone_hz=tone).snr_db

        assert snr_with_offset(0.01) > snr_with_offset(0.0) - 2.0


class TestConfiguration:
    def test_dac_and_coefficients_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            SecondOrderSDM(
                coefficients=LoopCoefficients.boser_wooley(),
                dac=FeedbackDAC(),
            )

    def test_dac_cfb_changes_full_scale(self):
        sdm = SecondOrderSDM(
            nonideality=NonidealityParams.ideal(),
            dac=FeedbackDAC(cfb_ratio=0.5),
        )
        assert sdm.input_full_scale == pytest.approx(0.5)

    def test_describe(self):
        text = SecondOrderSDM().describe()
        assert "OSR" in text
        assert "full scale" in text


class TestPrepareInputs:
    """``_prepare_inputs`` against the stochastic-term formulas written
    out with fresh arrays, drawn from copies of the modulator's streams.

    Every backend and the batch engine share this one definition, so the
    bit-identity suites compare it only with itself; this pins what it
    computes, for fresh arrays and for caller-provided rows.
    """

    NONIDEAL = NonidealityParams(flicker_corner_hz=1000.0)

    @staticmethod
    def expected(m, u, last_input):
        import copy

        fs = m.params.sampling_rate_hz
        jit, noi, dac = (
            copy.deepcopy(g) for g in (m._jitter_rng, m._noise_rng, m._dac_rng)
        )
        flicker = copy.deepcopy(m._flicker)
        n = u.size
        slope = np.empty_like(u)
        slope[1:] = (u[1:] - u[:-1]) * fs
        if last_input is not None:
            slope[0] = (u[0] - last_input) * fs
        else:
            slope[0] = slope[1] if n > 1 else 0.0
        ju = u + (m.nonideality.clock_jitter_s * jit.standard_normal(n)) * slope
        noise = m._noise_sigma_u * noi.standard_normal(n)
        noise = noise + flicker.sample_block(n)
        dac_noise = m.dac.reference_noise_sigma * dac.standard_normal(n)
        return ju, noise, dac_noise

    @pytest.mark.parametrize("rows", [False, True])
    def test_matches_formulas_across_chunks(self, rows):
        m = SecondOrderSDM(
            nonideality=self.NONIDEAL,
            dac=FeedbackDAC(reference_noise_sigma=1e-4),
            rng=np.random.default_rng(6),
        )
        rng = np.random.default_rng(2)
        for n in (1, 1, 300, 129):
            u = 0.4 * rng.standard_normal(n)
            want = self.expected(m, u, m._last_input)
            if rows:
                # Staged in place, as the batch engine does.
                buf = np.full((5, n), np.nan)
                buf[0] = u
                got = m._prepare_inputs(
                    buf[0], out=(buf[0], buf[1], buf[2], buf[3:])
                )
                for g, row in zip(got[:3], buf[:3]):
                    assert np.shares_memory(g, row)
            else:
                got = m._prepare_inputs(u.copy())
            for g, w in zip(got[:3], want):
                assert np.array_equal(g, w)
            assert m._last_input == u[-1]
