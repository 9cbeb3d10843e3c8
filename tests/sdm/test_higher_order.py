"""Higher-order CIFB loops."""

import numpy as np
import pytest

from repro.dsp.cic import CICDecimator
from repro.dsp.spectrum import analyze_tone, coherent_tone_frequency
from repro.errors import ConfigurationError
from repro.sdm.higher_order import STANDARD_GAINS, HigherOrderSDM


def snr_of(order: int, osr: int = 64, n_out: int = 1024) -> float:
    fs = 128e3
    out_rate = fs / osr
    tone = coherent_tone_frequency(out_rate / 64, out_rate, n_out)
    t = np.arange((n_out + 16) * osr) / fs
    sdm = HigherOrderSDM(order=order)
    amp = sdm.recommended_max_amplitude
    bits = sdm.simulate(amp * np.sin(2 * np.pi * tone * t)).bitstream
    cic = CICDecimator(order=order + 1, decimation=osr, input_bits=2)
    vals = (cic.process(bits.astype(np.int64)).astype(float) / cic.dc_gain)[
        16 : 16 + n_out
    ]
    return analyze_tone(vals, out_rate, tone_hz=tone).snr_db


class TestOrders:
    def test_order3_beats_order2(self):
        assert snr_of(3) > snr_of(2) + 8.0

    def test_order2_beats_order1(self):
        assert snr_of(2) > snr_of(1) + 10.0

    def test_stable_at_recommended_amplitude(self):
        for order in (1, 2, 3, 4):
            sdm = HigherOrderSDM(order=order)
            t = np.arange(30000)
            out = sdm.simulate(
                sdm.recommended_max_amplitude
                * np.sin(2 * np.pi * 0.0013 * t)
            )
            assert out.clipped_samples < 0.01 * t.size, f"order {order}"

    def test_order2_matches_dedicated_model(self):
        """The generic CIFB at order 2 equals SecondOrderSDM (ideal)."""
        from repro.params import ModulatorParams, NonidealityParams
        from repro.sdm.modulator import SecondOrderSDM

        u = 0.5 * np.sin(2 * np.pi * 0.002 * np.arange(20000))
        generic = HigherOrderSDM(order=2).simulate(u).bitstream
        dedicated = SecondOrderSDM(
            ModulatorParams(), NonidealityParams.ideal()
        ).simulate(u).bitstream
        assert np.array_equal(generic, dedicated)


class TestStreaming:
    def test_chunked_equals_monolithic(self):
        u = 0.4 * np.sin(2 * np.pi * 0.003 * np.arange(10000))
        whole = HigherOrderSDM(order=3).simulate(u).bitstream
        stream = HigherOrderSDM(order=3)
        parts = np.concatenate(
            [stream.simulate(u[:4000]).bitstream,
             stream.simulate(u[4000:]).bitstream]
        )
        assert np.array_equal(whole, parts)

    def test_reset(self):
        u = 0.4 * np.sin(2 * np.pi * 0.003 * np.arange(5000))
        sdm = HigherOrderSDM(order=3)
        a = sdm.simulate(u).bitstream
        sdm.reset()
        b = sdm.simulate(u).bitstream
        assert np.array_equal(a, b)


class TestValidation:
    def test_rejects_unknown_order(self):
        with pytest.raises(ConfigurationError):
            HigherOrderSDM(order=5)

    def test_rejects_wrong_gain_count(self):
        with pytest.raises(ConfigurationError):
            HigherOrderSDM(order=3, gains=(0.5, 0.5))

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ConfigurationError):
            HigherOrderSDM(order=2, gains=(0.5, 0.0))

    def test_standard_gains_table(self):
        assert set(STANDARD_GAINS) == {1, 2, 3, 4}
        for order, gains in STANDARD_GAINS.items():
            assert len(gains) == order
