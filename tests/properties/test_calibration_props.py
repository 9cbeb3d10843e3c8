"""Hypothesis properties of calibration and waveform synthesis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration.twopoint import TwoPointCalibration
from repro.physiology.pulse import RadialPulseTemplate


class _Anchor:
    def __init__(self, sys_raw, dia_raw):
        self.mean_systolic_raw = sys_raw
        self.mean_diastolic_raw = dia_raw


cuff_pairs = st.tuples(
    st.floats(min_value=90.0, max_value=220.0),
    st.floats(min_value=40.0, max_value=85.0),
)
raw_pairs = st.tuples(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
).filter(lambda p: abs(p[0] - p[1]) > 1e-3)


class TestCalibrationProperties:
    @given(raw_pairs, cuff_pairs)
    @settings(max_examples=100, deadline=None)
    def test_anchors_always_exact(self, raw, cuff):
        sys_raw, dia_raw = max(raw), min(raw)
        cal = TwoPointCalibration.from_features(
            _Anchor(sys_raw, dia_raw), cuff[0], cuff[1]
        )
        np.testing.assert_allclose(cal.apply(sys_raw), cuff[0], rtol=1e-9)
        np.testing.assert_allclose(cal.apply(dia_raw), cuff[1], rtol=1e-9)

    @given(raw_pairs, cuff_pairs)
    @settings(max_examples=100, deadline=None)
    def test_monotone_when_sys_above_dia(self, raw, cuff):
        sys_raw, dia_raw = max(raw), min(raw)
        cal = TwoPointCalibration.from_features(
            _Anchor(sys_raw, dia_raw), cuff[0], cuff[1]
        )
        x = np.linspace(-1.0, 1.0, 11)
        y = cal.apply(x)
        assert np.all(np.diff(y) > 0)


@st.composite
def templates(draw):
    n_lobes = draw(st.integers(min_value=1, max_value=4))
    lobes = []
    for k in range(n_lobes):
        amp = draw(st.floats(min_value=0.1, max_value=1.0))
        center = draw(st.floats(min_value=0.05, max_value=0.75))
        width = draw(st.floats(min_value=0.02, max_value=0.2))
        lobes.append((amp, center, width))
    decay = draw(st.floats(min_value=0.0, max_value=3.0))
    return RadialPulseTemplate(lobes=lobes, notch=None, decay_rate=decay)


class TestTemplateProperties:
    @given(templates())
    @settings(max_examples=50, deadline=None)
    def test_always_normalized(self, template):
        phase = np.linspace(0, 1, 2048, endpoint=False)
        wave = template.evaluate(phase)
        assert wave.min() >= -1e-9
        assert wave.max() <= 1.0 + 1e-9
        np.testing.assert_allclose(wave.max(), 1.0, atol=1e-6)

    @given(templates(), st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=80, deadline=None)
    def test_periodic_everywhere(self, template, phase):
        np.testing.assert_allclose(
            template.evaluate(phase),
            template.evaluate(phase + 1.0),
            atol=1e-9,
        )

    @given(templates())
    @settings(max_examples=50, deadline=None)
    def test_mean_strictly_inside(self, template):
        assert 0.0 < template.mean_value() < 1.0
