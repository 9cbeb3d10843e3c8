"""Hypothesis properties of system-level components."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.params import PASCAL_PER_MMHG
from repro.tonometry.contact import ContactModel
from repro.tonometry.servo import HoldDownServo


class TestContactProperties:
    @given(
        st.floats(min_value=60.0, max_value=140.0),  # MAP mmHg
        st.floats(min_value=0.3, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_transmission_bounded(self, map_mmhg, width):
        model = ContactModel(
            mean_arterial_pressure_pa=map_mmhg * PASCAL_PER_MMHG,
            transmission_width_fraction=width,
        )
        sweep = np.linspace(0.0, 4 * model.optimal_hold_down_pa, 100)
        trans = model.transmission(sweep)
        assert np.all(trans >= 0.0)
        assert np.all(trans <= 1.0)

    @given(st.floats(min_value=60.0, max_value=140.0))
    @settings(max_examples=30, deadline=None)
    def test_optimum_is_argmax(self, map_mmhg):
        model = ContactModel(
            mean_arterial_pressure_pa=map_mmhg * PASCAL_PER_MMHG
        )
        opt = model.optimal_hold_down_pa
        sweep = np.linspace(0.2 * opt, 3 * opt, 301)
        trans = model.transmission(sweep)
        best = sweep[int(np.argmax(trans))]
        assert abs(best - opt) < 0.15 * opt


class TestServoProperties:
    @given(
        st.floats(min_value=6e3, max_value=25e3),  # optimum position
        st.floats(min_value=1e3, max_value=6e3),  # bump width
    )
    @settings(max_examples=30, deadline=None)
    def test_finds_any_unimodal_peak(self, center, width):
        """The servo must find the peak of ANY noiseless unimodal bump
        inside its range."""

        def oracle(p: float) -> float:
            return float(np.exp(-((p - center) ** 2) / (2 * width**2)))

        servo = HoldDownServo(
            min_pa=3e3, max_pa=30e3, coarse_points=14,
            refine_tolerance_pa=100.0,
        )
        result = servo.search(oracle)
        # Within the coarse grid spacing of the true peak.
        grid_step = (30e3 - 3e3) / 13
        assert abs(result.optimal_hold_down_pa - center) < grid_step


class TestCuffProperties:
    @given(
        st.floats(min_value=100.0, max_value=170.0),
        st.floats(min_value=55.0, max_value=95.0),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=10, deadline=None)
    def test_cuff_clinically_accurate_everywhere(self, sys, dia, seed):
        """AAMI-style property: sys/dia estimates within 10 mmHg across
        the physiologic range (any patient, any seed)."""
        if sys - dia < 25.0:
            return  # implausibly narrow pulse pressure
        from repro.baselines.cuff import OscillometricCuff
        from repro.params import PatientParams
        from repro.physiology.patient import VirtualPatient

        patient = VirtualPatient(
            PatientParams(systolic_mmhg=sys, diastolic_mmhg=dia),
            rng=np.random.default_rng(seed),
        )
        reading = OscillometricCuff().measure(
            patient, rng=np.random.default_rng(seed + 1)
        )
        assert abs(reading.systolic_mmhg - sys) < 10.0
        assert abs(reading.diastolic_mmhg - dia) < 10.0
