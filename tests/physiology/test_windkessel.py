"""Two-element Windkessel model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.physiology.heart import BeatScheduler
from repro.physiology.windkessel import WindkesselModel


@pytest.fixture(scope="module")
def schedule():
    return BeatScheduler(
        heart_rate_bpm=70.0, hrv_rms_fraction=0.0, rsa_fraction=0.0
    ).generate(30.0, rng=np.random.default_rng(1))


@pytest.fixture(scope="module")
def model() -> WindkesselModel:
    return WindkesselModel()


class TestInflow:
    def test_integrates_to_stroke_volume(self, model, schedule):
        t = np.arange(0, 30.0, 1e-3)
        q = model.inflow_ml_per_s(t, schedule)
        # Total ejected volume / number of complete beats ~ stroke volume.
        beats = int(np.floor(30.0 / (60.0 / 70.0)))
        volume = np.trapezoid(q, t)
        assert volume / beats == pytest.approx(
            model.STROKE_VOLUME_ML, rel=0.05
        )

    def test_zero_in_diastole(self, model, schedule):
        t = np.arange(0, 10.0, 1e-3)
        q = model.inflow_ml_per_s(t, schedule)
        _, phase = schedule.beat_phase(t)
        assert np.all(q[phase > model.ejection_fraction] == 0.0)

    def test_nonnegative(self, model, schedule):
        t = np.arange(0, 10.0, 1e-3)
        assert np.all(model.inflow_ml_per_s(t, schedule) >= 0.0)


class TestPressure:
    def test_steady_state_map(self, model, schedule):
        """Mean pressure converges to R * CO (Ohm's law)."""
        t = np.arange(0, 30.0, 1e-3)
        p = model.pressure_mmhg(t, schedule)
        settled = p[t > 15.0]
        expected = model.steady_state_map_mmhg(70.0)
        assert settled.mean() == pytest.approx(expected, rel=0.05)

    def test_physiologic_range(self, model, schedule):
        t = np.arange(0, 30.0, 1e-3)
        p = model.pressure_mmhg(t, schedule)
        settled = p[t > 15.0]
        assert 50.0 < settled.min() < settled.max() < 180.0

    def test_diastolic_decay_exponential(self, model, schedule):
        """During diastole, pressure decays with tau = R*C."""
        t = np.arange(0, 30.0, 1e-3)
        p = model.pressure_mmhg(t, schedule)
        _, phase = schedule.beat_phase(t)
        # Pick a late-diastole window within one beat.
        mask = (t > 20.0) & (t < 20.4) & (phase > 0.5) & (phase < 0.9)
        tt, pp = t[mask], p[mask]
        if tt.size > 20:
            tau_fit = -1.0 / np.polyfit(tt, np.log(pp), 1)[0]
            assert tau_fit == pytest.approx(model.time_constant_s, rel=0.15)

    def test_pulse_pressure_grows_with_stiffness(self, schedule):
        """Lower compliance (stiffer artery) -> larger pulse pressure."""
        t = np.arange(0, 30.0, 1e-3)
        soft = WindkesselModel(compliance_ml_per_mmhg=2.0)
        stiff = WindkesselModel(compliance_ml_per_mmhg=0.8)
        def pp(m):
            p = m.pressure_mmhg(t, schedule)
            settled = p[t > 15.0]
            return settled.max() - settled.min()
        assert pp(stiff) > 1.5 * pp(soft)

    def test_pa_conversion(self, model, schedule):
        t = np.arange(0, 5.0, 1e-3)
        mmhg = model.pressure_mmhg(t, schedule)
        pa = model.pressure_pa(t, schedule)
        assert pa == pytest.approx(mmhg * 133.322, rel=1e-5)

    def test_rejects_nonuniform_grid(self, model, schedule):
        with pytest.raises(ConfigurationError):
            model.pressure_mmhg(np.array([0.0, 0.1, 0.5]), schedule)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            WindkesselModel(resistance_mmhg_s_per_ml=0.0)
        with pytest.raises(ConfigurationError):
            WindkesselModel(ejection_fraction_of_beat=0.95)
