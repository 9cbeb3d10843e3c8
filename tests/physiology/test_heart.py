"""Beat scheduler: rates, HRV, phase computation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.physiology.heart import BeatScheduler


class TestGeneration:
    def test_mean_rate(self, rng):
        sched = BeatScheduler(heart_rate_bpm=70.0).generate(120.0, rng=rng)
        assert 60.0 / sched.rr_intervals_s().mean() == pytest.approx(
            70.0, rel=0.05
        )

    def test_covers_duration(self, rng):
        sched = BeatScheduler().generate(30.0, rng=rng)
        assert sched.onset_times_s[-1] >= 30.0

    def test_hrv_spread(self, rng):
        sched = BeatScheduler(
            heart_rate_bpm=60.0, hrv_rms_fraction=0.05, rsa_fraction=0.0
        ).generate(300.0, rng=rng)
        rr = sched.rr_intervals_s()
        assert rr.std() / rr.mean() == pytest.approx(0.05, rel=0.3)

    def test_zero_hrv_regular(self, rng):
        sched = BeatScheduler(
            hrv_rms_fraction=0.0, rsa_fraction=0.0
        ).generate(30.0, rng=rng)
        rr = sched.rr_intervals_s()
        assert rr.std() < 1e-12

    def test_physiologic_floor(self, rng):
        """Extreme HRV draws cannot make RR shorter than 0.3x mean."""
        sched = BeatScheduler(hrv_rms_fraction=1.0).generate(120.0, rng=rng)
        rr = sched.rr_intervals_s()
        assert rr.min() >= 0.3 * (60.0 / 70.0) - 1e-12

    def test_reproducible(self):
        a = BeatScheduler().generate(20.0, rng=np.random.default_rng(1))
        b = BeatScheduler().generate(20.0, rng=np.random.default_rng(1))
        assert a.onset_times_s == pytest.approx(b.onset_times_s)

    def test_rejects_bad_duration(self, rng):
        with pytest.raises(ConfigurationError):
            BeatScheduler().generate(0.0, rng=rng)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            BeatScheduler(heart_rate_bpm=0.0)


class TestPhase:
    def test_phase_zero_at_onset(self, rng):
        sched = BeatScheduler(hrv_rms_fraction=0.0, rsa_fraction=0.0).generate(
            10.0, rng=rng
        )
        idx, phase = sched.beat_phase(sched.onset_times_s[:-1])
        assert phase == pytest.approx(np.zeros_like(phase), abs=1e-9)

    def test_phase_monotone_within_beat(self, rng):
        sched = BeatScheduler().generate(10.0, rng=rng)
        t0, t1 = sched.onset_times_s[2], sched.onset_times_s[3]
        times = np.linspace(t0, t1 - 1e-6, 50)
        idx, phase = sched.beat_phase(times)
        assert np.all(np.diff(phase) > 0)
        assert np.all(idx == 2)

    def test_phase_in_unit_interval(self, rng):
        sched = BeatScheduler().generate(20.0, rng=rng)
        times = np.linspace(0.0, 20.0, 999)
        _, phase = sched.beat_phase(times)
        assert np.all(phase >= 0.0)
        assert np.all(phase < 1.0)

    def test_n_beats(self, rng):
        sched = BeatScheduler().generate(10.0, rng=rng)
        assert sched.n_beats == sched.onset_times_s.size - 1
