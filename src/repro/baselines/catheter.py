"""Intravascular catheter reference: the invasive gold standard.

Sec. 1: "Intravascular pressure sensors are capable of recording
continuous blood pressure data, but they have to be implanted." The model
reads the true arterial pressure through the fluid-filled catheter line's
second-order dynamics (natural frequency ~15 Hz, underdamped — the classic
ringing artifact of clinical pressure lines) plus transducer noise. It is
the continuous ground-truth comparator for the baseline experiment.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

#: Sampling rate of the arterial-line record.
_LINE_SAMPLE_RATE_HZ = 500.0


class CatheterReference:
    """Fluid-filled catheter + external transducer.

    Parameters
    ----------
    natural_frequency_hz:
        Resonance of the catheter-tubing-transducer system.
    damping_ratio:
        Typically 0.2-0.4 (underdamped) for clinical lines.
    noise_mmhg:
        RMS transducer/amplifier noise.
    """

    def __init__(
        self,
        natural_frequency_hz: float = 15.0,
        damping_ratio: float = 0.3,
        noise_mmhg: float = 0.3,
    ):
        if natural_frequency_hz <= 0:
            raise ConfigurationError("natural frequency must be positive")
        if not 0 < damping_ratio < 2:
            raise ConfigurationError("damping ratio must be in (0, 2)")
        if noise_mmhg < 0:
            raise ConfigurationError("noise must be >= 0")
        self.natural_frequency_hz = float(natural_frequency_hz)
        self.damping_ratio = float(damping_ratio)
        self.noise_mmhg = float(noise_mmhg)

    def measure(
        self,
        arterial_mmhg: np.ndarray,
        sample_rate_hz: float,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Pressure as the catheter line reports it."""
        p = np.asarray(arterial_mmhg, dtype=float)
        if p.ndim != 1 or p.size < 4:
            raise ConfigurationError("need a 1-D record of >= 4 samples")
        if sample_rate_hz <= 4 * self.natural_frequency_hz:
            raise ConfigurationError(
                "sample rate must comfortably exceed the line resonance"
            )
        from scipy import signal

        wn = 2.0 * np.pi * self.natural_frequency_hz
        zeta = self.damping_ratio
        # Second-order low-pass H(s) = wn^2 / (s^2 + 2 zeta wn s + wn^2),
        # discretized bilinearly.
        b, a = signal.bilinear(
            [wn**2], [1.0, 2.0 * zeta * wn, wn**2], fs=sample_rate_hz
        )
        out = signal.lfilter(b, a, p)
        if self.noise_mmhg > 0:
            rng = rng or np.random.default_rng(977)
            out = out + self.noise_mmhg * rng.standard_normal(out.size)
        return out

    def step_overshoot_fraction(self) -> float:
        """Overshoot of the line's step response (ringing severity)."""
        zeta = self.damping_ratio
        if zeta >= 1.0:
            return 0.0
        return float(np.exp(-np.pi * zeta / np.sqrt(1.0 - zeta**2)))


class ArterialLineReference:
    """Catheter-based calibration reference (the intra-operative case).

    A cuff cannot calibrate an epicardial measurement — ventricular
    diastole sits near zero, below any cuff's deflation floor, and in
    surgery an arterial/ventricular line is in place anyway. This
    reference measures the patient through the catheter model and
    extracts systolic/diastolic levels with the same beat detector the
    tonometer uses, returning a cuff-compatible reading so it drops into
    :class:`~repro.core.monitor.BloodPressureMonitor` unchanged.
    """

    def __init__(self, duration_s: float = 10.0):
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        self.catheter = CatheterReference()
        self.duration_s = float(duration_s)

    def measure(
        self,
        patient,
        start_time_s: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        """One calibration reading through the pressure line."""
        from ..baselines.cuff import CuffReading
        from ..calibration.features import detect_beats

        recording = patient.record(
            duration_s=self.duration_s, sample_rate_hz=_LINE_SAMPLE_RATE_HZ
        )
        measured = self.catheter.measure(
            recording.pressure_mmhg, _LINE_SAMPLE_RATE_HZ, rng=rng
        )
        # Skip the line's settling transient.
        settled = measured[int(1.0 * _LINE_SAMPLE_RATE_HZ) :]
        features = detect_beats(
            settled,
            _LINE_SAMPLE_RATE_HZ,
            expected_rate_bpm=patient.params.heart_rate_bpm,
        )
        systolic = features.mean_systolic_raw
        diastolic = features.mean_diastolic_raw
        times = np.arange(settled.size) / _LINE_SAMPLE_RATE_HZ
        return CuffReading(
            systolic_mmhg=float(systolic),
            diastolic_mmhg=float(diastolic),
            map_mmhg=float(diastolic + (systolic - diastolic) / 3.0),
            measurement_duration_s=self.duration_s,
            cuff_pressure_mmhg=settled,
            envelope_mmhg=np.zeros_like(settled),
            times_s=times + start_time_s,
        )
