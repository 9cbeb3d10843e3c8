"""ROBUST: field-condition robustness (the paper's future "field tests").

Sec. 4: "Field tests have to be performed in order [to] evaluate
reliability and stability of blood pressure monitoring." This harness
simulates the two dominant field stressors and the countermeasures this
library ships:

1. **Motion artifacts** — taps and wrist flexion contaminate the record;
   the artifact detector flags them; beat features are extracted with
   and without rejection and compared against ground truth.
2. **Thermal drift** — the sensor warms from ambient to skin
   temperature; the induced gain drift decays the t=0 cuff calibration;
   the drift monitor + recalibration policy bound the error.
3. **Hold-down servo** — the applanation search finds the transmission
   optimum from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..calibration.artifacts import ArtifactDetector, score_against_truth
from ..calibration.drift import DriftMonitor, RecalibrationPolicy
from ..calibration.features import detect_beats
from ..calibration.twopoint import TwoPointCalibration
from ..errors import ConfigurationError
from ..parallel import ExecutorTelemetry, ParallelExecutor
from ..mems.thermal import (
    ThermalMembraneModel,
    ThermalState,
    drift_induced_bp_error_mmhg,
)
from ..params import PASCAL_PER_MMHG, SystemParams
from ..physiology.artifacts import MotionArtifactGenerator
from ..physiology.patient import VirtualPatient
from ..tonometry.contact import ContactModel
from ..tonometry.servo import HoldDownServo


@dataclass(frozen=True)
class RobustnessResult:
    """Field-stressor outcomes."""

    # Artifacts
    artifact_sensitivity: float
    artifact_specificity: float
    sys_error_no_rejection_mmhg: float
    sys_error_with_rejection_mmhg: float
    # Thermal drift
    warmup_gain_drift_fraction: float
    drift_error_uncorrected_mmhg: float
    recalibrations_in_30min: int
    # Servo
    servo_found_pa: float
    servo_true_optimum_pa: float
    servo_oracle_calls_equivalent: int

    def rows(self) -> list[tuple[str, str, str]]:
        return [
            (
                "artifact detector sensitivity",
                "(field-test metric)",
                f"{self.artifact_sensitivity:.2f}",
            ),
            (
                "artifact detector specificity",
                "(field-test metric)",
                f"{self.artifact_specificity:.2f}",
            ),
            (
                "systolic error, no rejection [mmHg]",
                "(contaminated)",
                f"{self.sys_error_no_rejection_mmhg:+.1f}",
            ),
            (
                "systolic error, with rejection [mmHg]",
                "(recovered)",
                f"{self.sys_error_with_rejection_mmhg:+.1f}",
            ),
            (
                "warm-up gain drift [%]",
                "(stability, Sec. 4)",
                f"{self.warmup_gain_drift_fraction * 100:.2f}",
            ),
            (
                "drift error if never re-cuffed [mmHg]",
                "(uncorrected)",
                f"{self.drift_error_uncorrected_mmhg:.2f}",
            ),
            (
                "re-calibrations in 30 min",
                "(policy outcome)",
                f"{self.recalibrations_in_30min}",
            ),
            (
                "servo hold-down error [kPa]",
                "(applanation search)",
                f"{abs(self.servo_found_pa - self.servo_true_optimum_pa) / 1e3:.2f}",
            ),
        ]


def run_robustness(
    params: SystemParams | None = None,
    duration_s: float = 30.0,
    rng: np.random.Generator | None = None,
    artifact_rng: np.random.Generator | None = None,
    servo_rng: np.random.Generator | None = None,
) -> RobustnessResult:
    """Run all three field stressors (physiology-level; no modulator loop
    needed, so this is fast despite the long simulated durations).

    ``artifact_rng`` draws the motion-artifact schedule and ``servo_rng``
    the hold-down oracle's readout noise; both default to the fixed
    seeds earlier revisions hard-coded, so single runs are unchanged.
    :func:`run_robustness_sweep` passes per-trial spawned generators.
    """
    params = params or SystemParams()
    if duration_s < 15.0:
        raise ConfigurationError("need >= 15 s for artifact statistics")
    rng = rng or np.random.default_rng(7007)
    artifact_rng = artifact_rng or np.random.default_rng(7008)
    servo_rng = servo_rng or np.random.default_rng(4242)
    fs = 250.0

    # ---- 1. Motion artifacts ------------------------------------------------
    patient = VirtualPatient(rng=rng)
    truth = patient.record(duration_s=duration_s, sample_rate_hz=fs)
    artifacts = MotionArtifactGenerator(
        tap_rate_per_min=10.0, flexion_rate_per_min=4.0
    ).generate(duration_s, fs, rng=artifact_rng)
    contaminated = truth.pressure_mmhg + artifacts.pressure_mmhg

    detector = ArtifactDetector()
    report = detector.detect(contaminated, fs)
    sensitivity, specificity = score_against_truth(
        report, artifacts.contaminated_mask()
    )

    feats_dirty = detect_beats(contaminated, fs)
    sys_dirty = feats_dirty.mean_systolic_raw - truth.systolic_mmhg
    clean_samples = contaminated.copy()
    # Replace flagged spans by the record median (simple excision that
    # keeps the time base for beat detection).
    clean_samples[report.mask] = np.median(contaminated[~report.mask])
    feats_clean = detect_beats(clean_samples, fs)
    sys_clean = feats_clean.mean_systolic_raw - truth.systolic_mmhg

    # ---- 2. Thermal drift -----------------------------------------------------
    thermal = ThermalMembraneModel()
    state = ThermalState()
    drift_series = thermal.gain_drift_over_warmup(
        state, np.array([0.0, 300.0, 1800.0])
    )
    final_drift = float(drift_series[-1])
    uncorrected = abs(
        drift_induced_bp_error_mmhg(final_drift, pulse_pressure_mmhg=40.0)
    )

    # Policy simulation over 30 minutes with the drift trajectory.
    calibration = TwoPointCalibration.from_features(
        _anchor(0.05, 0.01), 120.0, 80.0
    )
    monitor = DriftMonitor(calibration)
    policy = RecalibrationPolicy(
        max_interval_s=1800.0, drift_threshold_mmhg=2.0
    )
    recalibrations = 0
    last_cuff = 0.0
    for t in np.arange(30.0, 1801.0, 30.0):
        drift_frac = float(
            thermal.gain_drift_over_warmup(state, np.array([t]))[0]
        )
        pp = (0.05 - 0.01) * (1.0 + drift_frac)
        monitor.update(t, 0.01 + pp, 0.01)
        estimate = monitor.estimate()
        if policy.should_recalibrate(t - last_cuff, estimate):
            recalibrations += 1
            last_cuff = t
            calibration = TwoPointCalibration.from_features(
                _anchor(0.01 + pp, 0.01), 120.0, 80.0
            )
            monitor = DriftMonitor(calibration)

    # ---- 3. Hold-down servo ------------------------------------------------------
    contact = ContactModel(
        contact=params.contact,
        tissue=params.tissue,
        mean_arterial_pressure_pa=(80 + 40 / 3) * PASCAL_PER_MMHG,
    )
    def oracle(hold_pa: float) -> float:
        # Pulse amplitude ~ transmission * pulse pressure, + readout noise.
        trans = float(contact.transmission(hold_pa))
        return trans * 40.0 + 0.1 * servo_rng.standard_normal()

    servo = HoldDownServo()
    result = servo.search(oracle)

    return RobustnessResult(
        artifact_sensitivity=sensitivity,
        artifact_specificity=specificity,
        sys_error_no_rejection_mmhg=float(sys_dirty),
        sys_error_with_rejection_mmhg=float(sys_clean),
        warmup_gain_drift_fraction=final_drift,
        drift_error_uncorrected_mmhg=uncorrected,
        recalibrations_in_30min=recalibrations,
        servo_found_pa=result.optimal_hold_down_pa,
        servo_true_optimum_pa=contact.optimal_hold_down_pa,
        servo_oracle_calls_equivalent=(
            servo.coarse_points + 2 * result.refinement_steps + 3
        ),
    )


class _anchor:
    """Feature-level stand-in for TwoPointCalibration.from_features."""

    def __init__(self, sys_raw: float, dia_raw: float):
        self.mean_systolic_raw = sys_raw
        self.mean_diastolic_raw = dia_raw


@dataclass(frozen=True)
class RobustnessSweepResult:
    """Field-stressor outcomes over many independently-seeded trials."""

    artifact_sensitivity: np.ndarray
    artifact_specificity: np.ndarray
    sys_error_no_rejection_mmhg: np.ndarray
    sys_error_with_rejection_mmhg: np.ndarray
    servo_error_pa: np.ndarray
    #: Executor counters of the run that produced this result.
    telemetry: ExecutorTelemetry | None = None

    @property
    def n_trials(self) -> int:
        return self.artifact_sensitivity.size

    def rows(self) -> list[tuple[str, str, str]]:
        recovered = np.abs(self.sys_error_with_rejection_mmhg)
        return [
            ("trials", "(field-test repeats)", f"{self.n_trials}"),
            (
                "artifact sensitivity, median",
                "(field-test metric)",
                f"{np.median(self.artifact_sensitivity):.2f}",
            ),
            (
                "artifact specificity, median",
                "(field-test metric)",
                f"{np.median(self.artifact_specificity):.2f}",
            ),
            (
                "worst |systolic error| w/ rejection [mmHg]",
                "(recovered)",
                f"{np.max(recovered):.1f}",
            ),
            (
                "worst servo hold-down error [kPa]",
                "(applanation search)",
                f"{np.max(self.servo_error_pa) / 1e3:.2f}",
            ),
        ]


def _robustness_trial(
    item: tuple[SystemParams, float], seed: np.random.SeedSequence
) -> tuple[float, float, float, float, float]:
    """One independently-seeded field-stressor trial (executor task)."""
    params, duration_s = item
    trial_rng, artifact_rng, servo_rng = (
        np.random.default_rng(child) for child in seed.spawn(3)
    )
    result = run_robustness(
        params,
        duration_s=duration_s,
        rng=trial_rng,
        artifact_rng=artifact_rng,
        servo_rng=servo_rng,
    )
    return (
        result.artifact_sensitivity,
        result.artifact_specificity,
        result.sys_error_no_rejection_mmhg,
        result.sys_error_with_rejection_mmhg,
        abs(result.servo_found_pa - result.servo_true_optimum_pa),
    )


def run_robustness_sweep(
    params: SystemParams | None = None,
    n_trials: int = 8,
    duration_s: float = 30.0,
    seed: int = 7007,
    jobs: int = 1,
) -> RobustnessSweepResult:
    """Repeat :func:`run_robustness` over independently-seeded trials.

    One fixed-seed run shows the countermeasures work once; the sweep
    asks how they hold up across artifact schedules and servo noise.
    Each trial's three generators come from the ``SeedSequence.spawn``
    child at its trial index, so the sweep is bit-identical for every
    ``jobs`` value.
    """
    params = params or SystemParams()
    if n_trials < 2:
        raise ConfigurationError("need >= 2 trials for a sweep")
    executor = ParallelExecutor(jobs=jobs)
    items = [(params, float(duration_s))] * n_trials
    trials = executor.map(_robustness_trial, items, seed=seed)
    columns = list(zip(*trials))
    return RobustnessSweepResult(
        artifact_sensitivity=np.array(columns[0]),
        artifact_specificity=np.array(columns[1]),
        sys_error_no_rejection_mmhg=np.array(columns[2]),
        sys_error_with_rejection_mmhg=np.array(columns[3]),
        servo_error_pa=np.array(columns[4]),
        telemetry=executor.telemetry,
    )
