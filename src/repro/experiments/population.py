"""EVAL-POP: Fig. 9 across a virtual population (AAMI-style statistics).

The paper demonstrates one subject. A device validation (the "field
tests" of Sec. 4) runs a population and reports error statistics against
a reference — the AAMI/ISO criterion being mean error <= 5 mmHg with
standard deviation <= 8 mmHg. This harness runs the full monitoring
protocol over N virtual subjects spanning hypo- to hypertensive operating
points, heart rates 55-95 bpm, varying placement error and contact
quality, and reports the population statistics the paper's single trace
cannot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.cuff import OscillometricCuff
from ..core.chain import ReadoutChain
from ..core.monitor import BloodPressureMonitor
from ..errors import ConfigurationError
from ..parallel import ExecutorTelemetry, ParallelExecutor
from ..params import PASCAL_PER_MMHG, PatientParams, SystemParams
from ..physiology.patient import VirtualPatient
from ..tonometry.contact import ContactModel
from ..tonometry.coupling import TonometricCoupling
from ..tonometry.placement import ArrayPlacement


@dataclass(frozen=True)
class PopulationResult:
    """Per-subject and aggregate accuracy."""

    systolic_errors_mmhg: np.ndarray
    diastolic_errors_mmhg: np.ndarray
    waveform_rms_mmhg: np.ndarray
    subjects: tuple[dict, ...]
    #: Executor counters of the run that produced this result.
    telemetry: ExecutorTelemetry | None = None

    @property
    def n_subjects(self) -> int:
        return self.systolic_errors_mmhg.size

    def mean_sd(self, errors: np.ndarray) -> tuple[float, float]:
        return float(np.mean(errors)), float(np.std(errors))

    def passes_aami(self) -> bool:
        """Mean error <= 5 mmHg and SD <= 8 mmHg for both pressures."""
        for errors in (self.systolic_errors_mmhg, self.diastolic_errors_mmhg):
            mean, sd = self.mean_sd(errors)
            if abs(mean) > 5.0 or sd > 8.0:
                return False
        return True

    def rows(self) -> list[tuple[str, str, str]]:
        sys_mean, sys_sd = self.mean_sd(self.systolic_errors_mmhg)
        dia_mean, dia_sd = self.mean_sd(self.diastolic_errors_mmhg)
        return [
            ("subjects", "1 (the paper)", f"{self.n_subjects}"),
            (
                "systolic error mean +/- SD [mmHg]",
                "AAMI: <= 5 +/- 8",
                f"{sys_mean:+.1f} +/- {sys_sd:.1f}",
            ),
            (
                "diastolic error mean +/- SD [mmHg]",
                "AAMI: <= 5 +/- 8",
                f"{dia_mean:+.1f} +/- {dia_sd:.1f}",
            ),
            (
                "worst |systolic error| [mmHg]",
                "(not quoted)",
                f"{np.max(np.abs(self.systolic_errors_mmhg)):.1f}",
            ),
            (
                "median waveform RMS error [mmHg]",
                "(not quoted)",
                f"{np.median(self.waveform_rms_mmhg):.2f}",
            ),
            (
                "passes AAMI criterion",
                "(the field-test question)",
                "yes" if self.passes_aami() else "no",
            ),
        ]


def _subject_task(
    item: tuple[SystemParams, float, str], seed: np.random.SeedSequence
) -> tuple[float, float, float, dict]:
    """Measure one virtual subject end to end (executor task)."""
    params, duration_s, backend = item
    rng = np.random.default_rng(seed)
    systolic = float(rng.uniform(100.0, 160.0))
    diastolic = float(rng.uniform(60.0, min(95.0, systolic - 30.0)))
    heart_rate = float(rng.uniform(55.0, 95.0))
    offset = float(rng.uniform(-1.0e-3, 1.0e-3))

    patient_params = PatientParams(
        systolic_mmhg=systolic,
        diastolic_mmhg=diastolic,
        heart_rate_bpm=heart_rate,
    )
    patient = VirtualPatient(patient_params, rng=rng)
    map_pa = (diastolic + (systolic - diastolic) / 3.0) * PASCAL_PER_MMHG

    chain = ReadoutChain(params, rng=rng, backend=backend)
    contact = ContactModel(
        contact=params.contact,
        tissue=params.tissue,
        mean_arterial_pressure_pa=map_pa,
    )
    coupling = TonometricCoupling(
        chain.chip.array.geometry,
        contact,
        placement=ArrayPlacement(lateral_offset_m=offset),
        rng=rng,
    )
    monitor = BloodPressureMonitor(chain, coupling, cuff=OscillometricCuff())
    result = monitor.measure(
        patient, duration_s=duration_s, scan_dwell_s=0.5, rng=rng
    )
    subject = {
        "systolic": systolic,
        "diastolic": diastolic,
        "heart_rate": heart_rate,
        "placement_offset_mm": offset * 1e3,
    }
    return (
        result.systolic_error_mmhg,
        result.diastolic_error_mmhg,
        result.waveform_rms_error_mmhg(),
        subject,
    )


def run_population(
    params: SystemParams | None = None,
    n_subjects: int = 10,
    duration_s: float = 10.0,
    seed: int = 4040,
    backend: str = "fast",
    jobs: int = 1,
) -> PopulationResult:
    """Run the full protocol over a diversified virtual population.

    Subjects are independent work items: they fan out over a
    :class:`~repro.parallel.ParallelExecutor` pool. Each subject's
    generator is seeded from the ``SeedSequence.spawn`` child at its
    subject index, so the result is bit-identical for every ``jobs``
    value (including the in-process ``jobs=1`` default).
    """
    params = params or SystemParams()
    if n_subjects < 3:
        raise ConfigurationError("need >= 3 subjects for statistics")

    executor = ParallelExecutor(jobs=jobs)
    items = [(params, float(duration_s), backend)] * n_subjects
    rows = executor.map(_subject_task, items, seed=seed)

    sys_errors = [row[0] for row in rows]
    dia_errors = [row[1] for row in rows]
    rms_errors = [row[2] for row in rows]
    subjects = [row[3] for row in rows]
    return PopulationResult(
        systolic_errors_mmhg=np.array(sys_errors),
        diastolic_errors_mmhg=np.array(dia_errors),
        waveform_rms_mmhg=np.array(rms_errors),
        subjects=tuple(subjects),
        telemetry=executor.telemetry,
    )
