"""Regression: parallel fan-out never changes experiment results.

The executor's contract (docs/THEORY.md §8) is that ``jobs`` is pure
scheduling: every harness must produce bit-identical arrays for any
worker count. These tests pin that for the population protocol, the
design-space grid and the ablation sweeps.

The executor clamps ``jobs`` to the core count, so the core count is
patched above the widest request: every pooled run below really uses
the width it asks for, on any host, as its telemetry shows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    run_chopper_ablation,
    run_design_space,
    run_feedback_ablation,
    run_osr_ablation,
    run_population,
    run_robustness_sweep,
)

MAX_JOBS = 4


@pytest.fixture(autouse=True)
def _cores(monkeypatch):
    monkeypatch.setattr(
        "repro.parallel.executor.os.cpu_count", lambda: MAX_JOBS
    )


def assert_widths(serial, pooled, jobs):
    assert serial.telemetry.jobs == 1
    assert pooled.telemetry.jobs == pooled.telemetry.jobs_requested == jobs


class TestPopulationEquivalence:
    def test_population_bit_identical_across_jobs(self):
        serial = run_population(n_subjects=4, duration_s=6.0, jobs=1)
        pooled = run_population(n_subjects=4, duration_s=6.0, jobs=4)
        assert_widths(serial, pooled, 4)
        assert np.array_equal(
            serial.systolic_errors_mmhg, pooled.systolic_errors_mmhg
        )
        assert np.array_equal(
            serial.diastolic_errors_mmhg, pooled.diastolic_errors_mmhg
        )
        assert np.array_equal(
            serial.waveform_rms_mmhg, pooled.waveform_rms_mmhg
        )
        assert serial.subjects == pooled.subjects

    def test_population_telemetry_reconciles(self):
        result = run_population(n_subjects=4, duration_s=6.0, jobs=2)
        result.telemetry.reconcile()
        assert result.telemetry.jobs == 2
        assert result.telemetry.tasks_completed == 4
        # Worker-side chain construction hits the warm FIR/membrane cache.
        assert result.telemetry.cache_hits > 0


class TestGridEquivalence:
    def test_design_space_grid_bit_identical_across_jobs(self):
        serial = run_design_space(n_out=128, jobs=1)
        pooled = run_design_space(n_out=128, jobs=4)
        assert_widths(serial, pooled, 4)
        assert np.array_equal(serial.enob, pooled.enob)
        assert serial.pareto_front() == pooled.pareto_front()

    def test_osr_ablation_bit_identical_across_jobs(self):
        serial = run_osr_ablation(n_out=256, jobs=1)
        pooled = run_osr_ablation(n_out=256, jobs=3)
        assert_widths(serial, pooled, 3)
        assert np.array_equal(serial.enob_2nd, pooled.enob_2nd)
        assert np.array_equal(serial.enob_1st, pooled.enob_1st)
        assert (
            serial.slope_2nd_bits_per_octave
            == pooled.slope_2nd_bits_per_octave
        )

    def test_feedback_ablation_bit_identical_across_jobs(self):
        serial = run_feedback_ablation(n_out=512, jobs=1)
        pooled = run_feedback_ablation(n_out=512, jobs=2)
        assert_widths(serial, pooled, 2)
        assert np.array_equal(
            serial.snr_db, pooled.snr_db, equal_nan=True
        )
        assert np.array_equal(
            serial.clipped_fraction, pooled.clipped_fraction
        )

    def test_chopper_ablation_bit_identical_across_jobs(self):
        serial = run_chopper_ablation(n_out=512, jobs=1)
        pooled = run_chopper_ablation(n_out=512, jobs=2)
        assert_widths(serial, pooled, 2)
        assert serial.snr_off_db == pooled.snr_off_db
        assert serial.snr_on_db == pooled.snr_on_db

    def test_robustness_sweep_bit_identical_across_jobs(self):
        serial = run_robustness_sweep(n_trials=3, jobs=1)
        pooled = run_robustness_sweep(n_trials=3, jobs=3)
        assert_widths(serial, pooled, 3)
        assert np.array_equal(
            serial.sys_error_with_rejection_mmhg,
            pooled.sys_error_with_rejection_mmhg,
        )
        assert np.array_equal(serial.servo_error_pa, pooled.servo_error_pa)
