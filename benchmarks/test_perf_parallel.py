"""PERF bench: multi-core experiment executor scaling.

Writes ``BENCH_parallel.json`` at the repo root: wall time, speedup,
parallel efficiency and precompute-cache hit rate for the population
protocol (N=16 subjects) and the design-space grid at jobs in {1, 2, 4}.
The acceptance gates are:

* bit-identical results for every worker count (always enforced),
* executor telemetry reconciling for every run (always enforced),
* >= 2.5x population speedup at jobs=4 — enforced only on runners with
  at least 4 cores (a single-core runner cannot scale; it still records
  its numbers so the multi-core CI lane has a baseline to compare).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from conftest import native_provenance, print_rows

from repro.experiments import run_design_space, run_population

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
JOBS_SWEEP = (1, 2, 4)
N_SUBJECTS = 16
POP_DURATION_S = 6.0
DESIGN_N_OUT = 256
UNMEASURED = "unmeasured (clamped to 1 core)"


def update_bench(section: dict) -> None:
    """Merge keys into BENCH_parallel.json, preserving other sections."""
    report = {}
    if BENCH_PATH.exists():
        try:
            report = json.loads(BENCH_PATH.read_text())
        except json.JSONDecodeError:
            report = {}
    report.update(section)
    report.update(native_provenance())
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")


def _shown(value, template: str) -> str:
    return UNMEASURED if value is None else template.format(value)


def _sweep(run, fingerprint) -> tuple[dict, dict]:
    """Time one harness at every jobs value; assert identity + telemetry.

    ``fingerprint`` maps a result to the arrays that must be
    bit-identical across worker counts.
    """
    runs = {}
    for jobs in JOBS_SWEEP:
        start = time.perf_counter()
        result = run(jobs)
        wall = time.perf_counter() - start
        result.telemetry.reconcile()
        speedup = runs[1]["wall_seconds"] / wall if jobs > 1 else 1.0
        # A run the executor clamped to one worker measures no scaling.
        measured = jobs == 1 or result.telemetry.jobs > 1
        runs[jobs] = {
            "wall_seconds": wall,
            "speedup": speedup if measured else None,
            "parallel_efficiency": speedup / jobs if measured else None,
            "cache_hit_rate": result.telemetry.cache_hit_rate(),
            "workers_used": result.telemetry.workers_used,
            # The executor clamps to the core budget by default; record
            # both sides so the report shows when (and how) it kicked in.
            "jobs_requested": result.telemetry.jobs_requested,
            "jobs_effective": result.telemetry.jobs,
            "clamped": result.telemetry.jobs
            < (result.telemetry.jobs_requested or result.telemetry.jobs),
        }
        if not measured:
            runs[jobs]["scaling"] = UNMEASURED
        if jobs == 1:
            reference = fingerprint(result)
        else:
            for ref, got in zip(reference, fingerprint(result)):
                assert np.array_equal(ref, got)
    return runs, {"bit_identical": True}


def test_perf_parallel(benchmark):
    def full_sweep():
        population, _ = _sweep(
            lambda jobs: run_population(
                n_subjects=N_SUBJECTS, duration_s=POP_DURATION_S, jobs=jobs
            ),
            lambda r: (
                r.systolic_errors_mmhg,
                r.diastolic_errors_mmhg,
                r.waveform_rms_mmhg,
            ),
        )
        design, _ = _sweep(
            lambda jobs: run_design_space(n_out=DESIGN_N_OUT, jobs=jobs),
            lambda r: (r.enob, r.conversion_rates_hz),
        )
        return population, design

    population, design = benchmark.pedantic(
        full_sweep, rounds=1, iterations=1
    )

    cores = os.cpu_count() or 1
    pop4 = population[4]
    update_bench(
        {
            "cpu_cores": cores,
            "population": {
                "n_subjects": N_SUBJECTS,
                "duration_s": POP_DURATION_S,
                "per_jobs": population,
                "bit_identical": True,
            },
            "design_space": {
                "n_out": DESIGN_N_OUT,
                "per_jobs": design,
                "bit_identical": True,
            },
        }
    )

    print_rows(
        f"PERF — executor scaling on {cores} core(s) "
        f"(population N={N_SUBJECTS}, design-space grid)",
        [
            (
                "population wall jobs=1/2/4 [s]",
                "(serial baseline first)",
                "/".join(
                    f"{population[j]['wall_seconds']:.1f}" for j in JOBS_SWEEP
                ),
            ),
            (
                "population speedup at jobs=4",
                ">= 2.5x on >= 4 cores",
                _shown(pop4["speedup"], "{:.2f}x"),
            ),
            (
                "population efficiency at jobs=4",
                "(speedup / jobs)",
                _shown(pop4["parallel_efficiency"], "{:.0%}"),
            ),
            (
                "population cache hit rate",
                "(worker-side FIR+membrane)",
                f"{pop4['cache_hit_rate'] * 100:.0f}%",
            ),
            (
                "design-space speedup at jobs=4",
                "(grid of 15 cells)",
                _shown(design[4]["speedup"], "{:.2f}x"),
            ),
            ("bit-identical across jobs", "yes", "yes"),
        ],
    )

    # Scaling is only assertable where the silicon can scale; the
    # bit-identity and telemetry gates above ran unconditionally.
    if cores >= 4:
        assert pop4["speedup"] >= 2.5
    # Worker-side chain construction must hit the warm precompute cache.
    assert pop4["cache_hit_rate"] > 0.5
