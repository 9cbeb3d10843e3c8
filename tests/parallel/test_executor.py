"""ParallelExecutor: determinism contract, scheduling, telemetry."""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError
from repro.parallel import ExecutorTelemetry, ParallelExecutor

# Many pools whose tasks raise, in a child process so a deadlocked pool
# fails the test at its deadline instead of hanging the suite.
RAISING_POOLS = """
import os
from repro.parallel import ParallelExecutor

# Two cores for the clamp whatever the host has, so the pool is real.
os.cpu_count = lambda: 2

def boom(x):
    raise ValueError(x)

for _ in range(150):
    try:
        ParallelExecutor(jobs=2).map(boom, range(3))
    except ValueError:
        pass
"""


def _square(x):
    return x * x


def _seeded_draw(x, seed):
    rng = np.random.default_rng(seed)
    return (x, int(rng.integers(0, 1_000_000)))


def _pid_of(x):
    return os.getpid()


def _boom(x):
    raise ValueError(f"task {x} exploded")


def _pool(jobs):
    """A real pool of ``jobs`` workers on any host.

    Several tests need actual worker processes regardless of how many
    cores the test box exposes, so the core count the clamp reads at
    construction is patched to ``jobs``, as :class:`TestCoreClamp` does.
    """
    with mock.patch("repro.parallel.executor.os.cpu_count", lambda: jobs):
        return ParallelExecutor(jobs=jobs)


class TestScheduling:
    def test_results_in_submission_order(self):
        ex = ParallelExecutor(jobs=1)
        assert ex.map(_square, range(10)) == [x * x for x in range(10)]

    def test_order_preserved_with_pool(self):
        ex = _pool(3)
        assert ex.map(_square, range(10)) == [x * x for x in range(10)]

    def test_empty_items(self):
        ex = _pool(2)
        assert ex.map(_square, []) == []
        assert ex.telemetry.tasks_submitted == 0
        ex.telemetry.reconcile()

    def test_jobs_one_runs_in_process(self):
        ex = ParallelExecutor(jobs=1)
        pids = ex.map(_pid_of, range(4))
        assert set(pids) == {os.getpid()}

    def test_pool_uses_other_processes(self):
        ex = _pool(2)
        pids = ex.map(_pid_of, range(4))
        assert os.getpid() not in pids

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=0)

    def test_task_error_propagates(self):
        ex = ParallelExecutor(jobs=1)
        with pytest.raises(ValueError, match="exploded"):
            ex.map(_boom, range(3))

    def test_task_error_propagates_from_pool(self):
        ex = _pool(2)
        with pytest.raises(ValueError, match="exploded"):
            ex.map(_boom, range(3))

    def test_task_errors_never_deadlock_the_pool(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", RAISING_POOLS],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr


class TestSeedDiscipline:
    def test_results_identical_for_any_worker_count(self):
        reference = ParallelExecutor(jobs=1).map(
            _seeded_draw, range(12), seed=99
        )
        for jobs in (2, 3, 4):
            ex = _pool(jobs)
            assert ex.map(_seeded_draw, range(12), seed=99) == reference

    def test_seed_changes_results(self):
        a = ParallelExecutor(jobs=1).map(_seeded_draw, range(4), seed=1)
        b = ParallelExecutor(jobs=1).map(_seeded_draw, range(4), seed=2)
        assert a != b

    def test_seed_sequence_rejected(self):
        # Spawning advances a SeedSequence, so a reused one would not
        # reproduce its results; only an int master seed is accepted.
        ex = ParallelExecutor(jobs=1)
        master = np.random.SeedSequence(1234)
        with pytest.raises(ConfigurationError, match="int or None"):
            ex.map(_seeded_draw, range(4), seed=master)
        with pytest.raises(ConfigurationError, match="int or None"):
            ex.map(_seeded_draw, range(4), seed=1.5)

    def test_int_seed_reused_twice_is_equal(self):
        ex = ParallelExecutor(jobs=1)
        seed = 1234
        a = ex.map(_seeded_draw, range(4), seed=seed)
        b = ex.map(_seeded_draw, range(4), seed=seed)
        assert a == b

    def test_tasks_depend_on_index_not_chunking(self):
        # Same master seed, different chunking (3 tasks per chunk in
        # process, 1 per chunk on three workers): task k must draw the
        # same values because its child seed is fixed by k.
        coarse_ex = ParallelExecutor(jobs=1)
        coarse = coarse_ex.map(_seeded_draw, range(12), seed=7)
        fine_ex = _pool(3)
        fine = fine_ex.map(_seeded_draw, range(12), seed=7)
        assert coarse_ex.telemetry.chunk_size == 3
        assert fine_ex.telemetry.chunk_size == 1
        assert coarse == fine


class TestTelemetry:
    def test_counters_reconcile(self):
        ex = _pool(2)
        ex.map(_square, range(10))
        tm = ex.telemetry
        tm.reconcile()
        assert tm.tasks_submitted == tm.tasks_completed == 10
        assert tm.chunk_size == 2  # ceil(10 / (2 workers * 4 waves))
        assert tm.chunks_dispatched == tm.chunks_completed == 5
        assert tm.workers_used >= 1
        assert tm.wall_seconds > 0.0

    def test_auto_chunking_covers_all_tasks(self):
        ex = _pool(2)
        ex.map(_square, range(17))
        ex.telemetry.reconcile()
        assert ex.telemetry.tasks_completed == 17

    def test_reconcile_rejects_lost_task(self):
        tm = ExecutorTelemetry(
            jobs=1,
            chunk_size=1,
            tasks_submitted=2,
            tasks_completed=1,
            chunks_dispatched=2,
            chunks_completed=2,
            worker_seconds={"pid-1": 0.1},
        )
        with pytest.raises(ConfigurationError, match="complete exactly once"):
            tm.reconcile()

    def test_reconcile_rejects_worker_overflow(self):
        tm = ExecutorTelemetry(
            jobs=1,
            chunk_size=1,
            tasks_submitted=1,
            tasks_completed=1,
            chunks_dispatched=1,
            chunks_completed=1,
            worker_seconds={"pid-1": 0.1, "pid-2": 0.1},
        )
        with pytest.raises(ConfigurationError, match="pool width"):
            tm.reconcile()

    def test_describe_mentions_workers_and_cache(self):
        ex = ParallelExecutor(jobs=1)
        ex.map(_square, range(3))
        text = ex.telemetry.describe()
        assert "ExecutorTelemetry" in text
        assert "precompute cache" in text
        assert "pid-" in text


class TestCoreClamp:
    """jobs > cores clamps to the core budget."""

    def test_clamps_and_warns_once_at_construction(self, monkeypatch):
        monkeypatch.setattr("repro.parallel.executor.os.cpu_count", lambda: 1)
        with pytest.warns(RuntimeWarning, match="exceeds the 1 available"):
            ex = ParallelExecutor(jobs=2)
        assert ex.jobs == 1
        assert ex.jobs_requested == 2
        # map() itself stays quiet — the construction warning is the one
        # interruption; telemetry carries it from then on.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = ex.map(_square, range(4))
        assert results == [0, 1, 4, 9]

    def test_clamp_lands_in_telemetry_and_describe(self, monkeypatch):
        monkeypatch.setattr("repro.parallel.executor.os.cpu_count", lambda: 1)
        with pytest.warns(RuntimeWarning):
            ex = ParallelExecutor(jobs=2)
        ex.map(_square, range(4))
        tm = ex.telemetry
        assert tm.jobs == 1
        assert tm.jobs_requested == 2
        assert len(tm.warnings) == 1
        assert "jobs=2 exceeds" in tm.warnings[0]
        assert "clamped to 1 worker" in tm.warnings[0]
        text = tm.describe()
        assert "warning" in text
        assert "clamped from 2" in text
        tm.reconcile()  # the clamp never unbalances the books

    def test_no_warning_within_budget(self, monkeypatch):
        monkeypatch.setattr("repro.parallel.executor.os.cpu_count", lambda: 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ex = ParallelExecutor(jobs=2)
        assert ex.jobs == 2
        ex.map(_square, range(4))
        assert ex.telemetry.warnings == []

    def test_cpu_count_unknown_assumes_one_core(self, monkeypatch):
        monkeypatch.setattr(
            "repro.parallel.executor.os.cpu_count", lambda: None
        )
        with pytest.warns(RuntimeWarning, match="the 1 available"):
            ex = ParallelExecutor(jobs=4)
        assert ex.jobs == 1

    def test_reconcile_rejects_raised_clamp(self):
        tm = ExecutorTelemetry(jobs=4, jobs_requested=2)
        with pytest.raises(ConfigurationError, match="lower the worker"):
            tm.reconcile()
