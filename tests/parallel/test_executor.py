"""ParallelExecutor: determinism contract, scheduling, telemetry."""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError
from repro.parallel import ExecutorTelemetry, ParallelExecutor

# Many pools whose tasks raise, in a child process so a deadlocked pool
# fails the test at its deadline instead of hanging the suite.
RAISING_POOLS = """
import warnings
from repro.parallel import ParallelExecutor

def boom(x):
    raise ValueError(x)

warnings.simplefilter("ignore", RuntimeWarning)
for _ in range(150):
    try:
        ParallelExecutor(jobs=2, force_jobs=True).map(boom, range(3))
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


def _square_batch(items):
    return [x * x for x in items]


def _seeded_batch(items, seeds):
    return [_seeded_draw(x, s) for x, s in zip(items, seeds)]


def _short_batch(items):
    return [x * x for x in items[:-1]]


def _pool(jobs, **kwargs):
    """A real pool of ``jobs`` workers, silencing the clamp warning.

    Several tests need actual worker processes regardless of how many
    cores the test box exposes; force_jobs is exactly that escape hatch.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return ParallelExecutor(jobs=jobs, force_jobs=True, **kwargs)


class TestScheduling:
    def test_results_in_submission_order(self):
        ex = ParallelExecutor(jobs=1)
        assert ex.map(_square, range(10)) == [x * x for x in range(10)]

    def test_order_preserved_with_pool(self):
        ex = _pool(3, chunk_size=1)
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
        ex = _pool(2, chunk_size=1)
        pids = ex.map(_pid_of, range(4))
        assert os.getpid() not in pids

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=0)
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=2, chunk_size=0)

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
        for jobs, chunk in ((2, None), (3, 1), (4, 5)):
            ex = _pool(jobs, chunk_size=chunk)
            assert ex.map(_seeded_draw, range(12), seed=99) == reference

    def test_seed_changes_results(self):
        a = ParallelExecutor(jobs=1).map(_seeded_draw, range(4), seed=1)
        b = ParallelExecutor(jobs=1).map(_seeded_draw, range(4), seed=2)
        assert a != b

    def test_seed_sequence_accepted(self):
        master = np.random.SeedSequence(1234)
        a = ParallelExecutor(jobs=1).map(_seeded_draw, range(4), seed=master)
        b = ParallelExecutor(jobs=1).map(_seeded_draw, range(4), seed=1234)
        assert a == b

    def test_tasks_depend_on_index_not_chunking(self):
        # Same master seed, radically different chunking: task k must
        # draw the same values because its child seed is fixed by k.
        coarse = ParallelExecutor(jobs=1, chunk_size=12).map(
            _seeded_draw, range(12), seed=7
        )
        fine = ParallelExecutor(jobs=1, chunk_size=1).map(
            _seeded_draw, range(12), seed=7
        )
        assert coarse == fine


class TestTelemetry:
    def test_counters_reconcile(self):
        ex = _pool(2, chunk_size=3)
        ex.map(_square, range(10))
        tm = ex.telemetry
        tm.reconcile()
        assert tm.tasks_submitted == tm.tasks_completed == 10
        assert tm.chunks_dispatched == tm.chunks_completed == 4
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
    """jobs > cores clamps to the core budget unless force_jobs=True."""

    def test_clamps_and_warns_once_at_construction(self, monkeypatch):
        monkeypatch.setattr("repro.parallel.executor.os.cpu_count", lambda: 1)
        with pytest.warns(RuntimeWarning, match="exceeds the 1 available"):
            ex = ParallelExecutor(jobs=2, chunk_size=2)
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
            ex = ParallelExecutor(jobs=2, chunk_size=2)
        ex.map(_square, range(4))
        tm = ex.telemetry
        assert tm.jobs == 1
        assert tm.jobs_requested == 2
        assert len(tm.warnings) == 1
        assert "jobs=2 exceeds" in tm.warnings[0]
        assert "force_jobs=True" in tm.warnings[0]
        text = tm.describe()
        assert "warning" in text
        assert "clamped from 2" in text
        tm.reconcile()  # the clamp never unbalances the books

    def test_force_jobs_keeps_width_and_flags_timeslicing(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.parallel.executor.os.cpu_count", lambda: 1)
        with pytest.warns(RuntimeWarning, match="time-slice"):
            ex = ParallelExecutor(jobs=2, chunk_size=2, force_jobs=True)
        assert ex.jobs == 2
        assert ex.jobs_requested == 2
        ex.map(_square, range(4))
        tm = ex.telemetry
        assert tm.jobs == 2
        assert "time-slice" in tm.warnings[0]
        tm.reconcile()

    def test_no_warning_within_budget(self, monkeypatch):
        monkeypatch.setattr("repro.parallel.executor.os.cpu_count", lambda: 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ex = ParallelExecutor(jobs=2, chunk_size=2)
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


class TestBatchDispatch:
    """map_batches: batched tasks, per-item seeds, per-item results."""

    def test_matches_map_results(self):
        ex = ParallelExecutor(jobs=1)
        want = ex.map(_square, range(11))
        assert ex.map_batches(_square_batch, range(11), batch_size=3) == want

    def test_seeds_are_per_item_not_per_batch(self):
        reference = ParallelExecutor(jobs=1).map(
            _seeded_draw, range(10), seed=42
        )
        for jobs, batch in ((1, 1), (1, 4), (2, 3), (3, 10)):
            ex = _pool(jobs) if jobs > 1 else ParallelExecutor(jobs=1)
            got = ex.map_batches(
                _seeded_batch, range(10), seed=42, batch_size=batch
            )
            assert got == reference

    def test_auto_batch_size(self):
        ex = ParallelExecutor(jobs=1)
        assert ex.map_batches(_square_batch, range(7)) == [
            x * x for x in range(7)
        ]
        ex.telemetry.reconcile()

    def test_empty_items(self):
        ex = ParallelExecutor(jobs=1)
        assert ex.map_batches(_square_batch, []) == []

    def test_result_count_mismatch_rejected(self):
        ex = ParallelExecutor(jobs=1)
        with pytest.raises(ConfigurationError, match="one result per item"):
            ex.map_batches(_short_batch, range(6), batch_size=3)

    def test_invalid_batch_size(self):
        ex = ParallelExecutor(jobs=1)
        with pytest.raises(ConfigurationError, match="batch size"):
            ex.map_batches(_square_batch, range(4), batch_size=0)
