"""Deterministic process-pool execution engine for independent tasks.

The design discipline mirrors the chunk-invariance work of the streaming
sessions (docs/THEORY.md §7): parallelism must never change the numbers.
Three rules make results bit-identical for any worker count:

1. **Per-task child seeds.** When a run is seeded, the executor spawns
   one :class:`numpy.random.SeedSequence` child per *task index* before
   anything is scheduled, so a task's random stream depends only on the
   master seed and its position in the submission order — never on which
   worker ran it or how tasks were chunked.
2. **Stateless tasks.** A task function receives its item (and its seed)
   and returns a picklable value; it must not read mutable shared state.
   Expensive *immutable* setup is shared through the process-local
   :class:`~repro.parallel.cache.PrecomputeCache` instead.
3. **Ordered collection.** Chunks complete in any order; results are
   reassembled by task index before :meth:`ParallelExecutor.map`
   returns.

``jobs=1`` runs the identical chunked task loop in-process (no pool, no
pickling) — the serial fallback the equivalence tests compare against.

Every ``map`` produces an :class:`ExecutorTelemetry`: task-conservation
counters, per-worker wall time, cache hit/miss deltas and derived
speedup/efficiency estimates, with a :meth:`~ExecutorTelemetry.reconcile`
that asserts the counters agree — the executor-level analogue of the
pipeline telemetry carried by acquisition sessions.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from ..errors import ConfigurationError
from .cache import precompute_cache

#: Target number of chunks dispatched per worker. Several waves per
#: worker keep the pool busy when task durations vary, without pickling
#: every task separately.
_CHUNKS_PER_WORKER = 4


@dataclass
class ExecutorTelemetry:
    """Counters and timings of one :meth:`ParallelExecutor.map` run."""

    #: Worker-pool width the executor actually ran with (post-clamp).
    jobs: int = 1
    #: Worker count the caller asked for (0 = unrecorded; equals
    #: ``jobs`` unless the executor clamped to the core budget).
    jobs_requested: int = 0
    #: Tasks per dispatched chunk (the last chunk may be smaller).
    chunk_size: int = 0
    #: Tasks handed to :meth:`ParallelExecutor.map`.
    tasks_submitted: int = 0
    #: Tasks whose results were collected and ordered.
    tasks_completed: int = 0
    #: Chunks sent to the pool (or run in-process for ``jobs=1``).
    chunks_dispatched: int = 0
    #: Chunks whose reports came back.
    chunks_completed: int = 0
    #: Wall time of the whole map call, including scheduling.
    wall_seconds: float = 0.0
    #: Sum of per-task wall time measured inside the workers.
    task_seconds: float = 0.0
    #: Wall time per worker process, keyed by ``pid-<n>``.
    worker_seconds: dict[str, float] = field(default_factory=dict)
    #: Precompute-cache hits accumulated inside workers during the run.
    cache_hits: int = 0
    #: Precompute-cache misses accumulated inside workers during the run.
    cache_misses: int = 0
    #: Advisory notes about the run's configuration (e.g. a pool wider
    #: than the machine). Never affect results or reconciliation.
    warnings: list[str] = field(default_factory=list)

    @property
    def workers_used(self) -> int:
        return len(self.worker_seconds)

    def speedup_estimate(self) -> float:
        """Aggregate task time over wall time — the realized speedup."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.task_seconds / self.wall_seconds

    def parallel_efficiency(self) -> float:
        """Speedup per configured worker (1.0 = perfect scaling)."""
        if self.jobs <= 0:
            return 0.0
        return self.speedup_estimate() / self.jobs

    def cache_hit_rate(self) -> float:
        """Worker-side cache hits over total lookups (0 when unused)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def reconcile(self) -> None:
        """Assert task conservation and internal counter consistency.

        Raises :class:`~repro.errors.ConfigurationError` on the first
        violated identity, mirroring
        :meth:`~repro.core.session.PipelineTelemetry.reconcile`.
        """

        def require(ok: bool, what: str) -> None:
            if not ok:
                raise ConfigurationError(
                    f"executor telemetry inconsistency: {what} ({self})"
                )

        require(self.jobs >= 1, "executor must have at least one worker")
        if self.jobs_requested:
            require(
                self.jobs_requested >= self.jobs,
                "clamping can only lower the worker count",
            )
        require(
            self.tasks_completed == self.tasks_submitted,
            "every submitted task must complete exactly once",
        )
        require(
            self.chunks_completed == self.chunks_dispatched,
            "every dispatched chunk must report back",
        )
        if self.tasks_submitted > 0:
            require(self.chunk_size >= 1, "chunk size must be >= 1")
            require(
                self.chunks_dispatched
                == math.ceil(self.tasks_submitted / self.chunk_size),
                "chunk count must cover the task list exactly",
            )
            require(
                self.workers_used >= 1,
                "completed tasks imply at least one worker",
            )
        require(
            self.workers_used <= max(self.jobs, 1),
            "cannot use more workers than the configured pool width",
        )
        require(
            self.cache_hits >= 0 and self.cache_misses >= 0,
            "cache counters must be non-negative",
        )
        require(self.wall_seconds >= 0.0, "wall time must be non-negative")
        # Worker wall time covers the per-task time it contains (equality
        # never holds exactly: chunk timing includes loop overhead).
        total_worker = sum(self.worker_seconds.values())
        require(
            total_worker >= self.task_seconds - 1e-6,
            "per-worker wall time cannot undercut the task time it spans",
        )

    def describe(self) -> str:
        """Human-readable summary (the CLI's post-run footer)."""
        clamped = (
            f", clamped from {self.jobs_requested}"
            if self.jobs_requested and self.jobs_requested != self.jobs
            else ""
        )
        lines = [
            "ExecutorTelemetry",
            f"  jobs              : {self.jobs} "
            f"({self.workers_used} worker(s) used{clamped})",
            f"  tasks             : {self.tasks_completed}/"
            f"{self.tasks_submitted} in {self.chunks_completed} chunk(s) "
            f"of <= {self.chunk_size}",
            f"  wall / task time  : {self.wall_seconds:.3f} s / "
            f"{self.task_seconds:.3f} s",
            f"  speedup           : {self.speedup_estimate():.2f}x "
            f"(efficiency {self.parallel_efficiency() * 100:.0f}%)",
            f"  precompute cache  : {self.cache_hits} hit(s), "
            f"{self.cache_misses} miss(es) "
            f"({self.cache_hit_rate() * 100:.0f}% hit rate)",
        ]
        for worker in sorted(self.worker_seconds):
            lines.append(
                f"  t({worker:<12})  : "
                f"{self.worker_seconds[worker] * 1e3:.1f} ms"
            )
        for note in self.warnings:
            lines.append(f"  warning           : {note}")
        return "\n".join(lines)


@dataclass
class _ChunkReport:
    """What one executed chunk sends back to the scheduler."""

    chunk_id: int
    worker: str
    seconds: float
    task_seconds: float
    cache_hits: int
    cache_misses: int
    #: ``(task_index, value)`` pairs, in within-chunk order.
    results: list[tuple[int, Any]]


def _run_chunk(
    payload: tuple[Callable[..., Any], int, list[tuple[int, Any, Any]]],
) -> _ChunkReport:
    """Execute one chunk of tasks (in a pool worker or in-process).

    Module-level so it pickles under every start method. Snapshots the
    process-local precompute-cache counters around the chunk so the
    parent can aggregate worker-side hits/misses.
    """
    fn, chunk_id, tasks = payload
    cache = precompute_cache()
    hits0, misses0 = cache.hits, cache.misses
    results: list[tuple[int, Any]] = []
    task_seconds = 0.0
    t0 = time.perf_counter()
    for index, item, seed in tasks:
        t_task = time.perf_counter()
        value = fn(item) if seed is None else fn(item, seed)
        task_seconds += time.perf_counter() - t_task
        results.append((index, value))
    return _ChunkReport(
        chunk_id=chunk_id,
        worker=f"pid-{os.getpid()}",
        seconds=time.perf_counter() - t0,
        task_seconds=task_seconds,
        cache_hits=cache.hits - hits0,
        cache_misses=cache.misses - misses0,
        results=results,
    )


class ParallelExecutor:
    """Deterministic fan-out of independent tasks over a process pool.

    ``jobs`` is the worker count. ``1`` (default) runs everything
    in-process through the same chunked task loop — the exact serial
    path the equivalence tests compare the pool against. A wider pool
    is clamped to ``min(jobs, cpu_count)``: oversubscribed workers only
    time-slice the same cores at a net slowdown, and results are
    bit-identical for any worker count anyway. The clamp is recorded in
    :class:`ExecutorTelemetry`.

    Each worker receives ``ceil(n_tasks / (jobs * 4))`` tasks per chunk,
    so it sees several scheduling waves. Workers are forked where the
    platform can (they inherit warm caches and the compiled modulator
    kernel for free), else started the platform's default way.
    """

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ConfigurationError("executor needs at least one job")
        self.jobs_requested = int(jobs)
        self.jobs = int(jobs)
        # Flag the clamp once, loudly, instead of letting "why is
        # jobs=32 slower than jobs=8" go undiagnosed.
        cores = os.cpu_count() or 1
        self._oversubscribed: str | None = None
        if self.jobs > cores:
            self.jobs = cores
            self._oversubscribed = (
                f"jobs={self.jobs_requested} exceeds the {cores} "
                f"available CPU core(s); clamped to {self.jobs} worker(s)"
            )
            warnings.warn(self._oversubscribed, RuntimeWarning, stacklevel=2)
        #: Telemetry of the most recent :meth:`map` call.
        self.telemetry = ExecutorTelemetry(
            jobs=self.jobs, jobs_requested=self.jobs_requested
        )

    def map(
        self,
        fn: Callable[..., Any],
        items: Iterable[Any],
        seed: int | None = None,
    ) -> list[Any]:
        """Run ``fn`` over ``items``; return results in submission order.

        ``fn`` must be a module-level (picklable) callable. Without
        ``seed`` it is called as ``fn(item)``; with an integer ``seed``
        each call receives ``fn(item, seed_sequence)`` where the
        sequences are the ``SeedSequence(seed).spawn`` children, indexed
        by task position — the discipline that makes results independent
        of ``jobs``, chunking and completion order.

        The run's :class:`ExecutorTelemetry` lands in :attr:`telemetry`
        (already reconciled).
        """
        if seed is not None and not isinstance(seed, (int, np.integer)):
            raise ConfigurationError(
                f"executor seed must be an int or None, got {type(seed)!r}"
            )
        tasks = list(items)
        n = len(tasks)
        tm = ExecutorTelemetry(
            jobs=self.jobs, jobs_requested=self.jobs_requested
        )
        if self._oversubscribed is not None:
            tm.warnings.append(self._oversubscribed)
        self.telemetry = tm
        tm.tasks_submitted = n
        if n == 0:
            return []

        seeds = (
            [None] * n if seed is None
            else np.random.SeedSequence(int(seed)).spawn(n)
        )
        chunk = math.ceil(n / (self.jobs * _CHUNKS_PER_WORKER))
        tm.chunk_size = chunk
        payloads = [
            (
                fn,
                chunk_id,
                [
                    (i, tasks[i], seeds[i])
                    for i in range(lo, min(lo + chunk, n))
                ],
            )
            for chunk_id, lo in enumerate(range(0, n, chunk))
        ]
        tm.chunks_dispatched = len(payloads)

        t0 = time.perf_counter()
        if self.jobs == 1:
            reports = [_run_chunk(p) for p in payloads]
        else:
            ctx = multiprocessing.get_context(
                "fork" if hasattr(os, "fork") else None
            )
            processes = min(self.jobs, len(payloads))
            # close() + join(), not the context manager's terminate():
            # terminating while a task raised can deadlock the pool's
            # task-handler thread. Queued chunks finish before a task
            # error propagates.
            pool = ctx.Pool(processes=processes)
            try:
                reports = list(pool.imap_unordered(_run_chunk, payloads))
            finally:
                pool.close()
                pool.join()
        tm.wall_seconds = time.perf_counter() - t0

        # Ordered collection: completion order is scheduling noise;
        # task indices are the only ordering that exists.
        slots: list[Any] = [None] * n
        filled = [False] * n
        for report in reports:
            tm.chunks_completed += 1
            tm.task_seconds += report.task_seconds
            tm.worker_seconds[report.worker] = (
                tm.worker_seconds.get(report.worker, 0.0) + report.seconds
            )
            tm.cache_hits += report.cache_hits
            tm.cache_misses += report.cache_misses
            for index, value in report.results:
                if filled[index]:
                    raise ConfigurationError(
                        f"task {index} completed twice; scheduler bug"
                    )
                slots[index] = value
                filled[index] = True
                tm.tasks_completed += 1
        tm.reconcile()
        return slots
