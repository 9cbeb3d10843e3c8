"""Deterministic parallel execution for embarrassingly-parallel workloads.

The paper's array readout gets its throughput from the independence of
the array elements; the experiment harnesses get theirs the same way —
virtual subjects, design-space cells and ablation arms are all
independent work items. :class:`ParallelExecutor` fans such items out
over a process pool in one call form, ``map(fn, items, seed)``, with a
seeding discipline (per-task child seeds spawned from an integer master
seed via ``SeedSequence.spawn``) and ordered result collection that make
every result **bit-identical for any worker count**, including the
in-process ``jobs=1`` serial path.

Workers amortize expensive per-task setup (FIR tap design, membrane
transfer solves) through the process-local :class:`PrecomputeCache`,
whose hit/miss counters surface in the executor's
:class:`ExecutorTelemetry` alongside task conservation counters and
per-worker wall time (see docs/THEORY.md §8 for the contract).
"""

from .cache import PrecomputeCache, precompute_cache
from .executor import ExecutorTelemetry, ParallelExecutor

__all__ = [
    "ExecutorTelemetry",
    "ParallelExecutor",
    "PrecomputeCache",
    "precompute_cache",
]
