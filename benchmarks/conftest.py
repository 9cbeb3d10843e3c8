"""Shared benchmark plumbing: paper-vs-measured table printing.

Each benchmark runs its experiment harness once (they are seconds-long
simulations, not microbenchmarks — ``pedantic`` with one round) and prints
the same rows the paper reports, in a uniform table.
"""

from __future__ import annotations

import os


def print_rows(title: str, rows: list[tuple[str, str, str]]) -> None:
    """Render (quantity, paper, measured) rows under a banner."""
    width_q = max(len(r[0]) for r in rows)
    width_p = max(len(r[1]) for r in rows)
    print()
    print("=" * 72)
    print(title)
    print("-" * 72)
    print(f"{'quantity':<{width_q}}  {'paper':<{width_p}}  measured")
    for quantity, paper, measured in rows:
        print(f"{quantity:<{width_q}}  {paper:<{width_p}}  {measured}")
    print("=" * 72)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)


def native_provenance() -> dict:
    """Which native build ran, and where: the batch kernels' ISA variant,
    how the library was obtained, the core count and the compiler."""
    from repro import native

    return {
        "kernel_isa": native.isa(),
        "kernel_build": native.build_status(),
        "cpu_cores": os.cpu_count() or 1,
        "compiler": native.compiler(),
    }
