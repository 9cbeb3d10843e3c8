"""Compiled fast path for the second-order sigma-delta loop.

The modulator recurrence is inherently serial — the comparator decision
at sample ``n`` feeds back into the states that produce the decision at
``n + 1`` — so it cannot be expressed as NumPy whole-array operations
without changing its semantics. The fast backend therefore works in two
layers, both *bit-identical* to the reference loop in
:mod:`repro.sdm.modulator`:

* **Block preparation in NumPy** — all stochastic terms (kT/C white
  noise, flicker, DAC reference noise, jitter slope) and the input
  scaling ``a1 * u`` are precomputed as whole arrays, exactly as the
  reference path draws them, so the per-sample recurrence touches only
  five scalar state updates.
* **A compiled scalar kernel** — the residual recurrence runs as
  ``sdm_run`` in the process's one native library
  (:mod:`repro.native`), which performs the identical IEEE-754 double
  operations in the identical order. This module only marshals arrays
  into it.

The kernel covers deterministic comparators (ideal, offset, hysteresis)
without state recording or overload aborts. Everything else — metastable
comparators (in-loop random draws), ``record_states``,
``overload_policy="raise"``, or no native library at all — runs the
reference loop instead (see
:meth:`repro.sdm.modulator.SecondOrderSDM.simulate`).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .. import native


def kernel_available() -> bool:
    """True when the native library (and so ``sdm_run``) is loaded."""
    return native.available()


@dataclass
class LoopResult:
    """Raw outcome of one fast-path recurrence run."""

    bits: np.ndarray  # int8 +/-1 decisions
    clipped: int  # cycles that hit the swing limiter
    x1: float  # final first-stage state
    x2: float  # final second-stage state
    comp_previous: int  # comparator memory after the run


def run_loop(
    au: np.ndarray,
    noise: np.ndarray,
    dac_noise: np.ndarray | None,
    dac_gain: float,
    p1: float,
    b1: float,
    p2: float,
    a2: float,
    b2: float,
    swing: float,
    x1: float,
    x2: float,
    ideal_comparator: bool = True,
    comp_offset: float = 0.0,
    comp_hysteresis: float = 0.0,
    comp_previous: int = 1,
) -> LoopResult:
    """Run the prepared recurrence through the compiled kernel.

    ``au`` must already be ``a1 * u`` (the precomputed input branch) and
    ``noise`` the fully-drawn per-sample noise so the kernel stays
    deterministic. The caller checks :func:`kernel_available` first.
    """
    lib = native.library()
    if lib is None:  # pragma: no cover - the modulator guards this
        raise RuntimeError("native library unavailable; use the reference loop")
    n = int(au.size)
    au = np.ascontiguousarray(au, dtype=np.float64)
    noise = np.ascontiguousarray(noise, dtype=np.float64)
    if dac_noise is not None:
        dac_noise = np.ascontiguousarray(dac_noise, dtype=np.float64)
    bits = np.empty(n, dtype=np.int8)
    state = np.array([x1, x2], dtype=np.float64)
    prev = ctypes.c_int(comp_previous)
    clipped = lib.sdm_run(
        n,
        au.ctypes.data_as(native.DBL_P),
        noise.ctypes.data_as(native.DBL_P),
        dac_noise.ctypes.data_as(native.DBL_P) if dac_noise is not None else None,
        dac_gain,
        p1,
        b1,
        p2,
        a2,
        b2,
        swing,
        state.ctypes.data_as(native.DBL_P),
        bits.ctypes.data_as(ctypes.POINTER(ctypes.c_int8)),
        1 if ideal_comparator else 0,
        comp_offset,
        comp_hysteresis,
        ctypes.byref(prev),
    )
    return LoopResult(
        bits=bits,
        clipped=int(clipped),
        x1=float(state[0]),
        x2=float(state[1]),
        comp_previous=int(prev.value),
    )
