"""Fused batched chain kernel: chip front end -> sigma-delta -> CIC ->
FIR -> 12-bit codes.

One call advances ``B`` independent readout chains by ``n`` modulator
samples and returns every decimated 12-bit word the chunk completed, per
lane. The whole digital cascade of :mod:`repro.dsp` runs *inside* the
sample loop, so the bitstream never materializes and the per-stage
Python seams of the single-session path disappear. A second entry point
(:func:`run_frontend_chunk`) evaluates the capacitive front end — the
membrane's Chebyshev transfer, per-element mismatch, the mux
charge-injection glitch and the charge front-end gain — in the same
compiled pass, reading the caller's pressure fields in place (no
``(B, n)`` staging copies).

Both entry points run in the process's one native library
(:mod:`repro.native`, which holds their C source); this module only
marshals arrays into them.

Bit-identity discipline (the same contract as :mod:`repro.sdm.fastpath`,
extended across the cascade):

* The modulator recurrence performs the identical IEEE-754 double
  operations in the identical order as the reference loop, compiled with
  FP contraction disabled. The deterministic comparator is evaluated
  branchlessly through the offset/hysteresis form, which reduces *bit-
  exactly* to the ideal ``x2 >= 0`` comparator when offset and
  hysteresis are zero (including the ``-0.0`` input case).
* The front-end kernel replays ``numpy.polynomial.chebyshev.chebval``'s
  Clenshaw recurrence and domain map term for term (scalar coefficient
  minus element, then multiply-add with contraction off), so it returns
  the same doubles ``MembraneSensor.capacitance_f`` produces; the
  element/mux/front-end affine steps mirror their NumPy expressions
  operation for operation.
* CIC integrators accumulate the +/-1 decisions in ``uint64`` with
  natural mod-2^64 wraparound; values are sign-extended to the Hogenauer
  register width only where the comb cascade reads them. Wrapping
  commutes with addition, so this matches
  :class:`repro.dsp.cic.CICDecimator` exactly.
* The FIR multiply-accumulate is exact int64 arithmetic (the register
  bound keeps |acc| < 2^31), so summation order is irrelevant.
* Quantization computes ``rint((double)acc * qscale)`` — the same
  half-to-even rounding as ``np.round`` — then clamps to the output
  rails instead of wrapping.

Lanes are processed in blocks of :data:`~repro.native.LANE_BLOCK` so the
per-block working set (modulator and integrator state plus a handful of
input streams) stays L1-resident; the engine pads the batch to a block
multiple with inert lanes. Reordering lanes into blocks never changes
any single lane's operation sequence, so identity is unaffected.

Both kernels are built for three x86-64 levels (baseline SSE2,
x86-64-v3, x86-64-v4) and the loader runs the one the CPU supports
(:func:`repro.native.isa` names it). Only v3/v4 hold a block in vector
registers: baseline SSE2 has no blend, so its lane loop stays scalar.
Vectorizing across lanes keeps each lane's IEEE operation order, and
the library's flags forbid FMA contraction and reassociation, so every
variant returns the same bits. Measured on a 2-vCPU AVX-512 host
(best of 40 calls), an imaging-shaped chunk (B=64, n=4352) takes 3.31 ms
at baseline, 1.26 ms at v3 and 0.91 ms at v4; a fleet-shaped one
(B=16, n=5120, with noise rows) 1.12, 0.52 and 0.40 ms. ``sdm_run`` (a
serial recurrence) and ``crc16_rows`` (slower under AVX-512) stay
single-variant.

All decimation phases are scalar and shared: the engine requires every
lane to be fed the same number of samples per call (lanes run in
lockstep), which is exactly the batched-acquisition contract.

When the native library is unavailable, the engine falls back to
per-lane processing through the single-session stages (the modulator's
reference loop and the NumPy decimation filter) — slower, but producing
the same bits, so results never depend on the toolchain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import native
from ..native import DBL_P, LANE_BLOCK, LL_P, ULL_P


def batch_kernel_available() -> bool:
    """True when the native library (and so the fused kernels) is loaded."""
    return native.available()


def pad_lanes(B: int) -> int:
    """Batch size padded up to the kernel's lane-block multiple."""
    return -(-B // LANE_BLOCK) * LANE_BLOCK


@dataclass
class BatchState:
    """Mutable per-batch cascade state the kernel reads and writes.

    The engine materializes this from the lane chains before every call
    and writes it back afterwards, so the chains stay the single source
    of truth (any chunk split, or a hand-off to single-session
    processing, resumes bit-exactly). Arrays are sized to the padded
    batch (``pad_lanes(B)``); rows past the real batch are inert.
    """

    x1: np.ndarray  # (Bp) float64 first-integrator states
    x2: np.ndarray  # (Bp) float64 second-integrator states
    comp_previous: np.ndarray  # (Bp) int64 comparator memory
    cic_integrators: np.ndarray  # (3, Bp) int64 (wrapped)
    cic_combs: np.ndarray  # (3, Bp) int64
    cic_phase: int
    fir_history: np.ndarray  # (Bp, taps-1) int64, column 0 oldest
    fir_phase: int


@dataclass
class BatchChunkResult:
    """Outcome of one fused batched chunk."""

    codes: np.ndarray  # (Bp, n_words) int64 12-bit codes, pre-suppression
    clipped: np.ndarray  # (Bp) int64 clipped-cycle counts


def run_batch_chunk(
    n: int,
    au: np.ndarray,
    au_stride: int,
    noise: np.ndarray,
    noise_stride: int,
    dac_noise: np.ndarray,
    dacn_stride: int,
    dac_gain: np.ndarray,
    p1: np.ndarray,
    b1: np.ndarray,
    p2: np.ndarray,
    a2: np.ndarray,
    b2: np.ndarray,
    swing: np.ndarray,
    comp_offset: np.ndarray,
    comp_hysteresis: np.ndarray,
    state: BatchState,
    cic_decimation: int,
    register_bits: int,
    fir_flipped: np.ndarray,
    fir_decimation: int,
    qscale: float,
    output_bits: int,
) -> BatchChunkResult:
    """Advance ``Bp`` fused chains by ``n`` samples through the C kernel.

    ``au``/``noise``/``dac_noise`` are lane-major buffers addressed as
    ``base[l * stride + i]`` — a stride of 0 shares one zero row across
    every lane. ``state`` is updated in place. The caller is responsible
    for checking :func:`batch_kernel_available` first — there is no
    Python fallback at this layer (the engine falls back through the
    existing single-session stages instead).
    """
    lib = native.library()
    if lib is None:  # pragma: no cover - engine guards this
        raise RuntimeError("batched kernel unavailable; use the engine fallback")
    B = int(dac_gain.size)
    taps = int(fir_flipped.size)
    R = int(cic_decimation)
    M = int(fir_decimation)

    # CIC words appear at chunk-local samples first_c, first_c + R, ...
    first_c = (R - state.cic_phase) % R
    n_cic = 0 if n <= first_c else (n - first_c + R - 1) // R
    cap = max(1, n_cic)

    integ = np.ascontiguousarray(
        state.cic_integrators.astype(np.int64).view(np.uint64)
    )
    comb = np.ascontiguousarray(state.cic_combs, dtype=np.int64)
    hist = np.ascontiguousarray(state.fir_history, dtype=np.int64)
    words = np.empty((B, cap), dtype=np.int64)
    clipped = np.zeros(B, dtype=np.int64)
    state_out = np.zeros(3, dtype=np.int64)
    qmax = (1 << (output_bits - 1)) - 1
    qmin = -(1 << (output_bits - 1))

    def dp(a):
        return a.ctypes.data_as(DBL_P)

    def lp(a):
        return a.ctypes.data_as(LL_P)

    nw = lib.batch_chain_run(
        n,
        B,
        dp(au),
        int(au_stride),
        dp(noise),
        int(noise_stride),
        dp(dac_noise),
        int(dacn_stride),
        dp(dac_gain),
        dp(p1),
        dp(b1),
        dp(p2),
        dp(a2),
        dp(b2),
        dp(swing),
        dp(comp_offset),
        dp(comp_hysteresis),
        dp(state.x1),
        dp(state.x2),
        lp(state.comp_previous),
        lp(clipped),
        integ.ctypes.data_as(ULL_P),
        lp(comb),
        R,
        state.cic_phase,
        register_bits,
        lp(np.ascontiguousarray(fir_flipped, dtype=np.int64)),
        taps,
        M,
        state.fir_phase,
        lp(hist),
        qscale,
        qmax,
        qmin,
        lp(words),
        cap,
        lp(state_out),
    )
    if nw < 0:  # pragma: no cover - capacity/padding invariants are exact
        raise RuntimeError("batched kernel invariant violation")

    # Write the cascade state back in the layout the chains use.
    from ..dsp.fixed_point import wrap_twos_complement

    state.cic_integrators = wrap_twos_complement(
        integ.view(np.int64), register_bits
    ).astype(np.int64)
    state.cic_combs = comb
    state.cic_phase = int(state_out[0])
    head = int(state_out[2])
    state.fir_history = np.concatenate(
        [hist[:, head:], hist[:, :head]], axis=1
    )
    state.fir_phase = int(state_out[1])
    return BatchChunkResult(codes=words[:, : int(nw)], clipped=clipped)


def run_frontend_chunk(
    n: int,
    pbase: np.ndarray,
    pstep: np.ndarray,
    au: np.ndarray,
    au_stride: int,
    cheb_coef: np.ndarray,
    dom_off: float,
    dom_scl: float,
    p_min: float,
    p_max: float,
    cap_scale: np.ndarray,
    cap_offset: np.ndarray,
    injection: np.ndarray,
    ref_cap: np.ndarray,
    fb_cap: np.ndarray,
    excitation: np.ndarray,
    a1: np.ndarray,
    u_last: np.ndarray,
) -> bool:
    """Evaluate the capacitive front end for ``B`` lanes in one pass.

    Reads each lane's selected-element pressure column in place via
    ``(pbase[l], pstep[l])`` and writes ``a1 * u`` into the lane's
    ``au`` row. Returns False when any sample violates the transfer's
    domain or positivity constraints — the caller then replays the
    chunk through the per-lane NumPy front end, which raises the exact
    error the single-session path raises.
    """
    lib = native.library()
    if lib is None:  # pragma: no cover - engine guards this
        raise RuntimeError("batched kernel unavailable; use the engine fallback")
    rc = lib.batch_frontend_run(
        int(n),
        int(pbase.size),
        pbase.ctypes.data_as(ULL_P),
        pstep.ctypes.data_as(LL_P),
        au.ctypes.data_as(DBL_P),
        int(au_stride),
        cheb_coef.ctypes.data_as(DBL_P),
        int(cheb_coef.size),
        float(dom_off),
        float(dom_scl),
        float(p_min),
        float(p_max),
        cap_scale.ctypes.data_as(DBL_P),
        cap_offset.ctypes.data_as(DBL_P),
        injection.ctypes.data_as(DBL_P),
        ref_cap.ctypes.data_as(DBL_P),
        fb_cap.ctypes.data_as(DBL_P),
        excitation.ctypes.data_as(DBL_P),
        a1.ctypes.data_as(DBL_P),
        u_last.ctypes.data_as(DBL_P),
    )
    return rc == 0
