"""Fused batched chain kernel: chip front end -> sigma-delta -> CIC ->
FIR -> 12-bit codes.

One call advances ``B`` independent readout chains by ``n`` modulator
samples and returns every decimated 12-bit word the chunk completed, per
lane. The whole digital cascade of :mod:`repro.dsp` runs *inside* the
sample loop, so the bitstream never materializes and the per-stage
Python seams of the chip -> bitstream -> FPGA path disappear. A second
kernel (``batch_frontend_run``) evaluates the capacitive front end — the
membrane's Chebyshev transfer, per-element mismatch, the mux
charge-injection glitch and the charge front-end gain — in the same
compiled pass, reading the caller's pressure fields in place (no
``(B, n)`` staging copies).

Both kernels run in the process's one native library
(:mod:`repro.native`, which holds their C source) and take plain
addresses. :class:`ChainKernel` and :class:`FrontendKernel` bind them
to arrays held in the kernel's layout — coefficients, cascade state,
output buffers — whose addresses are computed once, so a call passes a
few integers; each :class:`~repro.batch.engine.BatchChainEngine` owns
one of each. :func:`run_batch_chunk` and :func:`run_frontend_chunk`
are their one-shot forms for callers without a long-lived batch (the
fused array scan). :func:`run_bits` runs one lane with a bitstream
output instead of words: it is the compiled loop of
``SecondOrderSDM(backend="fast")``.

Bit-identity discipline (the modulator's reference loop is the spec,
and the contract extends across the cascade):

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
input streams) stays L1-resident; the engine pads a batch of more than
one lane to a block multiple with inert lanes, while a lone lane runs
a one-lane instantiation of the same C body (:func:`pad_lanes`).
Reordering lanes into blocks never changes any single lane's operation
sequence, so identity is unaffected.

Both kernels are built for three x86-64 levels (baseline SSE2,
x86-64-v3, x86-64-v4) and the loader runs the one the CPU supports
(:func:`repro.native.isa` names it). Only v3/v4 hold a block in vector
registers: baseline SSE2 has no blend, so its lane loop stays scalar.
Vectorizing across lanes keeps each lane's IEEE operation order, and
the library's flags forbid FMA contraction and reassociation, so every
variant returns the same bits. Measured on a 2-vCPU AVX-512 host
(best of 40 calls), an imaging-shaped chunk (B=64, n=4352) takes 3.31 ms
at baseline, 1.26 ms at v3 and 0.91 ms at v4; a fleet-shaped one
(B=16, n=5120, with noise rows) 1.12, 0.52 and 0.40 ms. ``crc16_rows``
(slower under AVX-512) stays single-variant.

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
from ..dsp.fixed_point import wrap_twos_complement
from ..native import LANE_BLOCK


def batch_kernel_available() -> bool:
    """True when the native library (and so the fused kernels) is loaded."""
    return native.available()


def pad_lanes(B: int) -> int:
    """Batch size padded up to the kernel's lane-block multiple.

    A lone lane stays unpadded: the kernel has a one-lane instantiation
    of the same body, so a solo chain never pays for a block of
    :data:`~repro.native.LANE_BLOCK`.
    """
    if B == 1:
        return 1
    return -(-B // LANE_BLOCK) * LANE_BLOCK


def _library():
    lib = native.library()
    if lib is None:  # pragma: no cover - callers check availability
        raise RuntimeError("batched kernel unavailable; use the engine fallback")
    return lib


@dataclass
class BatchState:
    """Mutable per-batch cascade state the kernel reads and writes.

    The functional entry point :func:`run_batch_chunk` takes and updates
    one of these; arrays are sized to the padded batch
    (``pad_lanes(B)``), rows past the real batch are inert.
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


class ChainKernel:
    """A bound ``batch_chain_run``: constants, state and outputs in place.

    Holds the per-lane coefficient vectors, the cascade state and the
    output buffers in the kernel's own layout, and computes their
    addresses once, so a call passes ``n``, the staging rows and the two
    decimation phases and nothing is re-marshalled. Each
    :class:`~repro.batch.engine.BatchChainEngine` owns one (never shared:
    concurrent engines on other threads call their own).

    The coefficient vectors are bound by reference and must be
    contiguous ``float64`` of the padded batch size. State lives in
    :attr:`x1`, :attr:`x2`, :attr:`comp_previous`, :attr:`integ` (raw
    mod-2^64 integrators, int64 storage), :attr:`comb` and :attr:`hist`
    (a ring whose oldest column is :attr:`head` after a call); the
    caller loads it before a call and reads it back after.
    """

    def __init__(
        self,
        dac_gain: np.ndarray,
        p1: np.ndarray,
        b1: np.ndarray,
        p2: np.ndarray,
        a2: np.ndarray,
        b2: np.ndarray,
        swing: np.ndarray,
        comp_offset: np.ndarray,
        comp_hysteresis: np.ndarray,
        cic_decimation: int,
        register_bits: int,
        fir_flipped: np.ndarray,
        fir_decimation: int,
        qscale: float,
        output_bits: int,
    ):
        coeffs = (dac_gain, p1, b1, p2, a2, b2, swing, comp_offset,
                  comp_hysteresis)
        Bp = int(dac_gain.size)
        for a in coeffs:
            if a.dtype != np.float64 or a.size != Bp or not a.flags.c_contiguous:
                raise ValueError("coefficients must be contiguous float64 (Bp,)")
        self.lanes = Bp
        self.register_bits = int(register_bits)
        self._R = int(cic_decimation)
        self._flip = np.ascontiguousarray(fir_flipped, dtype=np.int64)
        taps = int(self._flip.size)
        self.x1 = np.zeros(Bp)
        self.x2 = np.zeros(Bp)
        self.comp_previous = np.ones(Bp, dtype=np.int64)
        self.clipped = np.zeros(Bp, dtype=np.int64)
        self.integ = np.zeros((3, Bp), dtype=np.int64)
        self.comb = np.zeros((3, Bp), dtype=np.int64)
        self.hist = np.zeros((Bp, taps - 1), dtype=np.int64)
        self._state_out = np.zeros(3, dtype=np.int64)
        self._coeffs = coeffs
        self.words = np.empty((Bp, 0), dtype=np.int64)
        self.cic_phase = 0
        self.fir_phase = 0
        self.head = 0
        self._mid = tuple(a.ctypes.data for a in coeffs) + tuple(
            a.ctypes.data
            for a in (self.x1, self.x2, self.comp_previous, self.clipped,
                      self.integ, self.comb)
        )
        self._fir = (self._flip.ctypes.data, taps, int(fir_decimation))
        qmax = (1 << (output_bits - 1)) - 1
        self._quant = (self.hist.ctypes.data, float(qscale), qmax, -qmax - 1)
        self._out = (0, 0, self._state_out.ctypes.data)

    def run(
        self,
        n: int,
        au: int,
        au_stride: int,
        noise: int,
        noise_stride: int,
        dac_noise: int,
        dacn_stride: int,
    ) -> int:
        """Advance every lane by ``n`` samples; return the word count.

        ``au``/``noise``/``dac_noise`` are the addresses of lane-major
        rows read as ``base[l * stride + i]`` (stride 0 shares one row).
        The words land in ``words[:, :count]``; :attr:`clipped` holds
        this call's clipped-cycle counts and the phases and ring head
        advance.
        """
        R = self._R
        first = (R - self.cic_phase) % R
        cap = max(1, 0 if n <= first else (n - first + R - 1) // R)
        if cap > self.words.shape[1]:
            self.words = np.empty((self.lanes, cap), dtype=np.int64)
            self._out = (self.words.ctypes.data, cap, self._out[2])
        self.clipped.fill(0)
        nw = _library().batch_chain_run(
            n, self.lanes, au, au_stride, noise, noise_stride, dac_noise,
            dacn_stride, *self._mid, R, self.cic_phase, self.register_bits,
            *self._fir, self.fir_phase, *self._quant, *self._out, None,
        )
        if nw < 0:  # pragma: no cover - capacity/padding invariants are exact
            raise RuntimeError("batched kernel invariant violation")
        self.cic_phase, self.fir_phase, self.head = (
            int(v) for v in self._state_out
        )
        return int(nw)

    def wrapped_integrators(self) -> np.ndarray:
        """The integrators wrapped to the Hogenauer register width."""
        return wrap_twos_complement(self.integ, self.register_bits)

    def ordered_history(self) -> np.ndarray:
        """The FIR history rings unrolled oldest first."""
        h = self.head
        if h == 0:
            return self.hist
        return np.concatenate([self.hist[:, h:], self.hist[:, :h]], axis=1)


class FrontendKernel:
    """A bound ``batch_frontend_run`` over ``B`` lanes.

    Every per-lane vector is bound by reference (contiguous, of the
    kernel's dtype) and its address computed once. Per chunk the caller
    writes :attr:`pbase` (uint64 address of each lane's first pressure),
    :attr:`pstep` (its sample stride in doubles) and :attr:`injection`
    in place, then calls :meth:`run`; :attr:`u_last` receives each
    lane's final pre-gain loop input.
    """

    def __init__(
        self,
        pbase: np.ndarray,
        pstep: np.ndarray,
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
    ):
        B = int(pbase.size)
        lanes = (cap_scale, cap_offset, injection, ref_cap, fb_cap,
                 excitation, a1, u_last)
        for a, dtype in ((pbase, np.uint64), (pstep, np.int64)) + tuple(
                (a, np.float64) for a in lanes):
            if a.dtype != dtype or a.size != B or not a.flags.c_contiguous:
                raise ValueError("per-lane vectors must be contiguous (B,)")
        if cheb_coef.dtype != np.float64 or not cheb_coef.flags.c_contiguous:
            raise ValueError("Chebyshev coefficients must be contiguous")
        self.pbase, self.pstep = pbase, pstep
        self.injection, self.u_last = injection, u_last
        self._keep = (cheb_coef,) + lanes
        self._head = (B, pbase.ctypes.data, pstep.ctypes.data)
        self._tail = (
            cheb_coef.ctypes.data, int(cheb_coef.size), float(dom_off),
            float(dom_scl), float(p_min), float(p_max),
        ) + tuple(a.ctypes.data for a in lanes)

    def run(self, n: int, au: int, au_stride: int) -> bool:
        """Stage ``n`` samples per lane into the rows at address ``au``.

        Returns False when any sample violates the transfer's domain or
        positivity constraints (nothing else is touched).
        """
        rc = _library().batch_frontend_run(
            n, *self._head, au, au_stride, *self._tail
        )
        return rc == 0


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

    The one-shot form of :class:`ChainKernel` for callers without a
    long-lived batch (the fused array scan). ``au``/``noise``/
    ``dac_noise`` are contiguous lane-major float64 buffers addressed as
    ``base[l * stride + i]`` — a stride of 0 shares one zero row across
    every lane. ``state`` is updated in place. The caller is responsible
    for checking :func:`batch_kernel_available` first — there is no
    Python fallback at this layer (the engine falls back through the
    existing single-session stages instead).
    """
    k = ChainKernel(
        *(np.ascontiguousarray(a, dtype=np.float64)
          for a in (dac_gain, p1, b1, p2, a2, b2, swing, comp_offset,
                    comp_hysteresis)),
        cic_decimation, register_bits, fir_flipped, fir_decimation, qscale,
        output_bits,
    )
    k.x1[:] = state.x1
    k.x2[:] = state.x2
    k.comp_previous[:] = state.comp_previous
    k.integ[:] = state.cic_integrators
    k.comb[:] = state.cic_combs
    k.hist[:] = state.fir_history
    k.cic_phase, k.fir_phase = state.cic_phase, state.fir_phase

    def rows(a, stride):
        # The kernel reads base[l * stride + i] for every padded lane.
        if (
            a.dtype != np.float64
            or not a.flags.c_contiguous
            or a.size < (k.lanes - 1) * stride + n
        ):
            raise ValueError("staging rows must be contiguous float64 "
                             "covering every lane")
        return a.ctypes.data, int(stride)

    nw = k.run(
        n, *rows(au, au_stride), *rows(noise, noise_stride),
        *rows(dac_noise, dacn_stride),
    )
    state.x1[:] = k.x1
    state.x2[:] = k.x2
    state.comp_previous[:] = k.comp_previous
    state.cic_integrators = k.wrapped_integrators()
    state.cic_combs = k.comb
    state.cic_phase = k.cic_phase
    state.fir_history = k.ordered_history()
    state.fir_phase = k.fir_phase
    return BatchChunkResult(codes=k.words[:, :nw], clipped=k.clipped)


def run_bits(au, noise, dac_noise, coeffs, x1, x2, comp_previous):
    """Run one modulator lane through ``batch_chain_run`` for its bitstream.

    With its ``bits`` row set, the kernel runs the one-lane body with
    the CIC/FIR section compiled out and writes the +/-1 decisions. ``au``
    is ``a1 * u``, ``noise`` the drawn per-sample noise and ``dac_noise``
    the DAC reference noise, or None for none; ``coeffs`` is the lane's
    ``(dac_gain, p1, b1, p2, a2, b2, swing, comp_offset,
    comp_hysteresis)``. Returns ``(bits, clipped, x1, x2,
    comp_previous)``. The caller checks :func:`batch_kernel_available`.
    """
    n = int(au.size)
    au, noise, dacn = (
        None if a is None else np.ascontiguousarray(a, dtype=np.float64)
        for a in (au, noise, dac_noise)
    )
    # The per-lane vectors of a one-lane batch are scalars: coefficients
    # then state in one float64 block, and in one int64 block the
    # comparator memory, the clip count and the inert CIC/FIR slots
    # (integrators, combs, one FIR tap, phases out) the bits body skips.
    f = np.array([*coeffs, x1, x2], dtype=np.float64)
    w = np.zeros(12, dtype=np.int64)
    w[0] = comp_previous
    bits = np.empty(n, dtype=np.int8)
    fa, wa = f.ctypes.data, w.ctypes.data
    _library().batch_chain_run(
        n, 1, au.ctypes.data, 0, noise.ctypes.data, 0,
        None if dacn is None else dacn.ctypes.data, 0,
        *(fa + 8 * k for k in range(11)),
        wa, wa + 8, wa + 16, wa + 40,  # prev, clipped, integ, comb
        1, 0, 1, wa + 64, 1, 1, 0,  # CIC R/phase/bits, FIR flip/taps/M/phase
        None, 0.0, 0, 0, None, 0, wa + 72, bits.ctypes.data,
    )
    return bits, int(w[1]), float(f[9]), float(f[10]), int(w[0])


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

    The one-shot form of :class:`FrontendKernel`. Reads each lane's
    selected-element pressure column in place via ``(pbase[l],
    pstep[l])`` and writes ``a1 * u`` into the lane's ``au`` row.
    Returns False when any sample violates the transfer's domain or
    positivity constraints — the caller then replays the chunk through
    the per-lane NumPy front end, which raises the exact error the
    single-session path raises.
    """
    k = FrontendKernel(
        pbase, pstep, cheb_coef, dom_off, dom_scl, p_min, p_max, cap_scale,
        cap_offset, injection, ref_cap, fb_cap, excitation, a1, u_last,
    )
    if (
        au.dtype != np.float64
        or not au.flags.c_contiguous
        or au.size < (pbase.size - 1) * au_stride + n
    ):
        raise ValueError("au must be contiguous float64 covering every lane")
    return k.run(int(n), au.ctypes.data, int(au_stride))
