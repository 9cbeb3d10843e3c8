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
addresses. Each has one binding: :class:`ChainKernel` (built from the
lanes' coefficient rows and their shared decimation filter) and
:class:`FrontendKernel` (built by :func:`frontend_kernel` from the
routed elements and their front ends) hold arrays in the kernel's
layout — coefficients, cascade state, output buffers — whose addresses
are computed once, and each has one call form, :func:`run_batch_chunk`
and :func:`run_frontend_chunk`, which passes a few integers. The
:class:`~repro.batch.engine.BatchChainEngine` keeps one of each across
chunks; the fused array scan keeps a pair on its chain across scans.
:func:`run_bits`
runs one lane with a bitstream output instead of words: it is the
compiled loop of ``SecondOrderSDM(backend="fast")``.

Bit-identity discipline (the modulator's reference loop is the spec,
and the contract extends across the cascade):

* The modulator recurrence performs the identical IEEE-754 double
  operations in the identical order as the reference loop, compiled with
  FP contraction disabled. The comparator is evaluated branchlessly
  through the offset/hysteresis form, which reduces *bit-exactly* to
  the ideal ``x2 >= 0`` comparator when offset and hysteresis are zero
  (including the ``-0.0`` input case).
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
input streams) stays L1-resident; :class:`ChainKernel` pads a batch of
more than one lane to a block multiple with inert lanes, while a lone
lane runs a one-lane instantiation of the same C body (:func:`pad_lanes`).
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

import numpy as np
from numpy.polynomial import polyutils as _pu

from .. import native
from ..array.element import ArrayElement
from ..array.mux import AnalogMultiplexer
from ..dsp.fixed_point import wrap_twos_complement
from ..mems.membrane import MembraneSensor
from ..native import LANE_BLOCK
from ..sdm.frontend import CapacitiveFrontEnd


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


class ChainKernel:
    """A bound ``batch_chain_run``: constants, state and outputs in place.

    Built from one coefficient row per lane
    (:meth:`~repro.sdm.modulator.SecondOrderSDM.kernel_coefficients`)
    and the :class:`~repro.dsp.decimator.DecimationFilter` the lanes
    share. The rows are padded to :func:`pad_lanes` with inert lanes
    (zero gains, unit swing); the CIC decimation and register width, the
    flipped FIR and the quantizer scale come from the filter, whose CIC
    is always third order like the kernel's cascade. Every
    array the kernel reads or writes is held here in the kernel's layout
    and its address computed once, so :func:`run_batch_chunk` passes
    ``n``, the staging rows and the two decimation phases and
    re-marshals nothing. Never shared: each engine, and each chain's
    fused scan, binds its own.

    State lives in :attr:`x1`, :attr:`x2`, :attr:`comp_previous`,
    :attr:`integ` (raw mod-2^64 integrators, int64 storage), :attr:`comb`
    and :attr:`hist` (a ring read oldest column first, whose oldest
    column is :attr:`head` after a call), plus :attr:`cic_phase` and
    :attr:`fir_phase`; a new kernel holds the reset state, and
    :meth:`reset` restores it. The caller loads it before a call and
    reads it back after.
    """

    def __init__(self, coefficient_rows, decimation_filter):
        rows = np.asarray(coefficient_rows, dtype=np.float64).reshape(-1, 9)
        B = rows.shape[0]
        Bp = pad_lanes(B)
        coeffs = np.zeros((9, Bp))
        coeffs[6] = 1.0
        coeffs[:, :B] = rows.T
        cic, fir = decimation_filter.cic, decimation_filter.fir
        output_bits = decimation_filter.params.output_bits
        self.lanes = Bp
        self.register_bits = int(cic.register_bits)
        self._R = int(cic.decimation)
        self._flip = np.ascontiguousarray(
            fir.coefficients_int[::-1], dtype=np.int64
        )
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
        self._mid = tuple(row.ctypes.data for row in coeffs) + tuple(
            a.ctypes.data
            for a in (self.x1, self.x2, self.comp_previous, self.clipped,
                      self.integ, self.comb)
        )
        self._fir = (self._flip.ctypes.data, taps, int(fir.decimation))
        qscale = (1 << (output_bits - 1)) / (
            float(cic.dc_gain) / fir.coeff_format.scale
        )
        qmax = (1 << (output_bits - 1)) - 1
        self._quant = (self.hist.ctypes.data, qscale, qmax, -qmax - 1)
        self._out = (0, 0, self._state_out.ctypes.data)

    def reset(self) -> None:
        """Return every lane to a new kernel's reset state, in place.

        Zeroes the integrator, comb and FIR-ring state, sets each
        comparator's memory to +1, and rewinds the ring head and both
        decimation phases. Arrays stay where they are, so the bound
        addresses stay valid.
        """
        for a in (self.x1, self.x2, self.clipped, self.integ, self.comb,
                  self.hist):
            a.fill(0)
        self.comp_previous.fill(1)
        self.cic_phase = self.fir_phase = self.head = 0

    def wrapped_integrators(self) -> np.ndarray:
        """The integrators wrapped to the Hogenauer register width."""
        return wrap_twos_complement(self.integ, self.register_bits)

    def ordered_history(self) -> np.ndarray:
        """The FIR history rings unrolled oldest first."""
        h = self.head
        if h == 0:
            return self.hist
        return np.concatenate([self.hist[:, h:], self.hist[:, :h]], axis=1)


def run_batch_chunk(
    kernel: ChainKernel,
    n: int,
    au: int,
    au_stride: int,
    noise: int,
    noise_stride: int,
    dac_noise: int,
    dacn_stride: int,
) -> int:
    """Advance every lane of ``kernel`` by ``n`` samples; return the word
    count.

    The one call form of a bound :class:`ChainKernel`. ``au``/``noise``/
    ``dac_noise`` are the addresses of contiguous lane-major float64
    rows read as ``base[l * stride + i]`` for every padded lane (stride
    0 shares one row). The words land in ``kernel.words[:, :count]``;
    ``kernel.clipped`` holds this call's clipped-cycle counts and the
    phases and ring head advance. The caller checks
    :func:`batch_kernel_available` first: there is no Python fallback at
    this layer (the engine falls back through the single-session stages
    instead).
    """
    k = kernel
    R = k._R
    first = (R - k.cic_phase) % R
    cap = max(1, 0 if n <= first else (n - first + R - 1) // R)
    if cap > k.words.shape[1]:
        k.words = np.empty((k.lanes, cap), dtype=np.int64)
        k._out = (k.words.ctypes.data, cap, k._out[2])
    k.clipped.fill(0)
    nw = _library().batch_chain_run(
        n, k.lanes, au, au_stride, noise, noise_stride, dac_noise,
        dacn_stride, *k._mid, R, k.cic_phase, k.register_bits, *k._fir,
        k.fir_phase, *k._quant, *k._out, None,
    )
    if nw < 0:  # pragma: no cover - capacity/padding invariants are exact
        raise RuntimeError("batched kernel invariant violation")
    k.cic_phase, k.fir_phase, k.head = (int(v) for v in k._state_out)
    return int(nw)


class FrontendKernel:
    """A bound ``batch_frontend_run`` over ``B`` lanes.

    Holds the membrane's Chebyshev ``fit`` and pressure range and, per
    lane (a scalar is shared), the element mismatch (``cap_scale``,
    ``cap_offset``), the charge a mux switch injects
    (:attr:`switch_injection`), the charge front end (``ref_cap``,
    ``fb_cap``, ``excitation``) and the folded input gain ``a1``, each
    address computed once. Per chunk the caller writes :attr:`pbase`
    (uint64 address of each lane's first pressure), :attr:`pstep` (its
    sample stride in doubles) and :attr:`injection` (the charge the
    lane's first sample takes) in place, then calls
    :func:`run_frontend_chunk`; :attr:`u_last` receives each lane's
    final pre-gain loop input. :func:`frontend_kernel` binds one to a
    chip composition.
    """

    def __init__(
        self, fit, p_min, p_max, cap_scale, cap_offset, switch_injection,
        ref_cap, fb_cap, excitation, a1,
    ):
        B = np.size(cap_scale)

        def lane(a):
            return np.array(np.broadcast_to(a, B), dtype=np.float64)

        self.pbase = np.zeros(B, dtype=np.uint64)
        self.pstep = np.zeros(B, dtype=np.int64)
        self.switch_injection = lane(switch_injection)
        self.injection = np.zeros(B)
        self.u_last = np.empty(B)
        coef = np.array(fit.coef, dtype=np.float64)
        lanes = (lane(cap_scale), lane(cap_offset), self.injection,
                 lane(ref_cap), lane(fb_cap), lane(excitation), lane(a1),
                 self.u_last)
        dom_off, dom_scl = _pu.mapparms(fit.domain, fit.window)
        self._keep = (coef,) + lanes
        self._head = (B, self.pbase.ctypes.data, self.pstep.ctypes.data)
        self._tail = (
            coef.ctypes.data, int(coef.size), float(dom_off), float(dom_scl),
            float(p_min), float(p_max),
        ) + tuple(a.ctypes.data for a in lanes)


def frontend_kernel(routes, a1) -> FrontendKernel | None:
    """Bind the compiled front end to routed elements, or return None.

    ``routes`` holds one ``(mux, element, frontend)`` per lane: the
    multiplexer, the element it routes and the front end it feeds.
    ``a1`` is the input gain folded into each lane's staged rows. The
    compiled front end covers the stock chip composition: a plain
    :class:`~repro.array.mux.AnalogMultiplexer`,
    :class:`~repro.array.element.ArrayElement` elements on
    :class:`~repro.mems.membrane.MembraneSensor` membranes that share
    one Chebyshev fit and pressure range (the shared precompute cache
    makes one fit object the norm), and the stock
    :class:`~repro.sdm.frontend.CapacitiveFrontEnd`. Anything exotic
    (subclasses, per-lane membrane fits) returns None and runs the NumPy
    front end, which stays bit-identical, just slower.
    """
    fit = None
    per_lane = []
    for mux, el, fe in routes:
        if (
            type(mux) is not AnalogMultiplexer
            or type(el) is not ArrayElement
            or type(fe) is not CapacitiveFrontEnd
            or type(el.sensor) is not MembraneSensor
        ):
            return None
        s = el.sensor
        if fit is None:
            fit, p_range = s._fit, (s._p_min, s._p_max)
        elif s._fit is not fit or (s._p_min, s._p_max) != p_range:
            return None
        per_lane.append((
            el.capacitance_scale, el.offset_cap_f,
            mux.charge_injection_c / 2.5, fe.reference_cap_f,
            fe.feedback_cap_f, fe.excitation_fraction,
        ))
    return FrontendKernel(fit, *p_range, *np.array(per_lane).T, a1)


def run_frontend_chunk(
    kernel: FrontendKernel, n: int, au: int, au_stride: int
) -> bool:
    """Stage ``n`` samples per lane of ``kernel`` into the rows at ``au``.

    The one call form of a bound :class:`FrontendKernel`. Reads each
    lane's pressures in place via ``(pbase[l], pstep[l])`` and writes
    ``a1 * u`` into the float64 row at address ``au + 8 * l *
    au_stride``. Returns False when any sample violates the transfer's
    domain or positivity constraints, with nothing else touched: the
    caller then replays the chunk through the NumPy front end, which
    raises the exact error the single-session path raises.
    """
    rc = _library().batch_frontend_run(
        n, *kernel._head, au, au_stride, *kernel._tail
    )
    return rc == 0


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
