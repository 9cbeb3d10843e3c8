"""One-call fused N x N scan through the batched cascade kernel.

The bank scan (``ScanController.scan_records(batched=True)``) visits
every element as one ordinary acquisition from the chain's pre-scan
analog state — a *bank of matched modulators* — and the decimation
filter resets at each switch. That is exactly a ``repro.batch``
workload — B lanes with identical coefficients, independent state,
advancing in lockstep — so a 64x64 scan collapses from 4096 sequential
chain passes into one fused C kernel call with 4096 lanes.

:func:`run_fused_scan` runs the engine's two kernels over the scan, one
lane per element — a :class:`~repro.batch.kernel.ChainKernel` from the
modulator's coefficients and the chain's decimation filter, and the
compiled front end of :func:`~repro.batch.kernel.frontend_kernel` —
each once per scan through the module's one call form. The chain keeps
the bound pair and the kernel's staging rows across scans and rebinds
only when what they were bound to changes (see :func:`run_fused_scan`),
so a repeated frame binds once. The scan reproduces the bank scan
bit-for-bit for every configuration it supports (deterministic
modulator, stock chip composition without hooks, in-range pressures):
the same per-lane initial state, the same post-switch word suppression,
the same FPGA counter and filter-state bookkeeping afterwards. Anything
outside that envelope returns ``None`` — with no side effects on the
scan state — and the caller runs the bank scan, which raises the exact
error for bad input.
"""

from __future__ import annotations

import numpy as np

from ..dsp.fixed_point import saturate, wrap_twos_complement


def _kernel():
    # Imported lazily: repro.batch pulls in repro.core, which imports
    # this package — a module-level import would be circular.
    from ..batch import kernel as batch_kernel

    return batch_kernel


def fused_scan_supported(chain) -> bool:
    """Whether :func:`run_fused_scan` can reproduce this chain's scan.

    The envelope is the batch kernel's: a modulator the compiled loop may
    run (:meth:`~repro.sdm.modulator.SecondOrderSDM.compiled_loop_ok`:
    library loaded, not pinned to the reference loop) that is fully
    deterministic
    (:meth:`~repro.sdm.modulator.SecondOrderSDM.is_deterministic`: the
    kernel cannot replay the bank scan's visit-by-visit draw order), no
    chip loop-input or bitstream hook (the kernel stages neither) and no
    word hook (the hook must see each element's words in sequential
    order). When the FPGA still
    points at element 0 the scan's first visit does not reset the
    filter, so any carried filter state must sit at a decimation
    boundary (phase 0) for the lanes to run in lockstep.
    """
    chip = chain.chip
    m = chip.modulator
    filt = chain.fpga.filter
    return (
        m.compiled_loop_ok()
        and m.is_deterministic()
        and chip.loop_input_hook is None
        and chip.bitstream_hook is None
        and chain.fpga.word_hook is None
        and not (
            chain.fpga._element == 0
            and (filt.cic._phase != 0 or filt.fir._phase != 0)
        )
    )


def _unbound():
    return None


class _ScanBinding:
    """A chain's bound scan kernels, staging rows and their key.

    ``objects`` are compared with ``is`` and ``values`` with ``==``; a
    scan reuses the binding only when both match. The kernels hold raw
    addresses into this binding's arrays, so a copied or unpickled
    chain starts unbound rather than writing into this chain's buffers.
    """

    __slots__ = ("objects", "values", "front", "kernel", "au", "zero",
                 "row_offsets", "stage")

    def __init__(self, objects, values, front, kernel, au, zero):
        self.objects = objects
        self.values = values
        self.front = front
        self.kernel = kernel
        self.au = au
        self.zero = zero
        n = au.shape[1]
        # Lane k reads row k of a C-contiguous (B, n) segment matrix.
        self.row_offsets = np.arange(front.pbase.size, dtype=np.uint64) * (
            8 * n
        )
        front.pstep[:] = 1
        self.stage = (au.ctypes.data, n, zero.ctypes.data, 0,
                      zero.ctypes.data, 0)

    def matches(self, objects, values) -> bool:
        held = self.objects
        return (
            len(objects) == len(held)
            and all(a is b for a, b in zip(objects, held))
            and values == self.values
        )

    def __reduce__(self):
        return (_unbound, ())


def _binding_key(chip, filt, a1: float, n: int):
    """What the scan's kernels and staging rows are bound to.

    The routes (the mux, its elements, the front end, each membrane's
    fit and pressure range), the modulator's kernel coefficients and
    input gain, the decimation filter's constants and the dwell length.
    Objects are kept by reference; the mutable scalars the bind reads
    from them are kept by value.
    """
    mux, fe = chip.mux, chip.frontend
    cic, fir = filt.cic, filt.fir
    elements = tuple(mux.array.elements)
    sensors = [el.sensor for el in elements]
    objects = (
        (mux, fe, cic, fir, fir.coefficients_int, fir.coeff_format)
        + elements
        + tuple(s._fit for s in sensors)
    )
    values = (
        mux.charge_injection_c,
        fe.reference_cap_f,
        fe.feedback_cap_f,
        fe.excitation_fraction,
        chip.modulator.kernel_coefficients(),
        a1,
        cic.decimation,
        cic.register_bits,
        fir.decimation,
        filt.params.output_bits,
        n,
        tuple((s._p_min, s._p_max) for s in sensors),
    )
    return objects, values


def _bind(chain, n: int) -> _ScanBinding | None:
    """The chain's scan binding for dwell ``n``: the held one while its
    key matches, else a new one, or None when the front end declines
    (nothing is cached then)."""
    chip, filt = chain.chip, chain.fpga.filter
    m = chip.modulator
    a1 = m.stage1.signal_gain * m.stage1.gain_error
    objects, values = _binding_key(chip, filt, a1, n)
    held = chain._fused_scan
    if held is not None and held.matches(objects, values):
        return held
    chain._fused_scan = None
    batch_kernel = _kernel()
    mux = chip.mux
    front = batch_kernel.frontend_kernel(
        [(mux, el, chip.frontend) for el in mux.array.elements], a1
    )
    if front is None:
        return None
    B = len(mux.array.elements)
    kernel = batch_kernel.ChainKernel([m.kernel_coefficients()] * B, filt)
    au = np.zeros((batch_kernel.pad_lanes(B), n))
    chain._fused_scan = _ScanBinding(
        objects, values, front, kernel, au, np.zeros(n)
    )
    return chain._fused_scan


def run_fused_scan(
    chain, dwell_pressures_pa
) -> tuple[np.ndarray, np.ndarray] | None:
    """Run a whole array scan as one fused batch-kernel call.

    The chain keeps the scan's :class:`~repro.batch.kernel.FrontendKernel`,
    :class:`~repro.batch.kernel.ChainKernel` and ``(pad_lanes(B), n)``
    staging rows across scans, and binds new ones only when their key
    changes: the routes (mux, elements, front end, membrane fit and
    range), the modulator's kernel coefficients and input gain, the
    decimation filter's constants or the dwell length ``n``. A reused
    chain kernel is reset to a new kernel's state before every scan. A
    front end that declines to bind is not kept, so the next scan tries
    again; a copy or pickle of the chain carries no binding.

    Parameters
    ----------
    chain:
        The :class:`~repro.core.chain.ReadoutChain` to scan through.
    dwell_pressures_pa:
        (n_elements, n_dwell) membrane pressure each element
        sees during its own visit.

    Returns
    -------
    ``(records, sizes)``: ``records`` is the (n_words, n_elements)
    matrix of record values (decimated words / 2048, post-suppression)
    over the common word count, in scan order, and ``sizes`` the word
    count each element recorded before that alignment — bit-identical
    to the bank scan. ``None``, with no scan state touched, when the
    configuration is outside the kernel envelope or the compiled front
    end declines the input.
    Chain side effects match the bank scan exactly: the mux and FPGA
    finish on the last element, the decimation filter carries the last
    element's state, telemetry counters advance identically, and the
    modulator's analog state is untouched (bank-of-matched-modulators
    semantics).
    """
    if not fused_scan_supported(chain):
        return None
    batch_kernel = _kernel()
    segments = np.ascontiguousarray(dwell_pressures_pa, dtype=float)
    chip = chain.chip
    fpga = chain.fpga
    filt = fpga.filter
    m = chip.modulator
    B = chip.array.n_elements
    if segments.ndim != 2 or segments.shape[0] != B or segments.shape[1] < 1:
        return None
    n = segments.shape[1]
    bound = _bind(chain, n)
    if bound is None:
        return None
    front, k = bound.front, bound.kernel
    start_element = fpga._element
    # Lane-0 suppression budget: the first visit re-selects the current
    # element when the FPGA already points at 0 (no reset, any pending
    # suppression window keeps draining); every other visit is a switch.
    flush = fpga.flush_words_on_switch
    budgets = np.full(B, flush, dtype=np.int64)
    if start_element == 0:
        budgets[0] = fpga._suppress

    # Stage the front end: the compiled kernel evaluates the membrane
    # Chebyshev transfer, mismatch, charge injection and the charge
    # front end per lane directly into the a1*u rows (the dominant cost
    # at 64x64). Lane k reads row k of the segments in place. The mux
    # then finishes on the last element with its injection state
    # consumed — the sequential-scan semantics.
    mux = chip.mux
    np.add(bound.row_offsets, segments.ctypes.data, out=front.pbase)
    front.injection[:] = front.switch_injection
    if mux._selected == 0 and not mux._just_switched:
        front.injection[0] = 0.0
    if not batch_kernel.run_frontend_chunk(front, n, bound.stage[0], n):
        return None
    mux._selected = B - 1
    mux._just_switched = False

    # Every lane starts from the modulator's pre-scan analog state and a
    # reset filter, except that a first visit re-selecting element 0
    # continues from the carried filter state (phase 0, checked above).
    k.reset()
    k.x1[:B] = m.stage1.state
    k.x2[:B] = m.stage2.state
    k.comp_previous[:B] = m.comparator.previous_decision
    if start_element == 0:
        k.integ[:, 0] = filt.cic._integrators
        k.comb[:, 0] = filt.cic._combs
        k.hist[0] = filt.fir._history
    n_words = batch_kernel.run_batch_chunk(k, n, *bound.stage)

    # Per-element post-switch suppression: lane e's record starts at
    # its drop count. One gather takes every lane's first
    # ``min(sizes)`` kept words as a column, then one pass applies the
    # framing path's i16 clamp and scales to modulator FS like
    # ChainRecording.
    drops = np.minimum(budgets, n_words)
    sizes = n_words - drops
    kept = np.arange(int(sizes.min()))[:, None] + drops
    codes = k.words[np.arange(B), kept]
    records = saturate(codes, 16).astype(float)
    records /= 2048.0

    # FPGA bookkeeping, exactly as the bank scan's visits leave it.
    resets = (B - 1) + (1 if start_element != 0 else 0)
    fpga._element = B - 1
    fpga._suppress = int(max(0, budgets[B - 1] - n_words))
    fpga.samples_in += B * n
    fpga.words_filtered += B * n_words
    fpga.words_suppressed += int(drops.sum())
    fpga.filter_resets += resets
    # The filter carries the last element's cascade state forward.
    filt.cic._integrators = wrap_twos_complement(
        k.integ[:, B - 1], k.register_bits
    )
    filt.cic._combs[:] = k.comb[:, B - 1]
    filt.cic._phase = k.cic_phase
    filt.fir._history = k.ordered_history()[B - 1].copy()
    filt.fir._phase = k.fir_phase
    return records, sizes
