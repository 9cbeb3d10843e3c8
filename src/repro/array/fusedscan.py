"""One-call fused N x N scan through the batched cascade kernel.

The bank scan (``ScanController.scan_records(batched=True)``) visits
every element as one ordinary acquisition from the chain's pre-scan
analog state — a *bank of matched modulators* — and the decimation
filter resets at each switch. That is exactly a ``repro.batch``
workload — B lanes with identical coefficients, independent state,
advancing in lockstep — so a 64x64 scan collapses from 4096 sequential
chain passes into one fused C kernel call with 4096 lanes.

:func:`run_fused_scan` binds the engine's two kernels to the scan, one
lane per element — a :class:`~repro.batch.kernel.ChainKernel` from the
modulator's coefficients and the chain's decimation filter, and the
compiled front end of :func:`~repro.batch.kernel.frontend_kernel` —
and runs each once through the module's one call form. It reproduces
the bank scan bit-for-bit for every configuration it supports
(deterministic modulator, stock decimation architecture, stock chip
composition without hooks, in-range pressures): the same per-lane
initial state, the same post-switch word suppression, the same FPGA
counter and filter-state bookkeeping afterwards. Anything outside that
envelope returns ``None`` — with no side effects — and the caller runs
the bank scan, which raises the exact error for bad input.
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
    library loaded, not pinned to the reference loop, no in-loop
    metastability draws) that is fully deterministic
    (:meth:`~repro.sdm.modulator.SecondOrderSDM.is_deterministic`: the
    kernel cannot replay the bank scan's visit-by-visit draw order), the
    stock third-order/unit-delay CIC, no chip loop-input or bitstream
    hook (the kernel stages neither) and no word hook (the hook must see
    each element's words in sequential order). When the FPGA still
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
        and _kernel().ChainKernel.supports(filt)
        and chip.loop_input_hook is None
        and chip.bitstream_hook is None
        and chain.fpga.word_hook is None
        and not (
            chain.fpga._element == 0
            and (filt.cic._phase != 0 or filt.fir._phase != 0)
        )
    )


def run_fused_scan(chain, dwell_pressures_pa) -> list[np.ndarray] | None:
    """Run a whole array scan as one fused batch-kernel call.

    Parameters
    ----------
    chain:
        The :class:`~repro.core.chain.ReadoutChain` to scan through.
    dwell_pressures_pa:
        (n_elements, dwell_mod_samples) membrane pressure each element
        sees during its own visit.

    Returns
    -------
    Per-element record values (decimated words / 2048, post-suppression)
    in scan order — bit-identical to the bank scan — or ``None``, with
    nothing touched, when the configuration is outside the kernel
    envelope or the compiled front end declines the input.
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
    n_elements = chip.array.n_elements
    if (
        segments.ndim != 2
        or segments.shape[0] != n_elements
        or segments.shape[1] < 1
    ):
        return None
    n = segments.shape[1]
    start_element = fpga._element
    # Lane-0 suppression budget: the first visit re-selects the current
    # element when the FPGA already points at 0 (no reset, any pending
    # suppression window keeps draining); every other visit is a switch.
    flush = fpga.flush_words_on_switch
    budgets = np.full(n_elements, flush, dtype=np.int64)
    if start_element == 0:
        budgets[0] = fpga._suppress

    # Stage the front end: the compiled kernel evaluates the membrane
    # Chebyshev transfer, mismatch, charge injection and the charge
    # front end per lane directly into the a1*u buffer (the dominant
    # cost at 64x64). Lane k reads row k of the segments in place. The
    # mux then finishes on the last element with its injection state
    # consumed — the sequential-scan semantics.
    B = n_elements
    mux = chip.mux
    au = np.zeros((batch_kernel.pad_lanes(B), n))
    front = batch_kernel.frontend_kernel(
        [(mux, el, chip.frontend) for el in mux.array.elements],
        m.stage1.signal_gain * m.stage1.gain_error,
    )
    if front is None:
        return None
    front.pbase[:] = segments.ctypes.data + segments.strides[0] * np.arange(
        B, dtype=np.uint64
    )
    front.pstep[:] = 1
    front.injection[:] = front.switch_injection
    if mux._selected == 0 and not mux._just_switched:
        front.injection[0] = 0.0
    if not batch_kernel.run_frontend_chunk(front, n, au.ctypes.data, n):
        return None
    mux._selected = B - 1
    mux._just_switched = False

    # Every lane starts from the modulator's pre-scan analog state and a
    # reset filter, except that a first visit re-selecting element 0
    # continues from the carried filter state (phase 0, checked above).
    k = batch_kernel.ChainKernel([m.kernel_coefficients()] * B, filt)
    k.x1[:B] = m.stage1.state
    k.x2[:B] = m.stage2.state
    k.comp_previous[:B] = m.comparator.previous_decision
    if start_element == 0:
        k.integ[:, 0] = filt.cic._integrators
        k.comb[:, 0] = filt.cic._combs[:, 0]
        k.hist[0] = filt.fir._history
    zero = np.zeros(n)
    n_words = batch_kernel.run_batch_chunk(
        k, n, au.ctypes.data, n, zero.ctypes.data, 0, zero.ctypes.data, 0
    )
    codes = k.words[:B, :n_words]

    # Per-element post-switch suppression, then the same i16 clamp the
    # framing path applies; values in modulator FS like ChainRecording.
    records: list[np.ndarray] = []
    drops = np.minimum(budgets, n_words)
    for e in range(B):
        kept = codes[e, int(drops[e]) :]
        records.append(saturate(kept, 16).astype(float) / 2048.0)

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
    filt.cic._combs[:, 0] = k.comb[:, B - 1]
    filt.cic._phase = k.cic_phase
    filt.fir._history = k.ordered_history()[B - 1].copy()
    filt.fir._phase = k.fir_phase
    return records
