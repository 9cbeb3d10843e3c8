"""One-call fused N x N scan through the batched cascade kernel.

The bank scan (``ScanController.scan_records(batched=True)``) visits
every element as one ordinary acquisition from the chain's pre-scan
analog state — a *bank of matched modulators* — and the decimation
filter resets at each switch. That is exactly a ``repro.batch``
workload — B lanes with identical coefficients, independent state,
advancing in lockstep — so a 64x64 scan collapses from 4096 sequential
chain passes into one fused C kernel call with 4096 lanes.

:func:`run_fused_scan` reproduces the bank scan bit-for-bit for every
configuration it supports (deterministic modulator, stock decimation
architecture, stock chip composition and in-range pressures): the same
per-lane initial state, the same post-switch word suppression, the same
FPGA counter and filter-state bookkeeping afterwards. Anything outside
that envelope returns ``None`` — with no side effects — and the caller
runs the bank scan, which raises the exact error for bad input.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polyutils as _pu

from ..dsp.fixed_point import saturate
from ..mems.membrane import MembraneSensor
from ..sdm.frontend import CapacitiveFrontEnd
from .mux import AnalogMultiplexer


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
    metastability draws) that is fully deterministic (no jitter,
    thermal/flicker noise, or DAC reference noise — the kernel cannot
    replay the bank scan's visit-by-visit draw order), the
    stock third-order/unit-delay CIC, and no word hook (the hook must
    see each element's words in sequential order). When the FPGA still
    points at element 0 the scan's first visit does not reset the
    filter, so any carried filter state must sit at a decimation
    boundary (phase 0) for the lanes to run in lockstep.
    """
    m = chain.chip.modulator
    filt = chain.fpga.filter
    return (
        m.compiled_loop_ok()
        and not (
            m.nonideality.clock_jitter_s > 0.0
            or m._noise_sigma_u > 0.0
            or m._flicker is not None
            or m.dac.reference_noise_sigma > 0.0
        )
        and filt.cic.order == 3
        and filt.cic.diff_delay == 1
        and chain.fpga.word_hook is None
        and not (
            chain.fpga._element == 0
            and (filt.cic._phase != 0 or filt.fir._phase != 0)
        )
    )


def _stage_frontend_kernel(
    batch_kernel, chip, segments: np.ndarray, au: np.ndarray,
    injection: np.ndarray, a1: float,
) -> bool:
    """Stage ``a1 * u`` for every lane through the compiled front end.

    Lane k reads row k of ``segments`` in place (its own dwell window —
    each lane's "selected column" is a row of the segment matrix). The C
    pass replays the membrane Chebyshev evaluation, mismatch affine,
    first-sample charge injection and charge-front-end transfer term for
    term, so the staged doubles equal the NumPy front end's exactly.
    Returns False (with no state touched) when the configuration carries
    substituted models or any sample violates the transfer's
    domain/positivity constraints.
    """
    fe = chip.frontend
    array = chip.array
    if type(chip.mux) is not AnalogMultiplexer:
        return False
    if type(fe) is not CapacitiveFrontEnd:
        return False
    sensor = array.sensor
    if type(sensor) is not MembraneSensor:
        return False
    transfer = array.vectorized_transfer()
    if transfer is None:
        return False
    scales, offsets = transfer
    fit = sensor._fit
    dom_off, dom_scl = _pu.mapparms(fit.domain, fit.window)
    B, n = segments.shape
    pbase = (
        segments.ctypes.data
        + np.arange(B, dtype=np.uint64) * np.uint64(segments.strides[0])
    ).astype(np.uint64)
    return batch_kernel.run_frontend_chunk(
        n=n,
        pbase=pbase,
        pstep=np.ones(B, dtype=np.int64),
        au=au,
        au_stride=au.shape[1],
        cheb_coef=np.ascontiguousarray(fit.coef, dtype=float),
        dom_off=float(dom_off),
        dom_scl=float(dom_scl),
        p_min=float(sensor._p_min),
        p_max=float(sensor._p_max),
        cap_scale=scales,
        cap_offset=offsets,
        injection=injection,
        ref_cap=np.full(B, fe.reference_cap_f),
        fb_cap=np.full(B, fe.feedback_cap_f),
        excitation=np.full(B, fe.excitation_fraction),
        a1=np.full(B, a1),
        u_last=np.empty(B),
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
    # cost at 64x64). The mux then finishes on the last element with its
    # injection state consumed — the sequential-scan semantics.
    B = n_elements
    Bp = batch_kernel.pad_lanes(B)
    a1 = m.stage1.signal_gain * m.stage1.gain_error
    au = np.zeros((Bp, n))
    mux = chip.mux
    inj = np.full(B, mux.charge_injection_c / 2.5)
    if mux._selected == 0 and not mux._just_switched:
        inj[0] = 0.0
    if not _stage_frontend_kernel(batch_kernel, chip, segments, au, inj, a1):
        return None
    mux._selected = B - 1
    mux._just_switched = False

    def lanes(value, pad=0.0):
        vec = np.full(Bp, pad)
        vec[:B] = value
        return vec

    comp = m.comparator
    st = batch_kernel.BatchState(
        x1=lanes(m.stage1.state),
        x2=lanes(m.stage2.state),
        comp_previous=lanes(comp.previous_decision, pad=1).astype(np.int64),
        cic_integrators=np.zeros((filt.cic.order, Bp), dtype=np.int64),
        cic_combs=np.zeros((filt.cic.order, Bp), dtype=np.int64),
        cic_phase=0,
        fir_history=np.zeros((Bp, filt.fir.taps - 1), dtype=np.int64),
        fir_phase=0,
    )
    if start_element == 0:
        # First visit re-selects element 0: its lane continues from the
        # carried filter state (phase 0, checked above) instead of a reset.
        st.cic_integrators[:, 0] = filt.cic._integrators
        st.cic_combs[:, 0] = filt.cic._combs[:, 0]
        st.fir_history[0, :] = filt.fir._history

    # The loop constants in kernel order; padding lanes are inert (zero
    # gains, unit swing).
    coeffs = np.zeros((9, Bp))
    coeffs[6] = 1.0
    coeffs[:, :B] = np.array(m.kernel_coefficients())[:, None]
    zero = np.zeros(n)
    qscale = (1 << (filt.params.output_bits - 1)) / (
        float(filt.cic.dc_gain) / filt.fir.coeff_format.scale
    )
    result = batch_kernel.run_batch_chunk(
        n, au, au.shape[1], zero, 0, zero, 0, *coeffs,
        state=st,
        cic_decimation=filt.cic.decimation,
        register_bits=filt.cic.register_bits,
        fir_flipped=np.ascontiguousarray(
            filt.fir.coefficients_int[::-1], dtype=np.int64
        ),
        fir_decimation=filt.fir.decimation,
        qscale=qscale,
        output_bits=filt.params.output_bits,
    )
    codes = result.codes[:B]
    n_words = codes.shape[1]

    # Per-element post-switch suppression, then the same i16 clamp the
    # framing path applies; values in modulator FS like ChainRecording.
    records: list[np.ndarray] = []
    drops = np.minimum(budgets, n_words)
    for k in range(B):
        kept = codes[k, int(drops[k]) :]
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
    filt.cic._integrators = st.cic_integrators[:, B - 1].copy()
    filt.cic._combs[:, 0] = st.cic_combs[:, B - 1]
    filt.cic._phase = st.cic_phase
    filt.fir._history = st.fir_history[B - 1].copy()
    filt.fir._phase = st.fir_phase
    return records
