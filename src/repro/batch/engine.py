"""Adapter between readout chains and the fused batched kernel.

:class:`BatchChainEngine` takes ``B`` independent
:class:`~repro.core.chain.ReadoutChain` objects (one per concurrent
session, or one for a solo session) and advances them all by one chunk
per call. It is the one staging owner of both sessions: it picks the
front end (the compiled one or the per-lane NumPy one), stages the
modulator inputs and runs the fused kernel. The cascade state
(integrators, comparator memory, CIC/FIR registers and phases) is read
out of the chain objects before each kernel call and written back
afterwards, so the chains remain the single source of truth:

* any chunk split produces bit-identical output,
* a lane can be handed back to single-session processing at any chunk
  boundary and resumes bit-exactly,
* the per-lane fallback (the modulator's own loop dispatch plus the
  NumPy decimation filter, used when the native library is unavailable,
  a lane is pinned to the reference loop or a chip taps its bitstream)
  and the kernel are interchangeable mid-stream.

Stochastic terms are drawn per lane through each modulator's own
:meth:`~repro.sdm.modulator.SecondOrderSDM._prepare_inputs`, straight
into the lane's staging rows, preserving the per-term child-stream
discipline that makes noisy configurations chunk-invariant. With two or
more noisy lanes and CPUs, the lanes are split between the calling
thread and a shared thread pool (NumPy releases the GIL while drawing);
a lane touches only its own modulator and rows, so the split changes no
value. Fully deterministic lanes (no jitter, noise, flicker or DAC
noise) skip that call entirely: its only effects are the identity
transform and the jitter-slope carry, which the engine replays directly.

The kernel runs on a batch padded to :data:`~repro.native.LANE_BLOCK`
lanes; padded lanes carry inert coefficients and zero inputs, and their
outputs are discarded. Input staging buffers persist across chunks
(lane-major, stride-addressed) and never hold more than
:data:`STAGE_SAMPLES` samples per lane: a longer chunk runs as
consecutive slices, which chunk invariance makes bit-identical to one
call. Lanes without a given stochastic term share one all-zero row
instead of materializing ``(B, n)`` zeros. The kernel's state and
output arrays, and the addresses of everything it reads, are held by a
per-engine :class:`~repro.batch.kernel.ChainKernel` (and
:class:`~repro.batch.kernel.FrontendKernel`), bound once when the
engine is built (the front end once per element selection) and run
through the module's one call form,
:func:`~repro.batch.kernel.run_batch_chunk` (and
:func:`~repro.batch.kernel.run_frontend_chunk`).
"""

from __future__ import annotations

import os
import threading

import numpy as np

from ..errors import ConfigurationError
from . import kernel as batch_kernel
from .kernel import ChainKernel

#: Most samples per lane one kernel call stages; longer chunks run as
#: slices of this length. 16384 keeps the staging rows of a solo
#: session at about 1 MiB each while a 50 ms chunk (6400 samples) still
#: runs in one call.
STAGE_SAMPLES = 16384

# Noisy lanes stage on the calling thread plus this pool, created on
# first use. A forked child inherits the pool object but not its worker
# threads, so a submit there would wait forever: the at-fork hook drops
# the pool, and a forked child stages inline (its parent already spreads
# the work over the cores).
_pool = None
_pool_lock = threading.Lock()
_forked = False


def _after_fork_in_child() -> None:
    global _pool, _pool_lock, _forked
    _pool = None
    # Another thread may have held the lock at fork; the child's copy
    # would then stay locked.
    _pool_lock = threading.Lock()
    _forked = True


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def staging_cpus() -> int:
    """CPUs noisy-lane staging may spread over (1 in a forked child)."""
    if _forked:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def _staging_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                max_workers=max(1, staging_cpus() - 1),
                thread_name_prefix="repro-stage",
            )
        return _pool


class BatchChainEngine:
    """Lockstep executor for ``B`` chains' modulator+decimation cascades.

    Parameters
    ----------
    chains:
        Distinct :class:`~repro.core.chain.ReadoutChain` objects, one
        per lane, fixed for the engine's life. Lanes must share the
        decimation architecture (CIC decimation, FIR taps/decimation and
        quantized coefficients, output width); per-lane analog parameters
        (mismatch, noise, comparator imperfections) are free.
    """

    def __init__(self, chains):
        chains = list(chains)
        if not chains:
            raise ConfigurationError("batch needs at least one chain")
        if len({id(c) for c in chains}) != len(chains):
            raise ConfigurationError(
                "batch lanes must be distinct chain objects; sharing one "
                "chain across lanes would interleave its analog state"
            )
        self.chains = chains
        ref = chains[0].fpga.filter
        for c in chains[1:]:
            filt = c.fpga.filter
            if (
                filt.cic.decimation != ref.cic.decimation
                or filt.fir.decimation != ref.fir.decimation
                or filt.fir.taps != ref.fir.taps
                or filt.params.output_bits != ref.params.output_bits
                or not np.array_equal(
                    filt.fir.coefficients_int, ref.fir.coefficients_int
                )
            ):
                raise ConfigurationError(
                    "batch lanes must share the decimation architecture "
                    "(CIC/FIR geometry and quantized coefficients)"
                )

        mods = [c.chip.modulator for c in chains]
        self._padded = batch_kernel.pad_lanes(len(chains))
        self._a1 = np.array(
            [m.stage1.signal_gain * m.stage1.gain_error for m in mods]
        )
        self._ideal_comp = [m.comparator.is_ideal() for m in mods]
        self._det = np.array([m.is_deterministic() for m in mods])
        # A modulator pinned to the reference loop or without the native
        # library keeps its own choice.
        self._kernel = (
            ChainKernel([m.kernel_coefficients() for m in mods], ref)
            if all(m.compiled_loop_ok() for m in mods)
            else None
        )

        # Lane-major staging buffers, grown on demand up to
        # STAGE_SAMPLES and reused across chunks. Rows that are never
        # written (inert padding, lanes without a stochastic term) stay
        # zero. When *no* lane has a term, the whole batch shares one
        # zero row via stride 0.
        self._buf_n = 0
        self._au: np.ndarray | None = None
        self._noise: np.ndarray | None = None
        self._dacn: np.ndarray | None = None
        self._zero_row: np.ndarray | None = None
        self._work: np.ndarray | None = None
        self._staging_threads = 0
        self._det_lanes = np.flatnonzero(self._det).tolist()
        self._noisy_lanes = np.flatnonzero(~self._det).tolist()
        self._any_noise = any(
            m._noise_sigma_u > 0.0 or m._flicker is not None for m in mods
        )
        self._any_dacn = any(m.dac.reference_noise_sigma > 0.0 for m in mods)
        # The compiled front end, bound on first use for the lanes'
        # element selection (see _front_for).
        self._front = self._front_sel = None

    @property
    def lanes(self) -> int:
        return len(self.chains)

    @property
    def uses_kernel(self) -> bool:
        """True when chunks run through the fused compiled kernel."""
        return (
            self._kernel is not None and batch_kernel.batch_kernel_available()
        )

    @property
    def staging_nbytes(self) -> int:
        """Bytes held by the input staging buffers (bounded by
        :data:`STAGE_SAMPLES` per padded lane and buffer)."""
        return sum(
            a.nbytes
            for a in (
                self._au, self._noise, self._dacn, self._zero_row, self._work
            )
            if a is not None
        )

    @property
    def staging_threads(self) -> int:
        """Threads the last kernel slice staged its lanes on (0 before
        the first one): 1 inline, more when noisy lanes were sharded."""
        return self._staging_threads

    # -- staging buffers ---------------------------------------------------

    def ensure_buffers(self, n: int) -> np.ndarray:
        """Size the staging buffers for ``n``-sample slices; return au.

        ``n`` is at most :data:`STAGE_SAMPLES`. The returned
        ``(padded_lanes, >=n)`` array is the kernel's loop-input staging
        area; the compiled front end writes rows ``[:B, :n]`` directly.
        """
        if n > STAGE_SAMPLES:
            raise ConfigurationError(
                f"stage at most {STAGE_SAMPLES} samples per call"
            )
        if self._au is None or n > self._buf_n:
            size = min(max(n, 2 * self._buf_n), STAGE_SAMPLES)
            self._buf_n = size
            self._au = np.zeros((self._padded, size))
            self._noise = (
                np.zeros((self._padded, size)) if self._any_noise else None
            )
            self._dacn = (
                np.zeros((self._padded, size)) if self._any_dacn else None
            )
            self._zero_row = np.zeros(size)
            self._work = None
            zero = (self._zero_row.ctypes.data, 0)
            noise = (
                (self._noise.ctypes.data, size) if self._any_noise else zero
            )
            dacn = (self._dacn.ctypes.data, size) if self._any_dacn else zero
            self._stage = (self._au.ctypes.data, size) + noise + dacn
        return self._au

    # -- front end ---------------------------------------------------------

    def _front_for(self, fields):
        """The compiled front end if it can stage this chunk, else None.

        Bound by :func:`~repro.batch.kernel.frontend_kernel` for the
        lanes' current element selection, and rebound when a lane's
        selection (and so its element's mismatch) changes.
        """
        chains = self.chains
        sel = [c.chip.mux._selected for c in chains]
        if sel != self._front_sel:
            self._front_sel = sel
            # Fold the modulator input gain only for lanes whose prep is
            # the identity; other lanes receive raw u for _prepare_inputs.
            self._front = batch_kernel.frontend_kernel(
                [
                    (c.chip.mux, c.chip.mux.array.elements[s], c.chip.frontend)
                    for c, s in zip(chains, sel)
                ],
                np.where(self._det, self._a1, 1.0),
            )
        if self._front is None:
            return None
        for l, c in enumerate(chains):
            chip = c.chip
            if (
                chip.loop_input_hook is not None
                or chip.bitstream_hook is not None
            ):
                return None
            arr = fields[l]
            if (
                arr.dtype != np.float64
                or arr.ndim != 2
                or arr.shape[1] != chip.mux.array.n_elements
                or arr.strides[0] % 8
                or arr.strides[1] % 8
            ):
                return None
        return self._front

    def _stage_front(self, kernel, fields, start: int, n: int) -> bool:
        """Stage samples ``[start, start + n)`` of every lane's field."""
        for l, c in enumerate(self.chains):
            arr = fields[l]
            kernel.pbase[l] = (
                arr.ctypes.data + start * arr.strides[0]
                + self._front_sel[l] * arr.strides[1]
            )
            kernel.pstep[l] = arr.strides[0] // 8
            kernel.injection[l] = (
                kernel.switch_injection[l] if c.chip.mux._just_switched
                else 0.0
            )
        self.ensure_buffers(n)
        if not batch_kernel.run_frontend_chunk(kernel, n, *self._stage[:2]):
            # Domain or positivity violation: the front end is pure (no
            # state was touched), so the caller replays through the
            # per-lane path to raise the exact per-lane error.
            return False
        for c in self.chains:
            c.chip.mux._just_switched = False
        return True

    # -- execution ---------------------------------------------------------

    def feed_pressure(self, fields):
        """Advance every lane by one membrane-pressure chunk.

        ``fields`` holds one ``(n, n_elements)`` float array per lane,
        all with the same ``n``. Each lane routes its selected element
        through its own mux and front end (charge injection included)
        and honours its chip's ``loop_input_hook`` and
        ``bitstream_hook``. Returns ``(codes, clipped)`` as
        :meth:`feed_loop_inputs` does.

        A pressure outside the transducer's range (NaN included) raises
        the per-lane NumPy front end's error. In a chunk longer than
        :data:`STAGE_SAMPLES` the slices before the offending one have
        then already been converted, as if they had been fed as
        separate chunks.
        """
        n = fields[0].shape[0]
        kernel = self._front_for(fields) if self.uses_kernel else None
        parts = []
        start = 0
        if kernel is not None:
            folded = self._det
            while start < n:
                m = min(STAGE_SAMPLES, n - start)
                if not self._stage_front(kernel, fields, start, m):
                    break
                parts.append(
                    self.run_prepared(m, folded=folded, u_last=kernel.u_last)
                )
                start += m
        if start < n:
            rest = [f[start:] for f in fields]
            u = np.empty((n - start, self.lanes))
            # Routing a lane consumes its charge-injection flag; a later
            # lane's error must hand every lane its flag back.
            switched = [c.chip.mux._just_switched for c in self.chains]
            try:
                for l, c in enumerate(self.chains):
                    chip = c.chip
                    ul = chip.frontend.loop_input(
                        chip.mux.routed_capacitance_f(rest[l])
                    )
                    if chip.loop_input_hook is not None:
                        ul = chip.loop_input_hook(ul)
                    u[:, l] = ul
            except Exception:
                for c, flag in zip(self.chains, switched):
                    c.chip.mux._just_switched = flag
                raise
            parts.append(self.feed_loop_inputs(u))
        return self._join(parts)

    def feed_voltage(self, voltages):
        """Advance every lane by one test-voltage chunk.

        ``voltages`` holds one 1-D array per lane, all of the same
        length. Each lane converts through its chip's voltage front end
        and ``loop_input_hook``; returns what :meth:`feed_loop_inputs`
        does.
        """
        u = np.empty((voltages[0].shape[0], self.lanes))
        for l, c in enumerate(self.chains):
            chip = c.chip
            ul = chip.voltage_input.loop_input(voltages[l])
            if chip.loop_input_hook is not None:
                ul = chip.loop_input_hook(ul)
            u[:, l] = ul
        return self.feed_loop_inputs(u)

    def feed_loop_inputs(self, loop_inputs: np.ndarray):
        """Advance every lane by one loop-input chunk.

        Parameters
        ----------
        loop_inputs:
            ``(n, B)`` array of modulator loop inputs in FS units (after
            the front end), one column per lane.

        Returns
        -------
        codes:
            ``(B, n_words)`` int64 array of 12-bit decimated codes —
            everything the cascade emitted this chunk, *before* the
            FPGA's post-switch suppression window.
        clipped:
            ``(B,)`` int64 clipped-cycle counts for the chunk.
        """
        u = np.asarray(loop_inputs, dtype=float)
        if u.ndim != 2 or u.shape[1] != len(self.chains):
            raise ConfigurationError(
                "loop inputs must be (n_samples, n_lanes)"
            )
        n, B = u.shape
        if (
            n == 0
            or not self.uses_kernel
            or any(c.chip.bitstream_hook is not None for c in self.chains)
        ):
            return self._feed_fallback(u)
        parts = []
        for start in range(0, n, STAGE_SAMPLES):
            m = min(STAGE_SAMPLES, n - start)
            au = self.ensure_buffers(m)
            au[:B, :m] = u[start : start + m].T
            parts.append(self.run_prepared(m))
        return self._join(parts)

    @staticmethod
    def _join(parts):
        if len(parts) == 1:
            return parts[0]
        codes = np.concatenate([p[0] for p in parts], axis=1)
        return codes, sum(p[1] for p in parts)

    def run_prepared(self, n: int, folded=None, u_last=None):
        """Run one slice whose loop inputs are already staged in ``au``.

        ``au`` rows (from :meth:`ensure_buffers`) hold each lane's raw
        loop input ``u``, except lanes flagged in ``folded`` (a mask
        over deterministic lanes) whose rows already hold ``a1 * u`` —
        the compiled front end writes those directly, passing the raw
        final sample per lane in ``u_last`` for the jitter-slope carry.

        Noisy lanes are staged by :meth:`_stage_noisy`, split across the
        usable CPUs when there are at least two of each. A lane touches
        only its own modulator, RNG streams and staging rows, so the
        split cannot change a value.
        """
        B = len(self.chains)
        au = self._au
        for l in self._det_lanes:
            m = self.chains[l].chip.modulator
            if folded is not None and folded[l]:
                m._last_input = float(u_last[l])
                continue
            # _prepare_inputs with every stochastic term disabled is
            # the identity transform plus the jitter-slope carry.
            row = au[l, :n]
            m._last_input = float(row[-1])
            np.multiply(row, self._a1[l], out=row)

        noisy = self._noisy_lanes
        shares = min(staging_cpus(), len(noisy)) if len(noisy) > 1 else 1
        self._staging_threads = shares
        if shares > 1:
            work = self._work_rows(shares)
            pool = _staging_pool()
            futures = [
                pool.submit(self._stage_noisy, noisy[i::shares], n, work[i])
                for i in range(1, shares)
            ]
            try:
                self._stage_noisy(noisy[::shares], n, work[0])
            finally:
                # Every share finishes before the rows are read or an
                # error leaves this call.
                errors = [f.exception() for f in futures]
            for err in errors:
                if err is not None:
                    raise err
        elif noisy:
            self._stage_noisy(noisy, n, self._work_rows(1)[0])

        k = self._kernel
        self._load_state(k)
        nw = batch_kernel.run_batch_chunk(k, n, *self._stage)
        self._store_state(k)
        return k.words[:B, :nw].copy(), k.clipped[:B].copy()

    def _work_rows(self, shares: int) -> np.ndarray:
        """``(>=shares, 2, buf_n)`` jitter scratch, one pair per share."""
        if self._work is None or self._work.shape[0] < shares:
            self._work = np.empty((shares, 2, self._buf_n))
        return self._work

    def _stage_noisy(self, lanes, n: int, work: np.ndarray) -> None:
        """Draw ``lanes``' stochastic terms straight into their rows."""
        au, noise, dacn = self._au, self._noise, self._dacn
        work = work[:, :n]
        for l in lanes:
            row = au[l, :n]
            self.chains[l].chip.modulator._prepare_inputs(
                row,
                out=(
                    row,
                    None if noise is None else noise[l, :n],
                    None if dacn is None else dacn[l, :n],
                    work,
                ),
            )
            np.multiply(row, self._a1[l], out=row)

    # -- state hand-over ---------------------------------------------------

    def _load_state(self, k: ChainKernel) -> None:
        """Copy every lane's cascade state from its chain into ``k``."""
        cic0 = self.chains[0].fpga.filter
        k.cic_phase = cic0.cic._phase
        k.fir_phase = cic0.fir._phase
        for l, c in enumerate(self.chains):
            m = c.chip.modulator
            k.x1[l] = m.stage1.state
            k.x2[l] = m.stage2.state
            k.comp_previous[l] = m.comparator.previous_decision
            filt = c.fpga.filter
            if filt.cic._phase != k.cic_phase or filt.fir._phase != k.fir_phase:
                raise ConfigurationError(
                    "batch lanes fell out of decimation lockstep; every "
                    "lane must be fed the same number of samples"
                )
            k.integ[:, l] = filt.cic._integrators
            k.comb[:, l] = filt.cic._combs
            k.hist[l] = filt.fir._history

    def _store_state(self, k: ChainKernel) -> None:
        """Write ``k``'s state back into the chains' own layout."""
        integ = k.wrapped_integrators()
        hist = k.ordered_history()
        for l, c in enumerate(self.chains):
            m = c.chip.modulator
            m.stage1.state = float(k.x1[l])
            m.stage2.state = float(k.x2[l])
            if not self._ideal_comp[l]:
                # The ideal comparator has no memory; the reference path
                # leaves its _previous untouched, so mirror that.
                m.comparator._previous = int(k.comp_previous[l])
            filt = c.fpga.filter
            filt.cic._integrators = integ[:, l].copy()
            filt.cic._combs[:] = k.comb[:, l]
            filt.cic._phase = k.cic_phase
            filt.fir._history = hist[l].copy()
            filt.fir._phase = k.fir_phase

    def _feed_fallback(self, u: np.ndarray):
        """Per-lane processing through the modulator and the NumPy filter.

        Exact by construction: each lane runs the modulator loop
        dispatch (:meth:`~repro.sdm.modulator.SecondOrderSDM.simulate`'s
        choice, under the lane's own backend, between the compiled loop
        and the reference loop) and its
        :class:`~repro.dsp.decimator.DecimationFilter`, against the same
        chain state as the kernel. The one path that builds a bitstream,
        so a chip's ``bitstream_hook`` runs here, between the two.
        """
        n, B = u.shape
        clipped = np.zeros(B, dtype=np.int64)
        if n == 0:
            return np.zeros((B, 0), dtype=np.int64), clipped
        self._staging_threads = 1
        lane_codes = []
        for l, c in enumerate(self.chains):
            m = c.chip.modulator
            out = m._run_prepared(*m._prepare_inputs(u[:, l]))
            clipped[l] = out.clipped_samples
            bits = out.bitstream
            if c.chip.bitstream_hook is not None:
                bits = c.chip.bitstream_hook(bits)
            lane_codes.append(c.fpga.filter.process(bits).codes)
        widths = {codes.size for codes in lane_codes}
        if len(widths) != 1:  # pragma: no cover - lockstep guard
            raise ConfigurationError(
                "batch lanes fell out of decimation lockstep"
            )
        if lane_codes[0].size == 0:
            return np.zeros((B, 0), dtype=np.int64), clipped
        return np.stack(lane_codes, axis=0), clipped
