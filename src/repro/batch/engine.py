"""Adapter between readout chains and the fused batched kernel.

:class:`BatchChainEngine` takes ``B`` independent
:class:`~repro.core.chain.ReadoutChain` objects (one per concurrent
session) and advances them all by one loop-input chunk per call. The
cascade state (integrators, comparator memory, CIC/FIR registers and
phases) is read out of the chain objects before each call and written
back afterwards, so the chains remain the single source of truth:

* any chunk split produces bit-identical output,
* a lane can be handed back to single-session processing at any chunk
  boundary and resumes bit-exactly,
* the per-lane fallback (the single-session modulator dispatch plus the
  NumPy decimation filter, used when the native library is unavailable
  or a lane needs the reference loop) and the kernel are
  interchangeable mid-stream.

Stochastic terms are drawn per lane through each modulator's own
:meth:`~repro.sdm.modulator.SecondOrderSDM._prepare_inputs`, preserving
the per-term child-stream discipline that makes noisy configurations
chunk-invariant. Fully deterministic lanes (no jitter, noise, flicker or
DAC noise) skip that call entirely: its only effects are the identity
transform and the jitter-slope carry, which the engine replays directly.

The kernel runs on a batch padded to :data:`~repro.native.LANE_BLOCK`
lanes; padded lanes carry zero coefficients and inputs, and their
outputs are discarded. Input staging buffers persist across chunks
(lane-major, stride-addressed) so a steady-state feed allocates nothing
proportional to ``B * n``, and lanes without a given stochastic term
share one all-zero row instead of materializing ``(B, n)`` zeros.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from . import kernel as batch_kernel
from .kernel import BatchState


class BatchChainEngine:
    """Lockstep executor for ``B`` chains' modulator+decimation cascades.

    Parameters
    ----------
    chains:
        Distinct :class:`~repro.core.chain.ReadoutChain` objects, one
        per lane. Lanes must share the decimation architecture (CIC
        order/decimation/differential delay, FIR taps/decimation and
        quantized coefficients, output width); per-lane analog
        parameters (mismatch, noise, comparator imperfections) are free.
    """

    def __init__(self, chains):
        self._configure(list(chains))

    def _configure(self, chains) -> None:
        """(Re)build every per-lane constant for ``chains``.

        Called by ``__init__`` and by the dynamic lane operations
        (:meth:`attach_lane` / :meth:`detach_lane`): all per-lane
        coefficient vectors, masks and the padded batch geometry are
        derived from the chain objects alone, so membership changes are
        a pure rebuild. Staging buffers are dropped because lane
        *indices* shift — a stale noise row from a previous occupant
        must never be read by its new one.
        """
        if not chains:
            raise ConfigurationError("batch needs at least one chain")
        if len({id(c) for c in chains}) != len(chains):
            raise ConfigurationError(
                "batch lanes must be distinct chain objects; sharing one "
                "chain across lanes would interleave its analog state"
            )
        self.chains = chains
        ref = chains[0].fpga.filter
        for c in chains:
            filt = c.fpga.filter
            if (
                filt.cic.order != ref.cic.order
                or filt.cic.decimation != ref.cic.decimation
                or filt.cic.diff_delay != ref.cic.diff_delay
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
        self._filter = ref

        # Constant per-lane modulator coefficient vectors, padded to the
        # kernel's lane-block multiple with inert lanes (zero gains).
        B = len(chains)
        Bp = batch_kernel.pad_lanes(B)
        self._padded = Bp
        self._dac_gain = np.zeros(Bp)
        self._p1 = np.zeros(Bp)
        self._b1 = np.zeros(Bp)
        self._p2 = np.zeros(Bp)
        self._a2 = np.zeros(Bp)
        self._b2 = np.zeros(Bp)
        self._a1 = np.zeros(Bp)
        self._swing = np.ones(Bp)
        self._c_off = np.zeros(Bp)
        self._c_hys = np.zeros(Bp)
        self._ideal_comp = np.zeros(Bp, dtype=bool)
        self._det = np.zeros(B, dtype=bool)  # fully deterministic lanes
        self._has_noise = np.zeros(B, dtype=bool)
        self._has_dacn = np.zeros(B, dtype=bool)
        kernel_ok = True
        for l, c in enumerate(chains):
            m = c.chip.modulator
            s1, s2 = m.stage1, m.stage2
            comp = m.comparator
            self._a1[l] = s1.signal_gain * s1.gain_error
            self._p1[l] = s1.leak
            self._b1[l] = s1.feedback_gain * s1.gain_error
            self._p2[l] = s2.leak
            self._a2[l] = s2.signal_gain * s2.gain_error
            self._b2[l] = s2.feedback_gain * s2.gain_error
            self._swing[l] = s1.swing_limit
            self._dac_gain[l] = 1.0 + m.dac.reference_error
            ideal = comp.is_ideal()
            self._ideal_comp[l] = ideal
            self._c_off[l] = 0.0 if ideal else comp.offset_v
            self._c_hys[l] = 0.0 if ideal else comp.hysteresis_v
            self._has_noise[l] = (
                m._noise_sigma_u > 0.0 or m._flicker is not None
            )
            self._has_dacn[l] = m.dac.reference_noise_sigma > 0.0
            self._det[l] = not (
                m.nonideality.clock_jitter_s > 0.0
                or self._has_noise[l]
                or self._has_dacn[l]
            )
            if comp.metastable_band_v != 0.0:
                # In-loop random draws: reference loop only.
                kernel_ok = False
            if self._dac_gain[l] == 0.0 and m.dac.reference_noise_sigma == 0.0:
                # Degenerate zero DAC gain: the unified comparator form
                # would see -0.0 where the reference sees +0.0.
                kernel_ok = False
        if ref.cic.order != 3 or ref.cic.diff_delay != 1:
            kernel_ok = False
        self._kernel_ok = kernel_ok
        self._qscale = (1 << (ref.params.output_bits - 1)) / (
            float(ref.cic.dc_gain) / ref.fir.coeff_format.scale
        )
        self._flip = np.ascontiguousarray(
            ref.fir.coefficients_int[::-1], dtype=np.int64
        )

        # Lane-major staging buffers, grown on demand and reused across
        # chunks. Rows that are never written (inert padding, lanes
        # without a stochastic term) stay zero. When *no* lane has a
        # term, the whole batch shares one zero row via stride 0.
        self._buf_n = 0
        self._au: np.ndarray | None = None
        self._noise: np.ndarray | None = None
        self._dacn: np.ndarray | None = None
        self._zero_row: np.ndarray | None = None
        self._any_noise = bool(self._has_noise.any())
        self._any_dacn = bool(self._has_dacn.any())

    @property
    def lanes(self) -> int:
        return len(self.chains)

    @property
    def uses_kernel(self) -> bool:
        """True when chunks run through the fused compiled kernel."""
        return self._kernel_ok and batch_kernel.batch_kernel_available()

    @property
    def deterministic_lanes(self) -> np.ndarray:
        """Mask of lanes with no stochastic terms (read-only view)."""
        return self._det

    # -- dynamic lane membership -------------------------------------------

    def attach_lane(self, chain) -> int:
        """Join ``chain`` as a new lane at a chunk boundary.

        The chain's cascade state is whatever it is — a freshly built
        chain or one that has been running solo — but its decimation
        *phases* must match the batch's, because the fused kernel
        advances all lanes in lockstep (a fresh chain therefore joins
        when the batch sits at a decimation boundary). Returns the new
        lane's index; subsequent chunks advance it bit-identically to
        the solo path, exactly like the founding lanes.
        """
        if any(chain is c for c in self.chains):
            raise ConfigurationError("chain is already a lane of this batch")
        ref = self.chains[0].fpga.filter
        filt = chain.fpga.filter
        if (
            filt.cic._phase != ref.cic._phase
            or filt.fir._phase != ref.fir._phase
        ):
            raise ConfigurationError(
                "joining lane must match the batch's decimation phase; "
                "attach at a shared decimation boundary"
            )
        self._configure(self.chains + [chain])
        return len(self.chains) - 1

    def detach_lane(self, lane: int):
        """Remove one lane at a chunk boundary; returns its chain.

        The chain objects are the single source of truth for cascade
        state, so the detached chain resumes single-session processing
        bit-exactly — and may later :meth:`attach_lane` again.
        """
        if not 0 <= lane < len(self.chains):
            raise ConfigurationError(f"no lane {lane} in this batch")
        if len(self.chains) == 1:
            raise ConfigurationError(
                "cannot detach the last lane; a batch needs at least one"
            )
        chain = self.chains[lane]
        self._configure(
            [c for i, c in enumerate(self.chains) if i != lane]
        )
        return chain

    # -- staging buffers ---------------------------------------------------

    def ensure_buffers(self, n: int) -> np.ndarray:
        """Size the staging buffers for ``n``-sample chunks; return au.

        The returned ``(padded_lanes, >=n)`` array is the kernel's
        loop-input staging area; callers that precompute ``a1 * u`` (the
        fused front end) write rows ``[:B, :n]`` directly.
        """
        if self._au is None or n > self._buf_n:
            size = max(n, 2 * self._buf_n)
            self._buf_n = size
            self._au = np.zeros((self._padded, size))
            self._noise = (
                np.zeros((self._padded, size)) if self._any_noise else None
            )
            self._dacn = (
                np.zeros((self._padded, size)) if self._any_dacn else None
            )
            self._zero_row = np.zeros(size)
        return self._au

    # -- state marshalling -------------------------------------------------

    def _collect_state(self) -> BatchState:
        Bp = self._padded
        taps = self._filter.fir.taps
        order = self._filter.cic.order
        st = BatchState(
            x1=np.zeros(Bp),
            x2=np.zeros(Bp),
            comp_previous=np.ones(Bp, dtype=np.int64),
            cic_integrators=np.zeros((order, Bp), dtype=np.int64),
            cic_combs=np.zeros((order, Bp), dtype=np.int64),
            cic_phase=self.chains[0].fpga.filter.cic._phase,
            fir_history=np.zeros((Bp, taps - 1), dtype=np.int64),
            fir_phase=self.chains[0].fpga.filter.fir._phase,
        )
        for l, c in enumerate(self.chains):
            m = c.chip.modulator
            st.x1[l] = m.stage1.state
            st.x2[l] = m.stage2.state
            st.comp_previous[l] = m.comparator.previous_decision
            filt = c.fpga.filter
            if filt.cic._phase != st.cic_phase or filt.fir._phase != st.fir_phase:
                raise ConfigurationError(
                    "batch lanes fell out of decimation lockstep; every "
                    "lane must be fed the same number of samples"
                )
            st.cic_integrators[:, l] = filt.cic._integrators
            st.cic_combs[:, l] = filt.cic._combs[:, 0]
            st.fir_history[l, :] = filt.fir._history
        return st

    def _restore_state(self, st: BatchState) -> None:
        for l, c in enumerate(self.chains):
            m = c.chip.modulator
            m.stage1.state = float(st.x1[l])
            m.stage2.state = float(st.x2[l])
            if not self._ideal_comp[l]:
                # The ideal comparator has no memory; the reference path
                # leaves its _previous untouched, so mirror that.
                m.comparator._previous = int(st.comp_previous[l])
            filt = c.fpga.filter
            filt.cic._integrators = st.cic_integrators[:, l].copy()
            filt.cic._combs[:, 0] = st.cic_combs[:, l]
            filt.cic._phase = st.cic_phase
            filt.fir._history = st.fir_history[l].copy()
            filt.fir._phase = st.fir_phase

    # -- execution ---------------------------------------------------------

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
        if n == 0:
            return (
                np.zeros((B, 0), dtype=np.int64),
                np.zeros(B, dtype=np.int64),
            )

        if not self.uses_kernel:
            return self._feed_fallback(u)

        au = self.ensure_buffers(n)
        for l in range(B):
            au[l, :n] = u[:, l]
        return self.run_prepared(n)

    def run_prepared(self, n: int, folded=None, u_last=None):
        """Run one chunk whose loop inputs are already staged in ``au``.

        ``au`` rows (from :meth:`ensure_buffers`) hold each lane's raw
        loop input ``u``, except lanes flagged in ``folded`` (a mask
        over deterministic lanes) whose rows already hold ``a1 * u`` —
        the fused front end writes those directly, passing the raw final
        sample per lane in ``u_last`` for the jitter-slope carry.
        """
        B = len(self.chains)
        au = self._au
        for l, c in enumerate(self.chains):
            m = c.chip.modulator
            row = au[l, :n]
            if folded is not None and folded[l]:
                m._last_input = float(u_last[l])
                continue
            if self._det[l]:
                # _prepare_inputs with every stochastic term disabled is
                # the identity transform plus the jitter-slope carry.
                m._last_input = float(row[-1])
                np.multiply(row, self._a1[l], out=row)
                continue
            ul, nl, dl, _dg = m._prepare_inputs(row)
            np.multiply(ul, self._a1[l], out=row)
            if self._has_noise[l]:
                self._noise[l, :n] = nl
            if dl is not None:
                self._dacn[l, :n] = dl

        stride = self._au.shape[1]
        if self._any_noise:
            noise, nstride = self._noise, stride
        else:
            noise, nstride = self._zero_row, 0
        if self._any_dacn:
            dacn, dstride = self._dacn, stride
        else:
            dacn, dstride = self._zero_row, 0

        st = self._collect_state()
        result = batch_kernel.run_batch_chunk(
            n=n,
            au=au,
            au_stride=stride,
            noise=noise,
            noise_stride=nstride,
            dac_noise=dacn,
            dacn_stride=dstride,
            dac_gain=self._dac_gain,
            p1=self._p1,
            b1=self._b1,
            p2=self._p2,
            a2=self._a2,
            b2=self._b2,
            swing=self._swing,
            comp_offset=self._c_off,
            comp_hysteresis=self._c_hys,
            state=st,
            cic_decimation=self._filter.cic.decimation,
            register_bits=self._filter.cic.register_bits,
            fir_flipped=self._flip,
            fir_decimation=self._filter.fir.decimation,
            qscale=self._qscale,
            output_bits=self._filter.params.output_bits,
        )
        self._restore_state(st)
        return result.codes[:B], result.clipped[:B]

    def _feed_fallback(self, u: np.ndarray):
        """Per-lane processing through the existing single-session stages.

        Exact by construction: each lane runs the same modulator loop
        dispatch (:meth:`~repro.sdm.modulator.SecondOrderSDM.simulate`'s
        choice between the compiled kernel and the reference loop) and
        :class:`~repro.dsp.decimator.DecimationFilter` the single
        session would, against the same chain state.
        """
        n, B = u.shape
        clipped = np.zeros(B, dtype=np.int64)
        lane_codes = []
        for l, c in enumerate(self.chains):
            m = c.chip.modulator
            out = m._run_prepared(*m._prepare_inputs(u[:, l]))
            clipped[l] = out.clipped_samples
            lane_codes.append(c.fpga.filter.process(out.bitstream).codes)
        widths = {codes.size for codes in lane_codes}
        if len(widths) != 1:  # pragma: no cover - lockstep guard
            raise ConfigurationError(
                "batch lanes fell out of decimation lockstep"
            )
        if lane_codes[0].size == 0:
            return np.zeros((B, 0), dtype=np.int64), clipped
        return np.stack(lane_codes, axis=0), clipped
