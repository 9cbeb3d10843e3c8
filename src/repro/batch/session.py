"""Batched streaming acquisition: many concurrent sessions, one pass.

:class:`BatchAcquisitionSession` is the batched sibling of
:class:`~repro.core.session.AcquisitionSession`: ``B`` independent
readout chains (one per concurrent subject/element) advance in lockstep
through the fused kernel of :mod:`repro.batch.kernel`, and every lane
keeps its own :class:`~repro.core.session.PipelineTelemetry` whose
counters reconcile exactly.

Differences from the single-session path, by design:

* **Framing is elided.** Words go straight from the decimator to the
  per-lane sample buffer; the USB encoder/decoder pair — a lossless
  identity on a clean pipeline — is skipped, and the frame counters are
  synthesized from the same ``samples_per_frame`` grouping the encoder
  would have used, so ``frames_framed == frames_decoded`` holds exactly
  and matches what a single session reports for the same input.
* **Fault injection is not supported** (``faults=`` must stay ``None``);
  degraded-link studies remain on the single-session path where the
  wire format actually exists. The per-lane
  :attr:`~repro.daq.fpga.FPGAFilterBank.word_hook` *is* honored, and
  hook output is saturated to the i16 rails exactly as the FPGA does.

Everything else matches bit-for-bit: any chunk split, any batch size,
and the per-lane fallback (no native library) all produce the same codes a
single :class:`~repro.core.session.AcquisitionSession` produces per
lane.
"""

from __future__ import annotations

import time

import numpy as np

from numpy.polynomial import polyutils as _pu

from ..array.element import ArrayElement
from ..array.mux import AnalogMultiplexer
from ..core.chain import ChainRecording
from ..core.session import PipelineTelemetry
from ..dsp.fixed_point import saturate
from ..errors import ConfigurationError
from ..faults.detection import QualityConfig, quality_mask
from ..mems.membrane import MembraneSensor
from ..sdm.frontend import CapacitiveFrontEnd
from . import kernel as batch_kernel
from .engine import BatchChainEngine


class BatchAcquisitionSession:
    """Lockstep streaming acquisition across ``B`` readout chains.

    Parameters
    ----------
    chains:
        Distinct :class:`~repro.core.chain.ReadoutChain` objects, one
        per lane (see :class:`~repro.batch.engine.BatchChainEngine` for
        the compatibility requirements).
    element:
        Element to select on every lane before the first chunk
        (default: keep each chain's current selection).
    quality:
        Detector thresholds for the recordings' quality masks.
    faults:
        Unsupported in batched mode; must be ``None``.
    """

    def __init__(
        self,
        chains,
        element: int | None = None,
        quality: QualityConfig | None = None,
        faults=None,
    ):
        if faults is not None:
            raise ConfigurationError(
                "fault injection is not supported in batched mode; run "
                "faulted acquisitions through AcquisitionSession"
            )
        self.engine = BatchChainEngine(chains)
        self.chains = self.engine.chains
        if element is not None:
            for c in self.chains:
                c.chip.select_element(element)
                c.fpga.select_element(element)
        self.elements = [c.chip.selected_element for c in self.chains]
        for c in self.chains:
            if c.fpga.encoder.pending_samples:
                raise ConfigurationError(
                    "chain has a partial USB frame pending; finish the "
                    "previous session before batching"
                )
        self.telemetries = [
            PipelineTelemetry(
                decimation_factor=c.fpga.filter.params.total_decimation
            )
            for c in self.chains
        ]
        self._codes: list[list[np.ndarray]] = [[] for _ in self.chains]
        self._pending = [0 for _ in self.chains]
        self._spf = [c.fpga.encoder.samples_per_frame for c in self.chains]
        self._quality_config = quality or QualityConfig()
        self._kind: str | None = None
        self._finished = False
        self._fast_front = self._build_fast_front()

    def _build_fast_front(self):
        """Per-lane constants for the fused C front end, or None.

        The compiled front end covers the stock chip composition: a
        plain mux routing one :class:`~repro.array.element.ArrayElement`
        whose membrane transfer is the shared Chebyshev interpolant,
        into the stock charge front end. Anything exotic (subclasses,
        per-lane membrane fits, loop-input hooks) falls back to the
        per-lane NumPy front end, which stays bit-identical — just
        slower.
        """
        B = self.lanes
        fit = None
        sel = np.zeros(B, dtype=np.int64)
        n_el = np.zeros(B, dtype=np.int64)
        cscale = np.zeros(B)
        coff = np.zeros(B)
        inj_amt = np.zeros(B)
        ref = np.zeros(B)
        fb = np.zeros(B)
        exc = np.zeros(B)
        for l, c in enumerate(self.chains):
            chip = c.chip
            mux = chip.mux
            fe = chip.frontend
            if (
                type(mux) is not AnalogMultiplexer
                or type(fe) is not CapacitiveFrontEnd
            ):
                return None
            el = mux.array.elements[mux._selected]
            if type(el) is not ArrayElement:
                return None
            s = el.sensor
            if type(s) is not MembraneSensor:
                return None
            if fit is None:
                fit = s._fit
                p_min, p_max = s._p_min, s._p_max
            elif s._fit is not fit or s._p_min != p_min or s._p_max != p_max:
                # Lanes with distinct membrane transfers (the shared
                # precompute cache makes one fit object the norm).
                return None
            sel[l] = mux._selected
            n_el[l] = mux.array.n_elements
            cscale[l] = el.capacitance_scale
            coff[l] = el.offset_cap_f
            inj_amt[l] = mux.charge_injection_c / 2.5
            ref[l] = fe.reference_cap_f
            fb[l] = fe.feedback_cap_f
            exc[l] = fe.excitation_fraction
        if fit is None:  # pragma: no cover - B >= 1 always
            return None
        dom_off, dom_scl = _pu.mapparms(fit.domain, fit.window)
        det = self.engine.deterministic_lanes
        return {
            "coef": np.ascontiguousarray(fit.coef, dtype=float),
            "dom_off": float(dom_off),
            "dom_scl": float(dom_scl),
            "p_min": float(p_min),
            "p_max": float(p_max),
            "sel": sel,
            "n_el": n_el,
            "cscale": cscale,
            "coff": coff,
            "inj_amt": inj_amt,
            "ref": ref,
            "fb": fb,
            "exc": exc,
            # Fold the modulator input gain only for lanes whose prep is
            # the identity; other lanes receive raw u for _prepare_inputs.
            "a1_eff": np.where(det, self.engine._a1[:B], 1.0),
            "folded": det,
        }

    def _fused_frontend(self, fields, n: int) -> bool:
        """Try the compiled front end + chain kernel staging for a chunk.

        Returns True when the lanes' ``au`` rows (and ``u_last``) were
        staged by the C front end; False means the caller must use the
        per-lane NumPy path (which also raises the exact errors for
        out-of-range or non-positive inputs).
        """
        ff = self._fast_front
        if ff is None or not self.engine.uses_kernel:
            return False
        B = self.lanes
        pbase = np.zeros(B, dtype=np.uint64)
        pstep = np.zeros(B, dtype=np.int64)
        inj = np.zeros(B)
        for l, c in enumerate(self.chains):
            chip = c.chip
            mux = chip.mux
            if chip.loop_input_hook is not None:
                return False
            if mux._selected != ff["sel"][l]:
                # Element switched behind the session's back; let the
                # per-lane path handle (and re-validate) it.
                return False
            arr = fields[l]
            if (
                arr.dtype != np.float64
                or arr.ndim != 2
                or arr.shape[1] != ff["n_el"][l]
                or arr.strides[0] % 8
                or arr.strides[1] % 8
            ):
                return False
            pbase[l] = arr.ctypes.data + int(ff["sel"][l]) * arr.strides[1]
            pstep[l] = arr.strides[0] // 8
            if mux._just_switched:
                inj[l] = ff["inj_amt"][l]
        au = self.engine.ensure_buffers(n)
        u_last = np.empty(B)
        ok = batch_kernel.run_frontend_chunk(
            n=n,
            pbase=pbase,
            pstep=pstep,
            au=au,
            au_stride=au.shape[1],
            cheb_coef=ff["coef"],
            dom_off=ff["dom_off"],
            dom_scl=ff["dom_scl"],
            p_min=ff["p_min"],
            p_max=ff["p_max"],
            cap_scale=ff["cscale"],
            cap_offset=ff["coff"],
            injection=inj,
            ref_cap=ff["ref"],
            fb_cap=ff["fb"],
            excitation=ff["exc"],
            a1=ff["a1_eff"],
            u_last=u_last,
        )
        if not ok:
            # Domain or positivity violation somewhere in the batch: the
            # front end is pure (no state was touched), so replay through
            # the per-lane path to raise the exact per-lane error.
            return False
        for c in self.chains:
            c.chip.mux._just_switched = False
        self._staged_u_last = u_last
        return True

    @property
    def lanes(self) -> int:
        return len(self.chains)

    @property
    def finished(self) -> bool:
        return self._finished

    # -- feeding -----------------------------------------------------------

    def feed_pressure(self, element_pressure_fields) -> list[np.ndarray]:
        """Convert one membrane-pressure chunk per lane.

        ``element_pressure_fields`` is either a sequence of ``B``
        ``(n_samples, n_elements)`` arrays (one field per lane/subject)
        or a single ``(n_samples, B, n_elements)`` array. Every lane
        must receive the same number of samples. Returns the list of
        words each lane's cascade completed this chunk.
        """
        if isinstance(element_pressure_fields, np.ndarray):
            element_pressure_fields = np.asarray(
                element_pressure_fields, dtype=float
            )
            if element_pressure_fields.ndim != 3:
                raise ConfigurationError(
                    "batched pressure input must be (n, B, n_elements) "
                    "or a sequence of B (n, n_elements) fields"
                )
            fields = [
                element_pressure_fields[:, l, :] for l in range(self.lanes)
            ]
        else:
            fields = [np.asarray(f, dtype=float) for f in element_pressure_fields]
        if len(fields) != self.lanes:
            raise ConfigurationError(
                f"expected {self.lanes} pressure fields, got {len(fields)}"
            )
        sizes = {f.shape[0] for f in fields}
        if len(sizes) != 1:
            raise ConfigurationError(
                "all lanes must receive the same number of samples"
            )
        for f in fields:
            if f.ndim != 2:
                raise ConfigurationError(
                    "each lane's field must be (n_samples, n_elements)"
                )
        return self._feed("pressure", fields)

    def feed_voltage(self, differential_voltages_v) -> list[np.ndarray]:
        """Convert one test-voltage chunk per lane (``(n, B)`` array)."""
        u = np.asarray(differential_voltages_v, dtype=float)
        if u.ndim != 2 or u.shape[1] != self.lanes:
            raise ConfigurationError(
                "batched voltage input must be (n_samples, n_lanes)"
            )
        return self._feed("voltage", [u[:, l] for l in range(self.lanes)])

    def _feed(self, kind: str, lane_inputs) -> list[np.ndarray]:
        if self._finished:
            raise ConfigurationError(
                "session already finished; start a new "
                "BatchAcquisitionSession"
            )
        if self._kind is None:
            self._kind = kind
        elif self._kind != kind:
            raise ConfigurationError(
                f"cannot mix acquisition paths in one session "
                f"(started with {self._kind!r}, got {kind!r})"
            )
        n = lane_inputs[0].shape[0]
        if n == 0:
            return [np.zeros(0, dtype=np.int64) for _ in self.chains]

        B = self.lanes
        t0 = time.perf_counter()
        if kind == "pressure" and self._fused_frontend(lane_inputs, n):
            # Compiled front end staged a1*u (deterministic lanes) or
            # raw u directly into the kernel buffers — no (n, B) copies.
            codes, clipped = self.engine.run_prepared(
                n,
                folded=self._fast_front["folded"],
                u_last=self._staged_u_last,
            )
        else:
            # Front end per lane: route, convert to loop input, honor
            # hooks.
            u = np.empty((n, B))
            for l, c in enumerate(self.chains):
                chip = c.chip
                if kind == "pressure":
                    caps = chip.mux.routed_capacitance_f(lane_inputs[l])
                    ul = chip.frontend.loop_input(caps)
                else:
                    ul = chip.voltage_input.loop_input(lane_inputs[l])
                if chip.loop_input_hook is not None:
                    ul = chip.loop_input_hook(ul)
                u[:, l] = ul
            codes, clipped = self.engine.feed_loop_inputs(u)
        t1 = time.perf_counter()
        mod_dt = (t1 - t0) / B

        delivered: list[np.ndarray] = []
        for l, c in enumerate(self.chains):
            tm = self.telemetries[l]
            tm.chunks += 1
            tm.peak_chunk_bytes = max(
                tm.peak_chunk_bytes, lane_inputs[l].nbytes
            )
            tm.add_stage_seconds("modulator", mod_dt)
            tm.mod_samples_in += n
            tm.bits_out += n
            tm.clipped_samples += int(clipped[l])

            fpga = c.fpga
            lane_codes = codes[l]
            fpga.samples_in += n
            fpga.words_filtered += lane_codes.size
            tm.words_filtered += lane_codes.size
            if fpga._suppress > 0:
                drop = min(fpga._suppress, lane_codes.size)
                lane_codes = lane_codes[drop:]
                fpga._suppress -= drop
                fpga.words_suppressed += drop
                tm.words_suppressed += drop
            if lane_codes.size and fpga.word_hook is not None:
                lane_codes = np.asarray(fpga.word_hook(lane_codes))
            # Same rail handling as FPGAFilterBank.process: saturate to
            # the i16 sample range, never wrap.
            lane_codes = saturate(lane_codes, 16).astype(np.int64)

            # Framing elided: synthesize the frame counters from the
            # encoder's grouping so the reconcile identities hold.
            whole, self._pending[l] = divmod(
                self._pending[l] + lane_codes.size, self._spf[l]
            )
            tm.frames_framed += whole
            tm.frames_decoded += whole
            if lane_codes.size:
                self._codes[l].append(lane_codes)
                tm.words_delivered += lane_codes.size
            delivered.append(lane_codes)
        fpga_dt = (time.perf_counter() - t1) / B
        for tm in self.telemetries:
            tm.add_stage_seconds("fpga", fpga_dt)
        return delivered

    # -- dynamic lane membership -------------------------------------------

    def attach_lane(self, chain) -> int:
        """Join a device's chain as a new lane mid-session.

        The gateway-facing lifecycle: devices connect while the fleet
        is already streaming. The chain joins at the current chunk
        boundary (its decimation phases must match the batch's — a
        fresh chain joins while the batch sits at a decimation
        boundary, see :meth:`BatchChainEngine.attach_lane`) and gets
        its own telemetry, code buffer and synthesized frame counters,
        exactly as a founding lane would. Returns the new lane index.
        """
        if self._finished:
            raise ConfigurationError(
                "session already finished; start a new "
                "BatchAcquisitionSession"
            )
        if chain.fpga.encoder.pending_samples:
            raise ConfigurationError(
                "chain has a partial USB frame pending; finish the "
                "previous session before batching"
            )
        lane = self.engine.attach_lane(chain)
        self.chains = self.engine.chains
        self.elements.append(chain.chip.selected_element)
        self.telemetries.append(
            PipelineTelemetry(
                decimation_factor=chain.fpga.filter.params.total_decimation
            )
        )
        self._codes.append([])
        self._pending.append(0)
        self._spf.append(chain.fpga.encoder.samples_per_frame)
        self._fast_front = self._build_fast_front()
        return lane

    def detach_lane(self, lane: int):
        """Drop one lane mid-session; returns ``(chain, recording)``.

        The device disconnected: its chain leaves the batch at the
        current chunk boundary and can keep running solo (or rejoin
        later) bit-exactly. The returned recording closes the lane's
        books — the final partial frame is counted exactly as
        :meth:`finish` would have.
        """
        chain = self.engine.detach_lane(lane)
        self.chains = self.engine.chains
        tm = self.telemetries.pop(lane)
        if self._pending[lane]:
            tm.frames_framed += 1
            tm.frames_decoded += 1
        self._pending.pop(lane)
        self._spf.pop(lane)
        element = self.elements.pop(lane)
        chunks = self._codes.pop(lane)
        codes = (
            np.concatenate(chunks).astype(np.int64)
            if chunks
            else np.zeros(0, dtype=np.int64)
        )
        self._fast_front = self._build_fast_front()
        recording = ChainRecording(
            codes=codes,
            sample_rate_hz=chain.output_rate_hz,
            element=element,
            lost_frames=0,
            crc_errors=0,
            lost_samples=0,
            quality=quality_mask(
                codes, gaps=[], config=self._quality_config
            ),
        )
        return chain, recording

    # -- completion --------------------------------------------------------

    def finish(self) -> None:
        """Close the session: count each lane's final partial frame.

        Idempotent. No new words appear (the decimation cascades keep
        their in-flight residue, exactly like the hardware), so unlike
        :meth:`AcquisitionSession.finish` there is nothing to return.
        """
        if self._finished:
            return
        self._finished = True
        for l, tm in enumerate(self.telemetries):
            if self._pending[l]:
                tm.frames_framed += 1
                tm.frames_decoded += 1
                self._pending[l] = 0

    def codes(self, lane: int) -> np.ndarray:
        """All words delivered for one lane so far."""
        if self._codes[lane]:
            return np.concatenate(self._codes[lane]).astype(np.int64)
        return np.zeros(0, dtype=np.int64)

    def recording(self, lane: int) -> ChainRecording:
        """Finish (if needed) and assemble one lane's recording.

        Bit-identical to the recording a single
        :class:`~repro.core.session.AcquisitionSession` produces for
        the same lane input, regardless of batch size or chunk split.
        """
        self.finish()
        codes = self.codes(lane)
        return ChainRecording(
            codes=codes,
            sample_rate_hz=self.chains[lane].output_rate_hz,
            element=self.elements[lane],
            lost_frames=0,
            crc_errors=0,
            lost_samples=0,
            quality=quality_mask(
                codes, gaps=[], config=self._quality_config
            ),
        )

    def recordings(self) -> list[ChainRecording]:
        """Recordings for every lane, in lane order."""
        return [self.recording(l) for l in range(self.lanes)]

    def aggregate_telemetry(self) -> PipelineTelemetry:
        """Fleet-wide counter view (reconcile the lanes individually)."""
        return PipelineTelemetry.aggregate(self.telemetries)
