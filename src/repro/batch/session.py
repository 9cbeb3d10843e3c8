"""Batched streaming acquisition: many concurrent sessions, one pass.

:class:`BatchAcquisitionSession` is the batched sibling of
:class:`~repro.core.session.AcquisitionSession`: ``B`` independent
readout chains (one per concurrent subject/element) advance in lockstep
through the fused kernel of :mod:`repro.batch.kernel`, staged by the
same :class:`~repro.batch.engine.BatchChainEngine` a solo session runs
with one lane, and every lane keeps its own
:class:`~repro.core.session.PipelineTelemetry` whose counters reconcile
exactly.

Differences from the single-session path, by design:

* **Framing is elided.** Words go straight from the decimator to the
  per-lane sample buffer; the USB encoder/decoder pair — a lossless
  identity on a clean pipeline — is skipped, and the frame counters are
  synthesized from the same ``samples_per_frame`` grouping the encoder
  would have used, so ``frames_framed == frames_decoded`` holds exactly
  and matches what a single session reports for the same input.
* **Fault injection is not supported** (``faults=`` must stay ``None``);
  degraded-link studies remain on the single-session path where the
  wire format actually exists. Each lane's words do go through its
  FPGA's post-filter tail (:meth:`~repro.daq.fpga.FPGAFilterBank.tail`:
  counters, post-switch suppression, ``word_hook``, i16 saturation).

Everything else matches bit-for-bit: any chunk split, any batch size,
and the per-lane fallback (no native library) all produce the same codes a
single :class:`~repro.core.session.AcquisitionSession` produces per
lane.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.chain import ChainRecording
from ..core.session import PipelineTelemetry
from ..errors import ConfigurationError
from ..faults.detection import QualityConfig, quality_mask
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
        if kind == "pressure":
            codes, clipped = self.engine.feed_pressure(lane_inputs)
        else:
            codes, clipped = self.engine.feed_voltage(lane_inputs)
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
            suppressed = fpga.words_suppressed
            lane_codes = fpga.tail(codes[l], n).astype(np.int64)
            tm.words_filtered += codes[l].size
            tm.words_suppressed += fpga.words_suppressed - suppressed

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
