"""Streaming acquisition sessions: the chunked chip→FPGA→USB pipeline.

The paper's system is inherently streaming — the modulator, the SINC³+FIR
decimator and the USB link run continuously at 128 kS/s while the PC
consumes 1 kS/s words. :class:`AcquisitionSession` exposes exactly that
contract in software: feed bounded pressure (or voltage) chunks, receive
the decimated words they complete, and never hold more than one chunk of
modulator-rate data in memory. Modulator, CIC/FIR and framing state all
persist across chunk boundaries, so the concatenated chunked output is
*bit-identical* to the one-shot batch path for any split of the record
(:meth:`~repro.core.chain.ReadoutChain.record_pressure` is itself a thin
wrapper over a session).

The data path: without a fault injector, each chunk runs through a
one-lane :class:`~repro.batch.engine.BatchChainEngine` (the compiled
front end, ΣΔ, CIC and FIR fused in one C pass, the NumPy front end and
reference loop where a configuration needs them), then the FPGA's
post-filter tail and the real USB framer, decoder and sample stream.
With an injector it takes the chip -> bitstream ->
:meth:`~repro.daq.fpga.FPGAFilterBank.process` path, because the
``stuck_comparator`` fault rewrites the bitstream the fused kernel never
builds. Both leave the chain in the same state, so a chain moves
between them (or into a batch lane) bit-exactly at any chunk boundary.
Stage timers book the engine (or the chip) to ``modulator`` and the
tail and framing to ``fpga``.

Every session carries a :class:`PipelineTelemetry` that counts what each
stage consumed and produced (modulator samples in, bits out, words
filtered/suppressed, frames framed/decoded/lost, words delivered) and
accumulates per-stage wall time plus the peak chunk byte size — the
observability the batch path never had. The counters reconcile exactly:

* ``bits_out == mod_samples_in`` (the ΣΔ emits one bit per clock),
* ``mod_samples_in == R * (words_filtered - 1) + 1 + filter_remainder``
  with ``0 <= filter_remainder < R`` — the cascade emits word *w* at
  modulator sample ``R*(w-1) + 1`` (both stages produce an output on
  their first input, from zero-padded history), so ``words_filtered ==
  ceil(mod_samples_in / R)`` and the remainder counts samples consumed
  since the last word,
* ``frames_framed == frames_decoded + lost_frames`` on a lossless or
  merely lossy (non-corrupting) link,
* ``words_delivered == words_filtered - words_suppressed`` when nothing
  was lost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..daq.stream import SampleStream
from ..daq.usb import FrameDecoder
from ..faults.detection import QualityConfig, quality_mask
from .chain import ChainRecording

#: Pipeline stages, in dataflow order, as they appear in telemetry.
STAGES = ("synthesis", "modulator", "fpga", "decode", "ingest")


@dataclass
class PipelineTelemetry:
    """Per-stage counters and timings of one acquisition session.

    All counters are cumulative over the session's lifetime. Stage wall
    times land in :attr:`stage_seconds` under the :data:`STAGES` keys
    (``synthesis`` is filled by callers that generate the input field
    chunk-by-chunk, e.g. the streaming monitor).
    """

    #: Decimation factor R of the chain (modulator clocks per word).
    decimation_factor: int = 0
    #: Chunks fed so far.
    chunks: int = 0
    #: Modulator-rate input samples consumed.
    mod_samples_in: int = 0
    #: Bitstream bits produced by the modulator.
    bits_out: int = 0
    #: Modulator cycles in which an integrator clipped.
    clipped_samples: int = 0
    #: Decimated words out of the CIC+FIR cascade.
    words_filtered: int = 0
    #: Words dropped by the post-switch flush window.
    words_suppressed: int = 0
    #: USB frames emitted by the FPGA framer (including the final flush).
    frames_framed: int = 0
    #: Valid frames recovered by the host-side decoder.
    frames_decoded: int = 0
    #: Frames the decoder's sequence numbers say went missing.
    lost_frames: int = 0
    #: Frames rejected by CRC.
    crc_errors: int = 0
    #: Late-arriving frames the decoder dropped as stale (their slot in
    #: the stream was already counted lost — link reordering, replay
    #: overlap on a resumed connection).
    stale_frames: int = 0
    #: Bytes the decoder discarded while re-hunting sync (garbage or
    #: corrupt regions on the link).
    resync_bytes: int = 0
    #: Decimated words delivered to the consumer.
    words_delivered: int = 0
    #: Fault events the session's injector has applied so far (0 when no
    #: injector is wired — the counters then reconcile strictly).
    faults_injected: int = 0
    #: Largest single input chunk, in bytes (the memory high-water mark
    #: of the acquisition-rate data).
    peak_chunk_bytes: int = 0
    #: Wall time per pipeline stage [s].
    stage_seconds: dict[str, float] = field(
        default_factory=lambda: {stage: 0.0 for stage in STAGES}
    )

    def add_stage_seconds(self, stage: str, seconds: float) -> None:
        """Accumulate wall time against one pipeline stage."""
        if stage not in self.stage_seconds:
            raise ConfigurationError(
                f"unknown stage {stage!r}; expected one of {STAGES}"
            )
        self.stage_seconds[stage] += float(seconds)

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def filter_remainder(self) -> int:
        """Modulator samples consumed since the cascade's last word.

        The CIC and FIR stages each emit on their first input (from
        zero-padded history), so word *w* appears at modulator sample
        ``R*(w-1) + 1`` and after ``n`` samples the cascade holds
        ``n - R*(words - 1) - 1`` samples toward the next word.
        """
        if self.words_filtered == 0:
            return self.mod_samples_in
        return (
            self.mod_samples_in
            - self.decimation_factor * (self.words_filtered - 1)
            - 1
        )

    @property
    def frames_unaccounted(self) -> int:
        """Framed frames neither decoded nor seen missing by a later
        frame's sequence number — e.g. a frame dropped at the very end
        of a stream, which no gap can reveal. Conservation at this
        counter is what catches tail loss the sequence numbers cannot.
        """
        return self.frames_framed - self.frames_decoded - self.lost_frames

    def reconcile(
        self,
        lossless: bool | None = None,
        allow_unaccounted: bool | None = None,
    ) -> None:
        """Assert the stage counters agree with each other.

        Raises :class:`~repro.errors.ConfigurationError` on any
        inconsistency. ``lossless=True`` additionally requires that every
        filtered, unsuppressed word arrived (``words_delivered ==
        words_filtered - words_suppressed`` and no lost/CRC-errored
        frames); ``None`` (default) applies it automatically when the
        decoder saw no loss or corruption. ``allow_unaccounted=True``
        relaxes strict frame conservation to ``frames_unaccounted >= 0``
        for receivers that legitimately discard link bytes — injected
        tail faults, or a gateway shedding a slow consumer's queue;
        ``None`` (default) allows it exactly when faults were injected.
        """
        def require(ok: bool, what: str) -> None:
            if not ok:
                raise ConfigurationError(
                    f"telemetry inconsistency: {what} ({self})"
                )

        require(self.bits_out == self.mod_samples_in,
                "modulator must emit one bit per input sample")
        if self.decimation_factor > 0:
            if self.mod_samples_in == 0:
                require(self.words_filtered == 0,
                        "no words can be filtered from no samples")
            else:
                remainder = self.filter_remainder
                require(0 <= remainder < self.decimation_factor,
                        "decimator residue must be less than one output word")
        require(self.words_suppressed <= self.words_filtered,
                "cannot suppress more words than were filtered")
        if allow_unaccounted is None:
            allow_unaccounted = self.faults_injected > 0
        if allow_unaccounted:
            # An injected tail drop or truncation (or a shed ingest
            # chunk, on a gateway) can leave frames that no later
            # sequence number ever reports missing; they stay visible
            # as frames_unaccounted instead.
            require(self.frames_unaccounted >= 0,
                    "cannot decode or lose more frames than were framed")
        else:
            require(self.frames_unaccounted == 0,
                    "framed frames must be decoded or counted lost")
        if lossless is None:
            lossless = (
                self.lost_frames == 0
                and self.crc_errors == 0
                and self.stale_frames == 0
                and self.faults_injected == 0
                and not allow_unaccounted
            )
        if lossless:
            require(
                self.words_delivered
                == self.words_filtered - self.words_suppressed,
                "every filtered, unsuppressed word must be delivered",
            )

    @classmethod
    def aggregate(cls, parts: "list[PipelineTelemetry]") -> "PipelineTelemetry":
        """Sum counters across sessions into one fleet-wide view.

        Counters add, ``peak_chunk_bytes`` takes the maximum, and the
        decimation factor carries over only when every part agrees. The
        aggregate is a reporting view: the reconciliation identities are
        per-session invariants (the filter-remainder identity in
        particular does not survive summation), so reconcile the parts,
        then aggregate.
        """
        total = cls()
        factors = {p.decimation_factor for p in parts}
        if len(factors) == 1:
            total.decimation_factor = factors.pop()
        for p in parts:
            total.chunks += p.chunks
            total.mod_samples_in += p.mod_samples_in
            total.bits_out += p.bits_out
            total.clipped_samples += p.clipped_samples
            total.words_filtered += p.words_filtered
            total.words_suppressed += p.words_suppressed
            total.frames_framed += p.frames_framed
            total.frames_decoded += p.frames_decoded
            total.lost_frames += p.lost_frames
            total.crc_errors += p.crc_errors
            total.stale_frames += p.stale_frames
            total.resync_bytes += p.resync_bytes
            total.words_delivered += p.words_delivered
            total.faults_injected += p.faults_injected
            total.peak_chunk_bytes = max(
                total.peak_chunk_bytes, p.peak_chunk_bytes
            )
            for stage in STAGES:
                total.stage_seconds[stage] += p.stage_seconds[stage]
        return total

    def throughput_msps(self) -> float:
        """Modulator samples per second of pipeline wall time, in MS/s."""
        total = self.total_seconds
        return self.mod_samples_in / total / 1e6 if total > 0 else 0.0

    def describe(self) -> str:
        """Human-readable telemetry table (the CLI's live footer)."""
        lines = [
            "PipelineTelemetry",
            f"  chunks            : {self.chunks} "
            f"(peak {self.peak_chunk_bytes / 1024:.0f} KiB)",
            f"  modulator         : {self.mod_samples_in} samples in, "
            f"{self.bits_out} bits out, {self.clipped_samples} clipped",
            f"  decimator         : {self.words_filtered} words "
            f"(+{self.filter_remainder} samples in flight), "
            f"{self.words_suppressed} suppressed",
            f"  framing           : {self.frames_framed} framed, "
            f"{self.frames_decoded} decoded, {self.lost_frames} lost, "
            f"{self.crc_errors} CRC errors, {self.stale_frames} stale",
            f"  delivered         : {self.words_delivered} words",
        ]
        if self.faults_injected:
            lines.append(
                f"  faults            : {self.faults_injected} event(s) "
                f"injected, {self.frames_unaccounted} frame(s) unaccounted"
            )
        for stage in STAGES:
            seconds = self.stage_seconds[stage]
            if seconds > 0.0:
                lines.append(f"  t({stage:<9})      : {seconds * 1e3:.1f} ms")
        if self.total_seconds > 0:
            lines.append(
                f"  throughput        : {self.throughput_msps():.2f} MS/s"
            )
        return "\n".join(lines)


class AcquisitionSession:
    """One stateful streaming acquisition through a readout chain.

    Feed modulator-rate chunks with :meth:`feed_pressure` or
    :meth:`feed_voltage`; each call returns the decimated words that
    chunk completed (possibly empty — the decimator and the framer hold
    partial words/frames across boundaries). :meth:`finish` flushes the
    final partial USB frame; :meth:`recording` assembles the standard
    :class:`~repro.core.chain.ChainRecording`.

    Memory is O(chunk) at the modulator rate: only the caller's current
    chunk and the pipeline's transients exist at 128 kS/s. The delivered
    1 kS/s words accumulate (128x smaller), so even long sessions stay
    cheap.

    Parameters
    ----------
    chain:
        The :class:`~repro.core.chain.ReadoutChain` to stream through.
        The session shares the chain's chip and FPGA state (framer
        sequence numbers continue across sessions, as on hardware) but
        owns a fresh host-side decoder and sample stream.
    element:
        Element to select before the first chunk (default: keep the
        chain's current selection). Switching resets the decimation
        filter and starts the post-switch suppression window, exactly as
        the batch path does.
    faults:
        Optional :class:`~repro.faults.FaultInjector`. The session binds
        it to the chain, installs its hooks at every pipeline layer
        (pressure field, loop input, bitstream, decimated words, USB
        payload) and restores the hooks on :meth:`finish`. With ``None``
        (default) the pipeline is bit-identical to an un-instrumented
        session.
    quality:
        Detector thresholds for the recording's per-sample quality mask
        (default :class:`~repro.faults.QualityConfig`).
    """

    def __init__(
        self,
        chain,
        element: int | None = None,
        faults=None,
        quality: QualityConfig | None = None,
    ):
        self.chain = chain
        if element is not None:
            chain.chip.select_element(element)
            chain.fpga.select_element(element)
        self.element = chain.chip.selected_element
        self._decoder = FrameDecoder()
        self._stream = SampleStream(
            sample_rate_hz=chain.output_rate_hz,
            samples_per_frame=chain.fpga.encoder.samples_per_frame,
        )
        self.telemetry = PipelineTelemetry(
            decimation_factor=chain.fpga.filter.params.total_decimation
        )
        self._kind: str | None = None
        self._finished = False
        self._quality_config = quality or QualityConfig()
        self.faults = faults
        # Without an injector nothing taps the bitstream, so every chunk
        # runs the fused one-lane chain; an injector keeps the chip ->
        # bitstream -> FPGA path its stuck_comparator fault needs.
        self._engine = None
        if faults is None:
            from ..batch.engine import BatchChainEngine

            self._engine = BatchChainEngine([chain])
        else:
            faults.bind(chain)
            self._prev_loop_hook = chain.chip.loop_input_hook
            self._prev_word_hook = chain.fpga.word_hook
            chain.chip.loop_input_hook = faults.apply_loop_input
            chain.fpga.word_hook = faults.apply_words

    @classmethod
    def batched(cls, chains, **kwargs):
        """Open a batched session over ``chains`` (one lane per chain).

        The batched mode advances every lane in lockstep through the
        fused chip->sigma-delta->CIC->FIR->decode kernel of
        :mod:`repro.batch`; per-lane codes and telemetry are
        bit-identical to ``len(chains)`` independent single sessions.
        Keyword arguments are forwarded to
        :class:`~repro.batch.session.BatchAcquisitionSession`.
        """
        from ..batch import BatchAcquisitionSession

        return BatchAcquisitionSession(chains, **kwargs)

    # -- feeding -----------------------------------------------------------

    def feed_pressure(self, element_pressures_pa: np.ndarray) -> np.ndarray:
        """Convert one membrane-pressure chunk; return completed words.

        ``element_pressures_pa`` is (n_chunk_samples, n_elements) at the
        modulator clock — the same layout the batch path takes, just
        bounded.
        """
        chunk = np.asarray(element_pressures_pa, dtype=float)
        if chunk.ndim != 2:
            raise ConfigurationError(
                "expected (n_samples, n_elements) pressures"
            )
        return self._feed("pressure", chunk)

    def feed_voltage(self, differential_voltage_v: np.ndarray) -> np.ndarray:
        """Convert one test-voltage chunk (Fig. 7 path); return words."""
        chunk = np.asarray(differential_voltage_v, dtype=float)
        if chunk.ndim != 1:
            raise ConfigurationError("voltage chunk must be 1-D")
        return self._feed("voltage", chunk)

    def _feed(self, kind: str, chunk: np.ndarray) -> np.ndarray:
        if self._finished:
            raise ConfigurationError(
                "session already finished; start a new AcquisitionSession"
            )
        if self._kind is None:
            self._kind = kind
        elif self._kind != kind:
            raise ConfigurationError(
                f"cannot mix acquisition paths in one session "
                f"(started with {self._kind!r}, got {kind!r})"
            )
        if chunk.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)

        tm = self.telemetry
        chip, fpga = self.chain.chip, self.chain.fpga
        n = chunk.shape[0]
        tm.chunks += 1
        tm.peak_chunk_bytes = max(tm.peak_chunk_bytes, chunk.nbytes)

        t0 = time.perf_counter()
        if self._engine is not None:
            if kind == "pressure":
                codes, clipped = self._engine.feed_pressure([chunk])
            else:
                codes, clipped = self._engine.feed_voltage([chunk])
            clipped = int(clipped[0])
        else:
            if kind == "pressure":
                mod_out = chip.acquire_pressure(self.faults.apply_array(chunk))
            else:
                mod_out = chip.acquire_voltage(chunk)
            clipped = mod_out.clipped_samples
        t1 = time.perf_counter()
        tm.add_stage_seconds("modulator", t1 - t0)
        tm.mod_samples_in += n
        tm.bits_out += n
        tm.clipped_samples += clipped

        words_before = fpga.words_filtered
        suppressed_before = fpga.words_suppressed
        frames_before = fpga.encoder.frames_emitted
        if self._engine is not None:
            payload = fpga.frame(codes[0], n)
        else:
            bitstream = self.faults.apply_bitstream(mod_out.bitstream)
            payload = fpga.process(bitstream.astype(np.int64))
        t2 = time.perf_counter()
        tm.add_stage_seconds("fpga", t2 - t1)
        tm.words_filtered += fpga.words_filtered - words_before
        tm.words_suppressed += fpga.words_suppressed - suppressed_before
        tm.frames_framed += fpga.encoder.frames_emitted - frames_before
        if self.faults is not None:
            payload = self.faults.apply_payload(payload)
            tm.faults_injected = self.faults.events_applied

        return self._deliver(payload, t2)

    def _deliver(
        self, payload: bytes, t_start: float, final: bool = False
    ) -> np.ndarray:
        """Decode and ingest one payload; return this element's new words."""
        tm = self.telemetry
        frames = self._decoder.feed(payload)
        if final:
            # End of stream: drain any frames stalled behind a corrupted
            # length claim (a no-op on clean pipelines).
            frames += self._decoder.finalize()
        t3 = time.perf_counter()
        tm.add_stage_seconds("decode", t3 - t_start)
        tm.frames_decoded = self._decoder.frames_decoded
        tm.lost_frames = self._decoder.lost_frames
        tm.crc_errors = self._decoder.crc_errors
        tm.stale_frames = self._decoder.stale_frames
        tm.resync_bytes = self._decoder.resync_bytes

        self._stream.ingest(frames)
        tm.add_stage_seconds("ingest", time.perf_counter() - t3)
        mine = [f.samples for f in frames if f.element == self.element]
        if not mine:
            return np.zeros(0, dtype=np.int64)
        delivered = np.concatenate(mine).astype(np.int64)
        tm.words_delivered += delivered.size
        return delivered

    # -- completion --------------------------------------------------------

    def finish(self) -> np.ndarray:
        """Flush the partial USB frame; return the words it delivers.

        Idempotent: later calls return an empty array. Samples still
        inside the decimation cascade (:attr:`PipelineTelemetry.
        filter_remainder` of them) stay there — fewer than one output
        word's worth, exactly as in the hardware.
        """
        if self._finished:
            return np.zeros(0, dtype=np.int64)
        self._finished = True
        tm = self.telemetry
        t0 = time.perf_counter()
        frames_before = self.chain.fpga.encoder.frames_emitted
        payload = self.chain.fpga.flush()
        t1 = time.perf_counter()
        tm.add_stage_seconds("fpga", t1 - t0)
        tm.frames_framed += (
            self.chain.fpga.encoder.frames_emitted - frames_before
        )
        if self.faults is not None:
            payload = self.faults.apply_payload(payload)
            tm.faults_injected = self.faults.events_applied
        delivered = self._deliver(payload, t1, final=True)
        if self.faults is not None:
            # Hand the chain back fault-free.
            self.chain.chip.loop_input_hook = self._prev_loop_hook
            self.chain.fpga.word_hook = self._prev_word_hook
        return delivered

    def recording(self) -> ChainRecording:
        """Finish (if needed) and assemble the session's recording.

        Bit-identical to what the batch path returns for the same input,
        regardless of how the input was chunked.
        """
        self.finish()
        codes = self._stream.samples(self.element).astype(np.int64)
        return ChainRecording(
            codes=codes,
            sample_rate_hz=self.chain.output_rate_hz,
            element=self.element,
            lost_frames=self._decoder.lost_frames,
            crc_errors=self._decoder.crc_errors,
            lost_samples=self._stream.lost_samples(self.element),
            quality=quality_mask(
                codes,
                gaps=self._stream.gaps(self.element),
                config=self._quality_config,
            ),
        )

    # -- introspection -----------------------------------------------------

    @property
    def words_available(self) -> int:
        """Words delivered for the selected element so far."""
        return self._stream.sample_count(self.element)

    @property
    def stream(self) -> SampleStream:
        """The session's host-side sample stream (gap accounting etc.)."""
        return self._stream

    @property
    def decoder(self) -> FrameDecoder:
        """The session's USB frame decoder (loss/CRC/resync counters)."""
        return self._decoder

    @property
    def finished(self) -> bool:
        return self._finished
