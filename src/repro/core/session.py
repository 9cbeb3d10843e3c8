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

One implementation, :class:`LaneSession`, serves every session: per lane
it owns the :class:`~repro.batch.engine.BatchChainEngine` call (compiled
front end, ΣΔ, CIC and FIR fused in one C pass; NumPy front end and
reference loop where a configuration needs them), the telemetry, the
FPGA's post-filter tail and a link to the host — a :class:`UsbLink`
(the chain's framer, a fresh decoder and sample stream, an optional
payload fault hook) or a :class:`CountedLink` (no wire; synthesized
frame counters). :class:`AcquisitionSession` is one lane with a USB
link, :class:`~repro.batch.session.BatchAcquisitionSession` ``B`` lanes
with counted links. A fault injector rides the same path (array faults
on the chunk, loop-input and bitstream taps in the engine, word faults
in the tail, link faults on the wire), and the chain objects hold all
state, so a chain moves between sessions (or into a batch lane)
bit-exactly at any chunk boundary. Stage timers book the engine to
``modulator``, tail and framing to ``fpga``, the host side to
``decode`` and ``ingest``.

Every session carries a :class:`PipelineTelemetry` that counts what each
stage consumed and produced (modulator samples in, bits out, words
filtered/suppressed, frames framed/decoded/lost, words delivered) and
accumulates per-stage wall time plus the peak chunk byte size — the
observability the batch path never had. The counters reconcile exactly:

* ``bits_out == mod_samples_in`` (the ΣΔ emits one bit per clock),
* per filter run — from the session's opening, or from a filter reset
  (an element switch), to the next reset — a run that starts ``p``
  samples past a word boundary and consumes ``n`` samples holds ``w``
  words with ``p + n == R * (w + [p > 0] - 1) + 1 + residue`` and ``0
  <= residue < R``: the cascade emits a word on every sample at phase
  0 (both stages produce an output on their first input, from
  zero-padded history), so ``w == ceil((p + n) / R) - [p > 0]`` and
  the residue counts samples consumed since the last word,
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
    #: Decimated words delivered to the host (every element's).
    words_delivered: int = 0
    #: Fault events the session's injector has applied so far (0 when no
    #: injector is wired — the counters then reconcile strictly).
    faults_injected: int = 0
    #: Largest single input chunk, in bytes (the memory high-water mark
    #: of the acquisition-rate data).
    peak_chunk_bytes: int = 0
    #: Cascade phase (:attr:`~repro.dsp.decimator.DecimationFilter.phase`)
    #: at the start of the current filter run: the chain's phase when
    #: the session opened, 0 after a filter reset.
    filter_phase: int = 0
    #: Earlier filter runs, each ended by a filter reset (an element
    #: switch), as ``(start phase, samples, words)``.
    filter_runs: list[tuple[int, int, int]] = field(default_factory=list)
    #: Wall time per pipeline stage [s].
    stage_seconds: dict[str, float] = field(
        default_factory=lambda: {stage: 0.0 for stage in STAGES}
    )

    @classmethod
    def for_chain(cls, chain) -> "PipelineTelemetry":
        """Empty telemetry for a session on ``chain``."""
        filt = chain.fpga.filter
        return cls(
            decimation_factor=filt.params.total_decimation,
            filter_phase=filt.phase,
        )

    def add_stage_seconds(self, stage: str, seconds: float) -> None:
        """Accumulate wall time against one pipeline stage."""
        if stage not in self.stage_seconds:
            raise ConfigurationError(
                f"unknown stage {stage!r}; expected one of {STAGES}"
            )
        self.stage_seconds[stage] += float(seconds)

    def book_link(self, decoder, stream) -> None:
        """Copy a host link's lifetime books: the decoder's frame
        counters and the words its stream took in."""
        self.frames_decoded = decoder.frames_decoded
        self.lost_frames = decoder.lost_frames
        self.crc_errors = decoder.crc_errors
        self.stale_frames = decoder.stale_frames
        self.resync_bytes = decoder.resync_bytes
        self.words_delivered = stream.samples_ingested

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def _current_run(self) -> tuple[int, int, int]:
        """``(start phase, samples, words)`` of the current filter run."""
        return (
            self.filter_phase,
            self.mod_samples_in - sum(run[1] for run in self.filter_runs),
            self.words_filtered - sum(run[2] for run in self.filter_runs),
        )

    def book_filter_reset(self) -> None:
        """Close the current filter run: the cascade was reset (an
        element switch), so the next sample starts a run at phase 0."""
        self.filter_runs.append(self._current_run())
        self.filter_phase = 0

    def _residue(self, phase: int, samples: int, words: int) -> int:
        """Samples a filter run holds toward its next word.

        The run's samples plus the ``phase`` before them, less those
        up to and including its last word (the word at the boundary
        before a run that starts mid-word included). In ``[0, R)``
        exactly when ``words`` is what the cascade emits; negative
        when a run without samples holds words.
        """
        seen = phase + samples
        words += phase > 0
        if seen == 0:
            return -words
        return seen - self.decimation_factor * (words - 1) - 1

    @property
    def filter_remainder(self) -> int:
        """Modulator samples consumed since the cascade's last word.

        The CIC and FIR stages each emit on their first input (from
        zero-padded history), so in a filter run that starts at phase 0
        word *w* appears at sample ``R*(w-1) + 1`` and after ``n``
        samples the cascade holds ``n - R*(words - 1) - 1`` samples
        toward the next word.
        """
        return self._residue(*self._current_run())

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
            for run in self.filter_runs + [self._current_run()]:
                require(0 <= self._residue(*run) < self.decimation_factor,
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


def _empty() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


def _recording(
    codes, rate_hz, element, quality, lost_frames=0, crc_errors=0,
    lost_samples=0, gaps=(),
) -> ChainRecording:
    """The one :class:`~repro.core.chain.ChainRecording` builder."""
    return ChainRecording(
        codes=codes,
        sample_rate_hz=rate_hz,
        element=element,
        lost_frames=lost_frames,
        crc_errors=crc_errors,
        lost_samples=lost_samples,
        quality=quality_mask(codes, gaps=gaps, config=quality),
    )


class UsbLink:
    """One lane's USB wire: the chain's framer -> a fresh decoder -> stream.

    ``payload_hook`` (a fault injector's link faults) rewrites each
    payload on its way from the framer to the decoder. Only frames of
    ``element`` are returned as this lane's words; the telemetry books,
    and the stream keeps, every element's (an element switched
    mid-session).
    """

    def __init__(self, chain, element: int, payload_hook=None):
        self.element = element
        self.rate_hz = chain.output_rate_hz
        self.payload_hook = payload_hook
        self.decoder = FrameDecoder()
        self.stream = SampleStream(
            sample_rate_hz=chain.output_rate_hz,
            samples_per_frame=chain.fpga.encoder.samples_per_frame,
        )

    def deliver(self, fpga, codes, n: int, tm) -> np.ndarray:
        """Tail and frame one chunk's cascade words; return the words
        the host received for this element."""
        return self._send(fpga, tm, lambda: fpga.frame(codes, n))

    def finish(self, fpga, tm) -> np.ndarray:
        """Flush the partial frame; return the words it delivers."""
        return self._send(fpga, tm, fpga.flush, final=True)

    def _send(self, fpga, tm, emit, final: bool = False) -> np.ndarray:
        t0 = time.perf_counter()
        framed = fpga.encoder.frames_emitted
        payload = emit()
        tm.frames_framed += fpga.encoder.frames_emitted - framed
        tm.add_stage_seconds("fpga", time.perf_counter() - t0)
        return self.receive(payload, tm, final)

    def receive(self, payload: bytes, tm, final: bool = False) -> np.ndarray:
        """Carry one payload to the host; return this element's words."""
        t0 = time.perf_counter()
        if self.payload_hook is not None:
            payload = self.payload_hook(payload)
        d = self.decoder
        frames = d.feed(payload)
        if final:
            # End of stream: drain any frames stalled behind a corrupted
            # length claim (a no-op on clean pipelines).
            frames += d.finalize()
        t1 = time.perf_counter()
        tm.add_stage_seconds("decode", t1 - t0)
        self.stream.ingest(frames)
        tm.add_stage_seconds("ingest", time.perf_counter() - t1)
        tm.book_link(d, self.stream)
        mine = [f.samples for f in frames if f.element == self.element]
        return np.concatenate(mine).astype(np.int64) if mine else _empty()

    def recording(self, quality: QualityConfig | None = None):
        stream = self.stream
        return _recording(
            stream.samples(self.element).astype(np.int64),
            self.rate_hz,
            self.element,
            quality,
            lost_frames=self.decoder.lost_frames,
            crc_errors=self.decoder.crc_errors,
            lost_samples=stream.lost_samples(self.element),
            gaps=stream.gaps(self.element),
        )


class CountedLink:
    """One lane without a wire: tailed words go straight to a buffer.

    The USB encoder/decoder pair is a lossless identity on a clean
    pipeline, so it is skipped; the frame counters are synthesized from
    the encoder's ``samples_per_frame`` grouping, so ``frames_framed ==
    frames_decoded`` and both match what a USB link reports for the same
    input. The chain's encoder is never used, hence it must hold no
    partial frame.
    """

    def __init__(self, chain, element: int):
        if chain.fpga.encoder.pending_samples:
            raise ConfigurationError(
                "chain has a partial USB frame pending; finish the "
                "previous session before batching"
            )
        self.element = element
        self.rate_hz = chain.output_rate_hz
        self._spf = chain.fpga.encoder.samples_per_frame
        self._pending = 0
        self._words: list[np.ndarray] = []

    def deliver(self, fpga, codes, n: int, tm) -> np.ndarray:
        t0 = time.perf_counter()
        words = fpga.tail(codes, n).astype(np.int64)
        tm.words_delivered += words.size
        whole, self._pending = divmod(self._pending + words.size, self._spf)
        tm.frames_framed += whole
        tm.frames_decoded += whole
        if words.size:
            self._words.append(words)
        tm.add_stage_seconds("fpga", time.perf_counter() - t0)
        return words

    def finish(self, fpga, tm) -> np.ndarray:
        """Count the final partial frame (once)."""
        if self._pending:
            tm.frames_framed += 1
            tm.frames_decoded += 1
            self._pending = 0
        return _empty()

    def codes(self) -> np.ndarray:
        if self._words:
            return np.concatenate(self._words).astype(np.int64)
        return _empty()

    def recording(self, quality: QualityConfig | None = None):
        return _recording(self.codes(), self.rate_hz, self.element, quality)


class LaneSession:
    """Lanes advanced in lockstep by one engine, each with its own link.

    The shared body of :class:`AcquisitionSession` and
    :class:`~repro.batch.session.BatchAcquisitionSession`: element
    selection, the per-chunk engine call, telemetry booking, the FPGA
    tail (inside each lane's link) and completion. A subclass picks the
    link in :meth:`_open_link`.
    """

    #: Fault injector wired into the (single) lane, or None.
    faults = None

    def __init__(self, chains, element: int | None, quality):
        # Imported here: repro.batch imports this module.
        from ..batch.engine import BatchChainEngine

        self.engine = BatchChainEngine(chains)
        self.chains = self.engine.chains
        if element is not None:
            for c in self.chains:
                c.chip.select_element(element)
                c.fpga.select_element(element)
        self.links = [self._open_link(c) for c in self.chains]
        self.telemetries = [PipelineTelemetry.for_chain(c) for c in self.chains]
        # Each lane's FPGA filter-reset count as last booked.
        self._resets = [c.fpga.filter_resets for c in self.chains]
        self._quality = quality
        self._kind: str | None = None
        self._finished = False

    def _open_link(self, chain):
        raise NotImplementedError

    @property
    def lanes(self) -> int:
        return len(self.chains)

    @property
    def elements(self) -> list[int]:
        return [link.element for link in self.links]

    @property
    def finished(self) -> bool:
        return self._finished

    def _check_open(self) -> None:
        if self._finished:
            raise ConfigurationError(
                f"session already finished; start a new "
                f"{type(self).__name__}"
            )

    def _feed(self, kind: str, inputs) -> list[np.ndarray]:
        """Advance every lane by one chunk; return each lane's words."""
        self._check_open()
        if self._kind is None:
            self._kind = kind
        elif self._kind != kind:
            raise ConfigurationError(
                f"cannot mix acquisition paths in one session "
                f"(started with {self._kind!r}, got {kind!r})"
            )
        if inputs[0].shape[0] == 0:
            return [_empty() for _ in self.chains]
        faults = self.faults
        if faults is None:
            return self._advance(kind, inputs)
        with faults.wired(self.chains[0]):
            if kind == "pressure":
                inputs = [faults.apply_array(inputs[0])]
            delivered = self._advance(kind, inputs)
        self.telemetries[0].faults_injected = faults.events_applied
        return delivered

    def _advance(self, kind: str, inputs) -> list[np.ndarray]:
        n = inputs[0].shape[0]
        t0 = time.perf_counter()
        if kind == "pressure":
            codes, clipped = self.engine.feed_pressure(inputs)
        else:
            codes, clipped = self.engine.feed_voltage(inputs)
        mod_dt = (time.perf_counter() - t0) / len(self.chains)
        delivered = []
        for l, c in enumerate(self.chains):
            tm = self.telemetries[l]
            if c.fpga.filter_resets != self._resets[l]:
                # The element switched between chunks.
                tm.book_filter_reset()
                self._resets[l] = c.fpga.filter_resets
            tm.chunks += 1
            tm.peak_chunk_bytes = max(tm.peak_chunk_bytes, inputs[l].nbytes)
            tm.add_stage_seconds("modulator", mod_dt)
            tm.mod_samples_in += n
            tm.bits_out += n
            tm.clipped_samples += int(clipped[l])
            suppressed = c.fpga.words_suppressed
            words = self.links[l].deliver(c.fpga, codes[l], n, tm)
            tm.words_filtered += codes[l].size
            tm.words_suppressed += c.fpga.words_suppressed - suppressed
            delivered.append(words)
        return delivered

    def _finish(self) -> list[np.ndarray]:
        """Close every lane's link once; return the words each delivers.

        No new words appear from the cascades: samples still inside the
        decimation filter (:attr:`PipelineTelemetry.filter_remainder`
        of them) stay there — fewer than one output word's worth,
        exactly as in the hardware.
        """
        if self._finished:
            return [_empty() for _ in self.chains]
        self._finished = True
        delivered = []
        for c, link, tm in zip(self.chains, self.links, self.telemetries):
            delivered.append(link.finish(c.fpga, tm))
        if self.faults is not None:
            self.telemetries[0].faults_injected = self.faults.events_applied
        return delivered


class AcquisitionSession(LaneSession):
    """One stateful streaming acquisition through a readout chain.

    Feed modulator-rate chunks with :meth:`feed_pressure` or
    :meth:`feed_voltage`; each call returns the decimated words that
    chunk completed (possibly empty — the decimator and the framer hold
    partial words/frames across boundaries). :meth:`finish` flushes the
    final partial USB frame; :meth:`recording` assembles the standard
    :class:`~repro.core.chain.ChainRecording`. The one-lane
    :class:`LaneSession` with a :class:`UsbLink`.

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
        it to the chain and wires its hooks at every pipeline layer
        (pressure field, loop input, bitstream, decimated words, USB
        payload); the chain's own hooks come back when each feed
        returns or raises. With ``None`` (default) the pipeline is
        bit-identical to an un-instrumented session.
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
        self.faults = faults
        if faults is not None:
            faults.bind(chain)
        super().__init__([chain], element, quality)
        self.element = self.links[0].element
        self.telemetry = self.telemetries[0]

    def _open_link(self, chain) -> UsbLink:
        hook = None if self.faults is None else self.faults.apply_payload
        return UsbLink(chain, chain.chip.selected_element, hook)

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
        return self._feed("pressure", [chunk])[0]

    def feed_voltage(self, differential_voltage_v: np.ndarray) -> np.ndarray:
        """Convert one test-voltage chunk (Fig. 7 path); return words."""
        chunk = np.asarray(differential_voltage_v, dtype=float)
        if chunk.ndim != 1:
            raise ConfigurationError("voltage chunk must be 1-D")
        return self._feed("voltage", [chunk])[0]

    # -- completion --------------------------------------------------------

    def finish(self) -> np.ndarray:
        """Flush the partial USB frame; return the words it delivers.

        Idempotent: later calls return an empty array.
        """
        return self._finish()[0]

    def recording(self) -> ChainRecording:
        """Finish (if needed) and assemble the session's recording.

        Bit-identical to what the batch path returns for the same input,
        regardless of how the input was chunked.
        """
        self.finish()
        return self.links[0].recording(self._quality)

    # -- introspection -----------------------------------------------------

    @property
    def stream(self) -> SampleStream:
        """The session's host-side sample stream (gap accounting etc.)."""
        return self.links[0].stream

    @property
    def decoder(self) -> FrameDecoder:
        """The session's USB frame decoder (loss/CRC/resync counters)."""
        return self.links[0].decoder
