"""Per-device gateway state: demux -> decode -> ingest, with backpressure.

A :class:`DeviceSession` is the gateway-side half of one device's
acquisition and outlives any single TCP connection: a device that drops
and resumes re-attaches to the same session, so its decoder
expectation, sample stream and telemetry are continuous across
reconnects.

The ingest path is split in two so a slow pipeline can never stall the
event loop's reader, and a sick connection can never stall a healthy
one:

* the connection's reader calls :meth:`DeviceSession.demux` inline —
  O(bytes) splitting of control messages (handled immediately: a
  heartbeat must never queue behind data) from data bytes;
* data bytes go through a **bounded** queue (:meth:`offer`) to the
  gateway's :class:`~repro.gateway.batchplane.BatchPlane`, which
  decodes them with :meth:`stage_pending` + :meth:`commit_staged`.
  When the queue is full the chunk is **shed, counted, never
  silently**: ``chunks_shed`` / ``bytes_shed`` record the drop, and the
  sequence numbers of the frames inside the shed bytes surface
  downstream as explicit ``lost_frames`` gaps the moment the next
  surviving frame arrives.

Telemetry is the session's :class:`~repro.core.session.PipelineTelemetry`
restricted to the host-side stages; ``frames_framed`` arrives with the
device's BYE, which closes frame conservation end-to-end.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from ..core.session import PipelineTelemetry
from ..daq import batchdecode
from ..daq.stream import SampleStream
from ..daq.usb import FrameDecoder
from ..errors import ConfigurationError
from .protocol import ControlDemux, ControlEvent
from .watchdog import ConnectionState, Watchdog


def checked_queue_chunks(queue_chunks: int) -> int:
    """An ingest-queue bound in chunks, refused below one slot."""
    if queue_chunks < 1:
        raise ConfigurationError("ingest queue needs >= 1 chunk slot")
    return int(queue_chunks)


class DeviceSession:
    """Gateway-side state for one device id (survives reconnects).

    Parameters
    ----------
    device_id:
        The u32 identity from the device's HELLO.
    queue_chunks:
        Ingest-queue depth in chunks; the explicit backpressure bound.
    watchdog:
        Liveness state machine (injectable for tests).
    output_rate_hz:
        Decimated word rate, for stream timestamps.
    samples_per_frame:
        Nominal full-frame payload size of the device link, forwarded
        to the :class:`~repro.daq.stream.SampleStream` so frame-loss
        gaps are booked as full frames even when the surviving frame
        after the loss is a chunk's short flush frame.
    clock:
        Monotonic time source for latency stamps.
    """

    def __init__(
        self,
        device_id: int,
        queue_chunks: int = 64,
        watchdog: Watchdog | None = None,
        output_rate_hz: float = 1000.0,
        samples_per_frame: int | None = None,
        clock=time.monotonic,
    ):
        queue_chunks = checked_queue_chunks(queue_chunks)
        self.device_id = int(device_id)
        self._clock = clock
        self._demux = ControlDemux()
        self.decoder = FrameDecoder()
        self.stream = SampleStream(
            sample_rate_hz=output_rate_hz,
            samples_per_frame=samples_per_frame,
        )
        self.watchdog = watchdog or Watchdog()
        self.telemetry = PipelineTelemetry()
        self.queue: asyncio.Queue[bytes] = asyncio.Queue(
            maxsize=queue_chunks
        )
        #: Optional per-frame hook ``(sequence, t_decoded_s)`` — the
        #: latency probe of the benchmark harness.
        self.frame_hook = None
        #: Frames the device framed but whose bytes never produced a
        #: decoded frame *or* a sequence-gap record: a tail loss right
        #: at the BYE boundary (last frame dropped or truncated by a
        #: fault, with no later frame whose sequence jump would reveal
        #: it). Booked into ``lost_frames`` when :meth:`finalize`
        #: closes the books against the BYE's lifetime count.
        self.tail_lost_frames = 0
        # Link counters.
        self.bytes_in = 0
        self.chunks_shed = 0
        self.bytes_shed = 0
        self.queue_depth_peak = 0
        self.acks_sent = 0
        self.reconnects = 0
        self.connections = 0
        #: Device-reported conservation counts (from BYE).
        self.bye_seen = False
        self.frames_reported = 0
        self.faults_reported = 0
        self.finalized = False

    # -- identity / liveness -------------------------------------------------

    @property
    def state(self) -> ConnectionState:
        return self.watchdog.state

    @property
    def last_acked(self) -> int | None:
        """Highest in-order sequence received (what ACK advertises)."""
        expected = self.decoder.expected_sequence
        if expected is None:
            return None
        return (expected - 1) % 0x10000

    def fresh_start(self) -> None:
        """Non-resume HELLO: the device begins a new stream at seq 0."""
        self.decoder.expect(0)

    # -- reader side ---------------------------------------------------------

    def demux(self, data: bytes) -> tuple[bytes, list[ControlEvent]]:
        """Split one socket read; any traffic beats the watchdog."""
        self.bytes_in += len(data)
        self.watchdog.beat()
        return self._demux.feed(data)

    def end_of_stream(self) -> tuple[bytes, list[ControlEvent]]:
        """The connection's bytes ended: release what the demux holds."""
        return self._demux.finish()

    def offer(self, chunk: bytes) -> bool:
        """Queue data bytes for the decode plane; shed (counted) when full."""
        if not chunk:
            return True
        try:
            self.queue.put_nowait(chunk)
        except asyncio.QueueFull:
            self.chunks_shed += 1
            self.bytes_shed += len(chunk)
            return False
        self.queue_depth_peak = max(
            self.queue_depth_peak, self.queue.qsize()
        )
        return True

    def note_bye(self, event: ControlEvent) -> None:
        """Record the device's end-of-stream conservation counts."""
        self.bye_seen = True
        self.frames_reported = int(event.frames_framed)
        self.faults_reported = int(event.faults_injected)

    # -- batch-plane side ----------------------------------------------------

    def take_queued(self) -> list[bytes]:
        """Drain every queued chunk now (the batch plane's intake)."""
        chunks: list[bytes] = []
        while True:
            try:
                chunks.append(self.queue.get_nowait())
            except asyncio.QueueEmpty:
                return chunks

    def stage_pending(self) -> batchdecode.Staged | None:
        """Drain the queue and scan the tiled prefix; ``None`` if idle.

        Chunk merging is exact: ``FrameDecoder.feed`` is chunk-boundary
        invariant (its buffer carries split frames across feeds), so
        decoding the concatenation of this tick's chunks produces the
        same frames, counters and buffer state as feeding them one by
        one to a plain decoder — the property tests assert this
        bit-for-bit.
        """
        chunks = self.take_queued()
        if not chunks:
            return None
        tm = self.telemetry
        t0 = time.perf_counter()
        data = chunks[0] if len(chunks) == 1 else b"".join(chunks)
        staged = batchdecode.stage(self.decoder, data)
        tm.add_stage_seconds("decode", time.perf_counter() - t0)
        tm.chunks += len(chunks)
        tm.peak_chunk_bytes = max(
            tm.peak_chunk_bytes, max(len(c) for c in chunks)
        )
        return staged

    def commit_staged(self, staged: batchdecode.Staged) -> int:
        """Book one tick's CRC-checked candidates; returns frames."""
        tm = self.telemetry
        t0 = time.perf_counter()
        now = self._clock() if self.frame_hook is not None else 0.0
        frames = batchdecode.commit(
            self.decoder, staged, self.stream, self.frame_hook, now
        )
        tm.add_stage_seconds("ingest", time.perf_counter() - t0)
        self._sync_counters()
        return frames

    def finalize(self) -> None:
        """End of stream: drain the demux tail and the decoder.

        With a BYE in hand this also closes frame conservation exactly:
        any frames the device framed that neither arrived nor left a
        sequence gap (a fault ate the stream tail) are booked as
        ``tail_lost_frames`` — without this, every run whose last frame
        died ended with ``frames_unaccounted: 1``.

        Idempotent; called on BYE, on DEAD, and at server shutdown.
        """
        if self.finalized:
            return
        self.finalized = True
        tail = self._demux.drain()
        if tail:
            self.stream.ingest(self.decoder.feed(tail))
        self.stream.ingest(self.decoder.finalize())
        if self.bye_seen:
            missing = self.frames_reported - (
                self.decoder.frames_decoded + self.decoder.lost_frames
            )
            if missing > 0:
                # Not clamped to zero on the other side: if counters ever
                # over-booked, reconcile must still catch the negative.
                self.tail_lost_frames = missing
        self._sync_counters()

    def _sync_counters(self) -> None:
        self.telemetry.book_link(self.decoder, self.stream)
        self.telemetry.lost_frames += self.tail_lost_frames

    # -- accounting ----------------------------------------------------------

    def telemetry_view(self) -> PipelineTelemetry:
        """Telemetry with frame conservation closed against the BYE.

        With a BYE, ``frames_framed`` is the device's own lifetime count
        and ``frames_unaccounted`` is exact. Without one (device died),
        the device-side total is unknown; the view closes the books at
        what the sequence numbers proved (``decoded + lost``), so the
        per-session identities still reconcile.
        """
        tm = self.telemetry
        if self.bye_seen:
            tm.frames_framed = self.frames_reported
        else:
            tm.frames_framed = tm.frames_decoded + tm.lost_frames
        tm.faults_injected = self.faults_reported
        return tm

    def reconcile(self) -> None:
        """Assert this session's counters agree (the telemetry gate).

        Frame conservation is the gateway's identity; the word-level
        (``lossless``) identity needs device-side filter counters the
        wire does not carry, so it is skipped here.
        """
        view = self.telemetry_view()
        view.reconcile(
            lossless=False,
            allow_unaccounted=(
                self.faults_reported > 0 or self.chunks_shed > 0
            )
            or None,
        )

    def metrics(self) -> dict:
        """JSON-able per-connection counters for the metrics endpoint."""
        view = self.telemetry_view()
        return {
            "device_id": self.device_id,
            "state": self.state.value,
            "bytes_in": self.bytes_in,
            "frames_framed": view.frames_framed,
            "frames_decoded": view.frames_decoded,
            "frames_lost": view.lost_frames,
            "frames_stale": view.stale_frames,
            "frames_unaccounted": view.frames_unaccounted,
            "crc_errors": view.crc_errors,
            "resync_bytes": view.resync_bytes,
            "words_delivered": view.words_delivered,
            "chunks_shed": self.chunks_shed,
            "bytes_shed": self.bytes_shed,
            "queue_depth": self.queue.qsize(),
            "queue_depth_peak": self.queue_depth_peak,
            "heartbeats": self._demux.heartbeats,
            "acks_sent": self.acks_sent,
            "watchdog_trips": self.watchdog.trips,
            "reconnects": self.reconnects,
            "faults_reported": self.faults_reported,
            "bye_seen": self.bye_seen,
        }

    def codes(self, element: int = 0) -> np.ndarray:
        """Decoded words of one element, as the monitor-side record."""
        return self.stream.samples(element).astype(np.int64)
