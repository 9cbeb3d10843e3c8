"""The acquisition gateway: one asyncio service, many device streams.

:class:`GatewayServer` accepts any number of concurrent TCP device
connections speaking the gateway wire protocol
(:mod:`repro.gateway.protocol`): a HELLO handshake, then USB-format
data frames interleaved with DLE heartbeats, closed by a BYE. Each
device id owns a :class:`~repro.gateway.connection.DeviceSession` that
survives reconnects, so a device that loses its socket resumes from its
last acknowledged sequence instead of losing data.

Robustness structure:

* **Isolation** — every connection has its own reader task, decoder
  and bounded queue, and is one lane of the shared
  :class:`~repro.gateway.batchplane.BatchPlane`; a sick or slow
  connection degrades only itself (its queue sheds, counted) while
  healthy connections run untouched.
* **Watchdog** — a single ticker walks every session's
  :class:`~repro.gateway.watchdog.Watchdog`: DEGRADED connections are
  probed with a DLE, RECONNECTING ones lose their socket but keep
  state, DEAD ones are finalized (their telemetry stays visible).
* **Telemetry** — :meth:`metrics` exposes per-connection and
  fleet-wide counters; per-session
  :meth:`~repro.gateway.connection.DeviceSession.reconcile` asserts the
  conservation identities, and the fleet view is their
  :meth:`~repro.core.session.PipelineTelemetry.aggregate`. An optional
  side listener serves the same JSON to any TCP client (a
  ``/metrics``-style scrape).
"""

from __future__ import annotations

import asyncio
import contextlib
import json

from ..core.session import PipelineTelemetry
from ..errors import GatewayError
from .batchplane import BatchPlane
from .connection import DeviceSession, checked_queue_chunks
from .protocol import ControlDemux, ControlEvent, heartbeat, pack_ack
from .watchdog import ConnectionState, Watchdog

#: Socket read size; also the decode chunk granularity. Large enough
#: that a bursty sender costs one wakeup per socket buffer, not per
#: 4 KiB slice; the ingest queue bound is in chunks, so the byte bound
#: scales with it.
_READ_CHUNK = 65536


class GatewayServer:
    """Fault-tolerant multiplexer for framed device streams.

    Parameters
    ----------
    host / port:
        Bind address; port 0 picks an ephemeral port (see
        :attr:`port` after :meth:`start`).
    queue_chunks:
        Per-connection ingest-queue bound (chunks of one socket read
        each, up to 64 KiB).
    hello_timeout_s:
        How long a fresh socket may dawdle before its HELLO.
    watchdog_config:
        ``(degraded_after_s, reconnecting_after_s, dead_after_s)`` for
        every connection's watchdog.
    tick_s:
        Watchdog sweep period.
    metrics_port:
        When not ``None``, also listen there and serve the
        :meth:`metrics` JSON to any connection (0 = ephemeral).
    output_rate_hz:
        Decimated word rate of the devices' streams.
    samples_per_frame:
        Nominal full-frame payload size of the device links (the
        encoders' ``samples_per_frame``), so frame-loss gaps are booked
        as full frames even across chunk flush boundaries. ``None``
        keeps the legacy follower-size estimate.
    flush_bytes / max_latency_s:
        Batch-plane flush policy: tick when this many bytes are
        pending, or this long after the first pending byte, whichever
        comes first.
    """

    #: Every connection decodes through the shared
    #: :class:`~repro.gateway.batchplane.BatchPlane` (the label the
    #: metrics payload reports).
    decode_plane = "batch"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_chunks: int = 64,
        hello_timeout_s: float = 5.0,
        watchdog_config: tuple[float, float, float] = (2.0, 5.0, 15.0),
        tick_s: float = 0.25,
        metrics_port: int | None = None,
        output_rate_hz: float = 1000.0,
        samples_per_frame: int | None = None,
        flush_bytes: int = 64 * 1024,
        max_latency_s: float = 0.002,
    ):
        self.host = host
        self.port = int(port)
        self.queue_chunks = checked_queue_chunks(queue_chunks)
        self.hello_timeout_s = float(hello_timeout_s)
        self.watchdog_config = watchdog_config
        self.tick_s = float(tick_s)
        self.metrics_port = metrics_port
        self.output_rate_hz = float(output_rate_hz)
        self.samples_per_frame = samples_per_frame
        self.flush_bytes = int(flush_bytes)
        self.max_latency_s = float(max_latency_s)
        self.plane: BatchPlane | None = None
        self.sessions: dict[int, DeviceSession] = {}
        #: Server-level counters.
        self.connections_accepted = 0
        self.handshake_failures = 0
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._ticker: asyncio.Task | None = None
        self._writers: dict[int, asyncio.StreamWriter] = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind, start the watchdog ticker; returns ``(host, port)``."""
        if self._server is not None:
            raise GatewayError("gateway already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._serve_metrics, self.host, self.metrics_port
            )
            self.metrics_port = (
                self._metrics_server.sockets[0].getsockname()[1]
            )
        self.plane = BatchPlane(
            flush_bytes=self.flush_bytes,
            max_latency_s=self.max_latency_s,
        )
        self.plane.start()
        self._ticker = asyncio.create_task(self._tick())
        return self.host, self.port

    async def stop(self) -> None:
        """Stop listening, stop every task, finalize every session."""
        for server in (self._server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._server = self._metrics_server = None
        if self._ticker is not None:
            self._ticker.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._ticker
            self._ticker = None
        for writer in list(self._writers.values()):
            writer.close()
        self._writers.clear()
        if self.plane is not None:
            # Final tick: whatever the readers queued is decoded before
            # the books close.
            await self.plane.stop()
        for session in self.sessions.values():
            session.finalize()

    async def drain(self, timeout_s: float = 5.0) -> bool:
        """Wait until every ingest queue has been decoded empty (True)
        or time out.

        Event-driven: the batch plane's ``idle`` event is set the moment
        no lane has queued bytes left, so drain returns promptly instead
        of polling on a sleep loop. With no plane (not started) nothing
        can be queued.
        """
        if self.plane is None:
            return True
        try:
            await asyncio.wait_for(self.plane.idle.wait(), timeout=timeout_s)
            return True
        except asyncio.TimeoutError:
            return False

    # -- connection handling -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_accepted += 1
        session: DeviceSession | None = None
        try:
            session = await self._handshake(reader, writer)
            if session is None:
                return
            await self._pump(session, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # socket loss: the watchdog/resume path owns recovery
        finally:
            # Only the *current* connection may mark the session
            # disconnected — a device can reconnect-and-resume before
            # its old handler observes the EOF, and that stale handler
            # must not downgrade the revived session.
            if (
                session is not None
                and self._writers.get(session.device_id) is writer
            ):
                del self._writers[session.device_id]
                if not session.bye_seen:
                    session.watchdog.disconnected()
            writer.close()
            with contextlib.suppress(
                ConnectionError, asyncio.IncompleteReadError, OSError
            ):
                await writer.wait_closed()

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> DeviceSession | None:
        """Wait for HELLO, attach (or create) the device's session."""
        probe = ControlDemux()  # throwaway until identity is known
        hello: ControlEvent | None = None
        pending = b""
        deadline = asyncio.get_running_loop().time() + self.hello_timeout_s
        while hello is None:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                self.handshake_failures += 1
                return None
            try:
                data = await asyncio.wait_for(
                    reader.read(_READ_CHUNK), timeout=remaining
                )
            except asyncio.TimeoutError:
                self.handshake_failures += 1
                return None
            if not data:
                self.handshake_failures += 1
                return None
            data_bytes, events = probe.feed(data)
            pending += data_bytes
            for event in events:
                if event.kind == "hello":
                    hello = event
                    break

        session = self.sessions.get(hello.device_id)
        if session is None or session.state is ConnectionState.DEAD:
            # New device — or a dead one returning: its old state was
            # closed out, so it starts a fresh stream either way.
            session = DeviceSession(
                device_id=hello.device_id,
                queue_chunks=self.queue_chunks,
                watchdog=Watchdog(*self.watchdog_config),
                output_rate_hz=self.output_rate_hz,
                samples_per_frame=self.samples_per_frame,
            )
            self._attach(session)
            if not hello.resume:
                session.fresh_start()
        elif hello.resume:
            session.reconnects += 1
            session.watchdog.revive()
            # Catch the decoder up before ACKing, so the resume point
            # reflects every byte already received.
            self.plane.flush_lane(session)
        else:
            # Same id, fresh stream: the device restarted. Close the old
            # books and start over in place.
            session.finalize()
            old_session = session
            old_hook = session.frame_hook
            session = DeviceSession(
                device_id=hello.device_id,
                queue_chunks=self.queue_chunks,
                watchdog=Watchdog(*self.watchdog_config),
                output_rate_hz=self.output_rate_hz,
                samples_per_frame=self.samples_per_frame,
            )
            session.frame_hook = old_hook
            # Drop the restarted stream's undecoded backlog.
            self.plane.detach(old_session)
            self._attach(session)
            session.fresh_start()
        session.connections += 1
        self._writers[session.device_id] = writer
        # The ACK completes the handshake: it tells a resuming device
        # where to replay from (and a fresh one that we are listening).
        await self._send_ack(session, writer)
        # Bytes that followed HELLO in the same read belong to the
        # session's stream.
        if pending:
            self._ingest(session, session.demux(pending), writer)
        # Any control messages the throwaway demux still holds split?
        # Its buffer is part of `pending`'s continuation — hand it over.
        tail = probe.drain()
        if tail:
            self._ingest(session, session.demux(tail), writer)
        return session

    def _attach(self, session: DeviceSession) -> None:
        """Register a session and make it a decode-plane lane."""
        self.sessions[session.device_id] = session
        self.plane.attach(session)

    def _ingest(
        self,
        session: DeviceSession,
        demuxed: tuple[bytes, list[ControlEvent]],
        writer: asyncio.StreamWriter,
    ) -> None:
        """Reader-side: act on one demuxed read's control, queue its data."""
        data_bytes, events = demuxed
        for event in events:
            if event.kind == "heartbeat":
                # DLE poll: answer with the cumulative ACK.
                self._queue_ack(session, writer)
            elif event.kind == "bye":
                session.note_bye(event)
            # Mid-stream HELLO/ACK frames are protocol noise; their
            # bytes were already counted by the demux.
        if session.offer(data_bytes):
            self.plane.notify(session, len(data_bytes))

    async def _pump(
        self,
        session: DeviceSession,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while data := await reader.read(_READ_CHUNK):
                self._ingest(session, session.demux(data), writer)
        except (ConnectionError, OSError):
            # A reset can follow the BYE: a client that closes with our
            # ACKs unread makes its kernel answer with an RST.
            pass
        if self._writers.get(session.device_id) is writer:
            # End of this connection's bytes: a claim the stream never
            # completed must not hold back what followed it (a BYE
            # behind a truncated last frame). A stale handler skips
            # this — the demux already carries its successor's bytes.
            self._ingest(session, session.end_of_stream(), writer)
        if session.bye_seen:
            # Clean close: nothing more can arrive for this lane, so
            # decode its queue now (one plane-wide tick) rather than at
            # the deadline, then close the books.
            if not session.queue.empty():
                self.plane.flush(cause="close")
            session.finalize()

    # -- control plane -------------------------------------------------------

    async def _send_ack(
        self, session: DeviceSession, writer: asyncio.StreamWriter
    ) -> None:
        writer.write(pack_ack(session.last_acked))
        session.acks_sent += 1
        with contextlib.suppress(ConnectionError, OSError):
            await writer.drain()

    def _queue_ack(
        self, session: DeviceSession, writer: asyncio.StreamWriter
    ) -> None:
        with contextlib.suppress(ConnectionError, OSError):
            writer.write(pack_ack(session.last_acked))
            session.acks_sent += 1

    async def _tick(self) -> None:
        """The watchdog sweep: probe, abandon or bury silent sessions."""
        while True:
            await asyncio.sleep(self.tick_s)
            for session in list(self.sessions.values()):
                if session.finalized:
                    continue
                before = session.state
                state = session.watchdog.check()
                if state is before:
                    continue
                writer = self._writers.get(session.device_id)
                if state is ConnectionState.DEGRADED and writer is not None:
                    # Probe: a live device answers traffic with traffic.
                    with contextlib.suppress(ConnectionError, OSError):
                        writer.write(heartbeat())
                elif state is ConnectionState.RECONNECTING:
                    # Abandon the socket, keep the state for resume.
                    if writer is not None:
                        writer.close()
                elif state is ConnectionState.DEAD:
                    session.finalize()

    # -- telemetry -----------------------------------------------------------

    def fleet_telemetry(self) -> PipelineTelemetry:
        """Aggregate of every session's reconciled telemetry view."""
        return PipelineTelemetry.aggregate(
            [s.telemetry_view() for s in self.sessions.values()]
        )

    def reconcile(self) -> None:
        """Assert every session's conservation identities."""
        for session in self.sessions.values():
            session.reconcile()

    def metrics(self) -> dict:
        """Per-connection and fleet-wide counters (the scrape payload)."""
        connections = {
            str(device_id): session.metrics()
            for device_id, session in sorted(self.sessions.items())
        }
        fleet = self.fleet_telemetry()
        states = [s.state for s in self.sessions.values()]
        return {
            "server": {
                "connections_accepted": self.connections_accepted,
                "handshake_failures": self.handshake_failures,
                "decode_plane": self.decode_plane,
                "sessions": len(self.sessions),
                "healthy": sum(
                    1 for s in states if s is ConnectionState.HEALTHY
                ),
                "degraded": sum(
                    1 for s in states if s is ConnectionState.DEGRADED
                ),
                "reconnecting": sum(
                    1 for s in states if s is ConnectionState.RECONNECTING
                ),
                "dead": sum(1 for s in states if s is ConnectionState.DEAD),
            },
            "fleet": {
                "frames_framed": fleet.frames_framed,
                "frames_decoded": fleet.frames_decoded,
                "frames_lost": fleet.lost_frames,
                "frames_stale": fleet.stale_frames,
                "frames_unaccounted": fleet.frames_unaccounted,
                "crc_errors": fleet.crc_errors,
                "resync_bytes": fleet.resync_bytes,
                "words_delivered": fleet.words_delivered,
                "chunks_shed": sum(
                    s.chunks_shed for s in self.sessions.values()
                ),
                "bytes_shed": sum(
                    s.bytes_shed for s in self.sessions.values()
                ),
                "watchdog_trips": sum(
                    s.watchdog.trips for s in self.sessions.values()
                ),
                "reconnects": sum(
                    s.reconnects for s in self.sessions.values()
                ),
            },
            "batch_plane": (
                self.plane.metrics() if self.plane is not None else None
            ),
            "connections": connections,
        }

    async def _serve_metrics(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            writer.write(json.dumps(self.metrics()).encode() + b"\n")
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
