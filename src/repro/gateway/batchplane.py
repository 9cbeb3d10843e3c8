"""The gateway's shared decode plane: fleet-wide micro-batched decoding.

Decoding each connection's chunks alone would make every chunk pay the
full Python frame-parse cost and the event loop one task wakeup per
chunk. The :class:`BatchPlane` decodes every connection of a gateway
from **one** scheduler task that runs a tick loop:

1. **Drain fleet-wide** — every armed session's queued chunks are taken
   at once and merged (exact: the frame decoder is chunk-boundary
   invariant).
2. **Deframe + CRC in batch** — each session's tiled prefix is scanned
   with NumPy (:func:`repro.daq.batchdecode.stage`) and *all* sessions'
   frame candidates are CRC-checked together, one native call per
   frame length (:func:`repro.daq.batchdecode.crc_check`), so the
   per-byte Python CRC loop leaves the hot path whenever the native
   library is built.
3. **Commit per lane** — validated frames are booked segment-wise with
   reference-exact counters, gaps and sample bytes
   (:func:`repro.daq.batchdecode.commit`); anything irregular goes
   through the decoder's own resync mid-chunk.

Flush policy — the latency/throughput dial:

* **size flush** — the moment pending bytes reach ``flush_bytes``, the
  tick runs immediately: under load the batch is always full and
  throughput dominates.
* **deadline flush** — otherwise a tick runs ``max_latency_s`` after
  the first pending byte arrived: under light load a lone device's
  chunk never waits more than the deadline, bounding p99 latency.
* **close flush** — the server ticks at once when a connection's bytes
  have ended after its BYE: nothing more can arrive for that lane, so
  waiting out the deadline would only delay closing its books. The
  tick is plane-wide; other lanes' pending bytes ride along.
* **resume flush** — :meth:`BatchPlane.flush_lane` decodes one lane
  before a resume ACK (see there).
* **drain flush** — :meth:`BatchPlane.stop` decodes what is left.

Every cause is a counted tick (``<cause>_flushes``). The plane keeps
per-tick telemetry (occupancy, flush causes, tick rate, CRC path)
for the metrics endpoint and asserts nothing about session semantics:
each lane decodes bit-identically to a plain
:class:`~repro.daq.usb.FrameDecoder` fed the same chunks, which the
property tests in ``tests/properties`` enforce.
"""

from __future__ import annotations

import asyncio
import contextlib
import time

from ..daq import batchdecode
from ..errors import ConfigurationError
from .connection import DeviceSession

#: Why a tick ran; each cause has a ``<cause>_flushes`` counter.
FLUSH_CAUSES = ("size", "deadline", "drain", "close", "resume")


class BatchPlane:
    """Latency-aware micro-batching decode scheduler for one gateway.

    Parameters
    ----------
    flush_bytes:
        Batch-occupancy target: a tick fires as soon as this many
        ingest bytes are pending fleet-wide.
    max_latency_s:
        Deadline: a tick fires at most this long after the first
        pending byte of a batch arrived, however empty the batch is.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        flush_bytes: int = 64 * 1024,
        max_latency_s: float = 0.002,
        clock=time.monotonic,
    ):
        if flush_bytes < 1:
            raise ConfigurationError("flush_bytes must be >= 1")
        if max_latency_s <= 0:
            raise ConfigurationError("max_latency_s must be positive")
        self.flush_bytes = int(flush_bytes)
        self.max_latency_s = float(max_latency_s)
        self._clock = clock
        #: Sessions registered as lanes (device_id -> session).
        self.lanes: dict[int, DeviceSession] = {}
        #: Lanes with pending queued bytes, in arrival order.
        self._armed: dict[int, DeviceSession] = {}
        self._armed_bytes: dict[int, int] = {}
        self._pending_bytes = 0
        self._first_pending_t: float | None = None
        self._wake = asyncio.Event()
        #: Set while no lane has queued bytes — the drain() signal.
        self.idle = asyncio.Event()
        self.idle.set()
        self._task: asyncio.Task | None = None
        # -- telemetry -------------------------------------------------------
        self.ticks = 0
        self.size_flushes = 0
        self.deadline_flushes = 0
        self.drain_flushes = 0  # forced by stop()/drain paths
        self.close_flushes = 0  # a lane's stream ended after its BYE
        self.resume_flushes = 0  # flush_lane, before a resume ACK
        self.frames_decoded = 0
        self.bytes_decoded = 0
        self.occupancy_sum = 0  # sum over ticks of lanes-with-data
        self.occupancy_max = 0
        self._started_t: float | None = None

    # -- lane lifecycle ------------------------------------------------------

    def attach(self, session: DeviceSession) -> None:
        """Register a session as a decode lane (idempotent per id)."""
        self.lanes[session.device_id] = session

    def detach(self, session: DeviceSession) -> None:
        """Drop a lane; its *queued-but-undecoded* bytes are discarded.

        Only called when the session's books are already closed: a
        fresh HELLO replacing a restarted device, or a session retired
        after its close.
        """
        if self.lanes.get(session.device_id) is session:
            del self.lanes[session.device_id]
        if self._armed.get(session.device_id) is session:
            del self._armed[session.device_id]
            self._pending_bytes -= self._armed_bytes.pop(
                session.device_id, 0
            )
            session.take_queued()
            self._settle()

    def notify(self, session: DeviceSession, n_bytes: int) -> None:
        """Reader-side: ``n_bytes`` were queued on ``session``."""
        if n_bytes <= 0:
            return
        self._pending_bytes += n_bytes
        self._armed[session.device_id] = session
        self._armed_bytes[session.device_id] = (
            self._armed_bytes.get(session.device_id, 0) + n_bytes
        )
        if self._first_pending_t is None:
            self._first_pending_t = self._clock()
        self.idle.clear()
        self._wake.set()

    def _settle(self) -> None:
        if not self._armed:
            self._first_pending_t = None
            self._pending_bytes = 0
            self.idle.set()

    def flush_lane(self, session: DeviceSession) -> int:
        """Decode one lane's backlog immediately (a ``resume`` tick);
        returns frames.

        The resume handshake calls this before ACKing so
        ``last_acked`` reflects every byte the device already sent —
        otherwise a device that reconnects faster than the flush
        deadline replays frames whose bytes are still queued, and the
        duplicates surface as spurious ``stale_frames``.
        """
        if self._armed.pop(session.device_id, None) is None:
            return 0
        batch_bytes = self._armed_bytes.pop(session.device_id, 0)
        self._pending_bytes -= batch_bytes
        frames = self._tick("resume", [session], batch_bytes)
        self._settle()
        return frames

    # -- scheduler -----------------------------------------------------------

    def start(self) -> None:
        if self._task is not None:
            raise ConfigurationError("batch plane already started")
        self._started_t = self._clock()
        self._task = asyncio.create_task(self._run())

    async def stop(self) -> None:
        """Flush whatever is pending, then stop the scheduler task."""
        if self.pending_bytes or self._armed:
            self.flush(cause="drain")
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    @property
    def pending_bytes(self) -> int:
        return self._pending_bytes

    async def _run(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if not self._armed:
                continue
            if self._pending_bytes >= self.flush_bytes:
                self.flush(cause="size")
                continue
            # Under target: wait for more data, but never past the
            # deadline measured from the batch's first pending byte.
            while self._armed:
                if self._pending_bytes >= self.flush_bytes:
                    self.flush(cause="size")
                    break
                delay = (
                    self._first_pending_t + self.max_latency_s - self._clock()
                )
                if delay <= 0:
                    self.flush(cause="deadline")
                    break
                # The deadline sets the wake event itself. Not
                # asyncio.wait_for: on Python 3.11 it swallows a cancel
                # that lands as the wait completes, and stop() then
                # waits on this task forever.
                timer = asyncio.get_running_loop().call_later(
                    delay, self._wake.set
                )
                try:
                    await self._wake.wait()
                finally:
                    timer.cancel()
                self._wake.clear()

    def flush(self, cause: str = "deadline") -> int:
        """Run one decode tick over every armed lane; returns frames.

        Synchronous on purpose: no ``await`` between intake and commit,
        so reader callbacks can never interleave with a half-committed
        batch.
        """
        if cause not in FLUSH_CAUSES:
            raise ConfigurationError(f"unknown flush cause {cause!r}")
        armed = list(self._armed.values())
        self._armed.clear()
        self._armed_bytes.clear()
        frames = self._tick(cause, armed, self._pending_bytes)
        self._settle()
        return frames

    def _tick(
        self, cause: str, sessions: list[DeviceSession], batch_bytes: int
    ) -> int:
        """Stage, CRC-check and commit ``sessions``; book one tick."""
        staged_pairs: list[tuple[DeviceSession, batchdecode.Staged]] = []
        for session in sessions:
            staged = session.stage_pending()
            if staged is not None:
                staged_pairs.append((session, staged))
        batchdecode.crc_check([staged for _, staged in staged_pairs])
        frames = 0
        for session, staged in staged_pairs:
            frames += session.commit_staged(staged)
        occupancy = len(staged_pairs)
        self.ticks += 1
        name = f"{cause}_flushes"
        setattr(self, name, getattr(self, name) + 1)
        self.frames_decoded += frames
        self.bytes_decoded += batch_bytes
        self.occupancy_sum += occupancy
        self.occupancy_max = max(self.occupancy_max, occupancy)
        return frames

    # -- telemetry -----------------------------------------------------------

    def metrics(self) -> dict:
        """JSON-able per-tick counters for the metrics endpoint."""
        elapsed = (
            (self._clock() - self._started_t)
            if self._started_t is not None
            else 0.0
        )
        ticks = self.ticks
        return {
            "lanes": len(self.lanes),
            "ticks": ticks,
            "tick_rate_hz": (ticks / elapsed) if elapsed > 0 else 0.0,
            "size_flushes": self.size_flushes,
            "deadline_flushes": self.deadline_flushes,
            "drain_flushes": self.drain_flushes,
            "close_flushes": self.close_flushes,
            "resume_flushes": self.resume_flushes,
            "deadline_flush_fraction": (
                self.deadline_flushes / ticks if ticks else 0.0
            ),
            "close_flush_fraction": (
                self.close_flushes / ticks if ticks else 0.0
            ),
            "occupancy_mean": (
                self.occupancy_sum / ticks if ticks else 0.0
            ),
            "occupancy_max": self.occupancy_max,
            "frames_decoded": self.frames_decoded,
            "bytes_decoded": self.bytes_decoded,
            "pending_bytes": self._pending_bytes,
            "flush_bytes": self.flush_bytes,
            "max_latency_s": self.max_latency_s,
            "crc_path": batchdecode.crc_path(),
        }
