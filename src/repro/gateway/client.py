"""Device simulator: a retrying, resuming gateway client.

:class:`DeviceClient` plays the role of one acquisition device (FPGA +
USB bridge) on the gateway's TCP wire: HELLO handshake, framed data
interleaved with DLE heartbeats, BYE with conservation counts. Its
robustness behaviours:

* **Retry with exponential backoff + jitter**
  (:class:`~repro.gateway.backoff.ExponentialBackoff`) around every
  connect; a retry budget turns a dead gateway into a clean
  :class:`~repro.errors.GatewayError` instead of a hang.
* **Resume from last-acked sequence** — every transmitted frame stays
  in a bounded replay buffer until an ACK covers it; on reconnect the
  device sends ``HELLO(resume)``, reads the gateway's cumulative ACK,
  trims the buffer and replays only what the gateway never saw. Replay
  overlap is harmless: the gateway drops already-counted frames as
  *stale*, never double-ingesting.
* **Link fault injection** — an optional
  :class:`~repro.faults.FaultInjector` (usb-layer specs, bound via
  :meth:`~repro.faults.injector.FaultInjector.bind_link`) mangles the
  bytes *on the wire only*; the replay buffer holds the clean frames,
  so a retransmission models a link traversal that succeeded.

Payload sources are plain iterables of encoder output
(:func:`synthetic_payloads` for deterministic content the chaos harness
can verify bit-for-bit, :func:`chain_payloads` for the full physics
chain).
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from ..daq.usb import FrameEncoder, frame_sequence, split_frames
from ..errors import ConfigurationError, GatewayError
from .backoff import ExponentialBackoff
from .protocol import ControlDemux, heartbeat, pack_bye, pack_hello

#: Forward-window test: is ``seq`` strictly after ``acked`` (mod 2^16)?
def _after(seq: int, acked: int) -> bool:
    return 0 < (seq - acked) % 0x10000 < 0x8000


#: Runs an iterator to exhaustion at C speed, keeping nothing.
_consume = deque(maxlen=0).extend

#: Modulator samples per batch-session call of the chain payload sources.
_PAYLOAD_CHUNK = 4096


# -- payload sources ---------------------------------------------------------


def expected_codes(n_frames: int, samples_per_frame: int = 64) -> np.ndarray:
    """The exact int16 codes :func:`synthetic_payloads` frames carry.

    Content is a deterministic function of absolute sample index, so a
    receiver can verify *values*, not just counts: any corruption that
    slipped past the CRC and sequence accounting would show up as a
    mismatch at a known position.
    """
    n = n_frames * samples_per_frame
    return ((np.arange(n) % 4096) - 2048).astype(np.int16)


def synthetic_payloads(
    n_frames: int, samples_per_frame: int = 64
) -> Iterator[bytes]:
    """Framed payloads (one frame each, element 0) with index-derived
    sample values.

    A fresh :class:`~repro.daq.usb.FrameEncoder` numbers the frames from
    sequence 0, matching the gateway's fresh-HELLO expectation.
    """
    if n_frames < 0:
        raise ConfigurationError("frame count must be >= 0")
    encoder = FrameEncoder(samples_per_frame=samples_per_frame)
    codes = expected_codes(n_frames, samples_per_frame)
    for chunk in codes.reshape(n_frames, samples_per_frame):
        yield encoder.push(chunk, 0)


def chain_payloads(
    chain, field: np.ndarray, element: int = 0
) -> Iterator[bytes]:
    """Framed payloads from a full physics chain run over a pressure field.

    The one-lane case of :func:`batch_chain_payloads`: streams ``field``
    (n_samples, n_elements) through the chain in ``_PAYLOAD_CHUNK``-row
    slices, yielding each slice's framed output; the final flush payload
    closes the stream. The chain's encoder keeps numbering across sessions
    exactly as on hardware.
    """
    yield from batch_chain_payloads([chain], [field], element)[0]


def batch_chain_payloads(
    chains, fields, element: int = 0
) -> list[list[bytes]]:
    """Per-device framed payload lists for a whole fleet, in one pass.

    Runs ``B`` chains' pressure fields through one
    :class:`~repro.batch.session.BatchAcquisitionSession` (the fused
    batch kernel) and frames each lane's words with that lane's own
    :class:`~repro.daq.usb.FrameEncoder`: per device, the bytes of
    ``B`` independent :func:`chain_payloads` runs (same words, element
    tags and sequence numbers) at batched throughput. Returns one
    payload list per chain, in chain order.
    """
    from ..batch import BatchAcquisitionSession

    fields = [np.asarray(f, dtype=float) for f in fields]
    if any(f.ndim != 2 for f in fields):
        raise ConfigurationError("expected (n_samples, n_elements) fields")
    if len(fields) != len(chains):
        raise ConfigurationError(
            f"need one pressure field per chain, got {len(fields)} "
            f"field(s) for {len(chains)} chain(s)"
        )
    session = BatchAcquisitionSession(chains, element=element)
    payload_lists: list[list[bytes]] = [[] for _ in chains]
    n = fields[0].shape[0]
    for start in range(0, n, _PAYLOAD_CHUNK):
        delivered = session.feed_pressure(
            [f[start : start + _PAYLOAD_CHUNK] for f in fields]
        )
        for lane, c in enumerate(chains):
            payload = c.fpga.encoder.push(delivered[lane], element)
            if payload:
                payload_lists[lane].append(payload)
    session.finish()
    for lane, c in enumerate(chains):
        tail = c.fpga.encoder.flush()
        if tail:
            payload_lists[lane].append(tail)
    return payload_lists


# -- the client --------------------------------------------------------------


class _WireStream(NamedTuple):
    """Flattened payloads: payload ``k`` is ``wire[wire_at[k]:wire_at[k+1]]``
    on the wire (faults applied) and ``frames[frame_at[k]:frame_at[k+1]]``
    (clean, sequence numbers in ``seqs``) in the replay buffer."""

    wire: bytes
    wire_at: list[int]
    frames: list[bytes]
    seqs: list[int]
    frame_at: list[int]


@dataclass
class DeviceReport:
    """What one device run did — the client-side half of the audit."""

    device_id: int = 0
    frames_sent: int = 0
    bytes_sent: int = 0
    payloads: int = 0
    heartbeats_sent: int = 0
    acks_received: int = 0
    reconnects: int = 0
    retries: int = 0
    forced_drops: int = 0
    frames_replayed: int = 0
    replay_evictions: int = 0
    faults_injected: int = 0
    bye_sent: bool = False
    backoff_slept_s: float = 0.0


class DeviceClient:
    """One simulated device streaming to a :class:`GatewayServer`.

    Parameters
    ----------
    host / port:
        The gateway's data endpoint.
    device_id:
        This device's u32 identity (its session key at the gateway).
    payloads:
        Iterable of framed encoder payloads to transmit, in order.
    faults:
        Optional usb-layer :class:`~repro.faults.FaultInjector`; bound
        with :meth:`~repro.faults.injector.FaultInjector.bind_link` at
        ``fault_frame_rate_hz`` and applied to the wire bytes only.
    fault_frame_rate_hz:
        Nominal frame rate used to map fault-event times onto frame
        indices (the schedule's time axis, not a pacing constraint).
    backoff:
        Retry pacing; defaults to a fast, seeded schedule.
    max_retries:
        Consecutive failed connects tolerated before
        :class:`~repro.errors.GatewayError`.
    heartbeat_s:
        Idle interval after which a DLE poll is interleaved (also the
        ACK solicitation that trims the replay buffer).
    replay_limit:
        Replay-buffer bound in frames; overflow evicts the oldest frame
        (counted — an eviction is a frame retransmission can no longer
        cover).
    drop_every:
        Chaos knob: abort the TCP connection after every N payloads and
        reconnect with resume (``None`` = never).
    pace_s:
        Sleep between payloads (0 = as fast as the loop allows).
    coalesce_payloads:
        Payloads per TCP write+drain (1 = one write per payload). A
        group ends at the next multiple of ``coalesce_payloads`` or
        ``drop_every``; with ``pace_s`` set every payload is its own
        group. The wire bytes, fault applications and replay
        bookkeeping do not depend on it — only the syscall granularity
        does, so a load generator can saturate the gateway instead of
        its own ``drain()`` round trips.
    on_frame_sent:
        Latency probe ``(sequence, t_monotonic)`` called per transmitted
        frame (replays included) when its group is handed to the
        writer; every frame of one write gets the same stamp.
    """

    def __init__(
        self,
        host: str,
        port: int,
        device_id: int,
        payloads: Iterable[bytes],
        faults=None,
        fault_frame_rate_hz: float = 50.0,
        backoff: ExponentialBackoff | None = None,
        max_retries: int = 8,
        heartbeat_s: float = 0.5,
        replay_limit: int = 512,
        drop_every: int | None = None,
        pace_s: float = 0.0,
        coalesce_payloads: int = 1,
        on_frame_sent: Callable[[int, float], None] | None = None,
        clock=time.monotonic,
    ):
        if max_retries < 1:
            raise ConfigurationError("retry budget must be >= 1")
        if replay_limit < 1:
            raise ConfigurationError("replay buffer needs >= 1 slot")
        if drop_every is not None and drop_every < 1:
            raise ConfigurationError("drop_every must be >= 1 payload")
        if coalesce_payloads < 1:
            raise ConfigurationError("coalesce_payloads must be >= 1")
        self.host = host
        self.port = int(port)
        self.device_id = int(device_id)
        self.payloads = payloads
        self.faults = faults
        if faults is not None:
            faults.bind_link(fault_frame_rate_hz)
        self.backoff = backoff or ExponentialBackoff(
            initial_s=0.02, cap_s=1.0, rng=device_id
        )
        self.max_retries = int(max_retries)
        self.heartbeat_s = float(heartbeat_s)
        self.replay_limit = int(replay_limit)
        self.drop_every = drop_every
        self.pace_s = float(pace_s)
        self.coalesce_payloads = int(coalesce_payloads)
        self.on_frame_sent = on_frame_sent
        self._clock = clock
        self.report = DeviceReport(device_id=self.device_id)
        self._prepared: _WireStream | None = None
        self._replay: OrderedDict[int, bytes] = OrderedDict()
        self._reader_task: asyncio.Task | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._rx = ControlDemux()
        self._last_hb = 0.0

    # -- lifecycle -----------------------------------------------------------

    def prepare(self) -> None:
        """Flatten every payload (faults applied) into one stream now.

        Load-generation front-loading for benchmarks: splitting and fault
        mangling happen outside the measured window. Indexed per payload,
        the stream serves any ``coalesce_payloads``; :meth:`run` sends each
        group as one slice of its wire blob, the bytes of a live run.
        """
        if self._prepared is not None:
            raise GatewayError("client already prepared")
        self._prepared = self._flatten(self.payloads)

    def _flatten(self, payloads: Iterable[bytes]) -> _WireStream:
        """Split, sequence and fault-mangle ``payloads`` into one stream."""
        faults = self.faults
        wires, frames, wire_at, frame_at = [], [], [0], [0]
        for payload in payloads:
            frames += split_frames(payload)
            frame_at.append(len(frames))
            wire = faults.apply_payload(payload) if faults else payload
            wires.append(wire)
            wire_at.append(wire_at[-1] + len(wire))
        seqs = list(map(frame_sequence, frames))
        return _WireStream(b"".join(wires), wire_at, frames, seqs, frame_at)

    def _group_end(self, index: int) -> int:
        """Payload index one past the group that starts at ``index``."""
        if self.pace_s:
            return index + 1
        drop = self.drop_every or self.coalesce_payloads
        return min(index // k * k + k for k in (self.coalesce_payloads, drop))

    async def run(self) -> DeviceReport:
        """Stream every payload group (reconnecting as needed), BYE, report.

        A live (unprepared) client flattens each group's payloads as it
        reaches them, so it holds one group at a time.
        """
        await self._connect(resume=False)
        try:
            stream = self._prepared
            live = iter(self.payloads) if stream is None else None
            index = 0
            while True:
                end = self._group_end(index)
                if live is None:
                    lo, hi = index, min(end, len(stream.wire_at) - 1)
                else:
                    stream = self._flatten(islice(live, end - index))
                    lo, hi = 0, len(stream.wire_at) - 1
                if hi <= lo:
                    break
                index += hi - lo
                self.report.payloads += hi - lo
                f_lo, f_hi = stream.frame_at[lo], stream.frame_at[hi]
                seqs = stream.seqs[f_lo:f_hi]
                self._buffer(seqs, stream.frames[f_lo:f_hi])
                wire = stream.wire[stream.wire_at[lo] : stream.wire_at[hi]]
                if index == end or wire or seqs:
                    await self._send_group(wire, seqs)
                if index < end:
                    break  # the stream ended inside this group
                if self.drop_every and index % self.drop_every == 0:
                    self.report.forced_drops += 1
                    await self._abort()
                    await self._connect(resume=True)
                if self.pace_s:
                    await asyncio.sleep(self.pace_s)
            await self._send_bye()
        finally:
            self.report.faults_injected = self._faults_applied
            await self._close()
        return self.report

    @property
    def _faults_applied(self) -> int:
        """The injector's count of applied faults: what the bytes this
        client sends carry, whoever flattened them (the BYE's and the
        report's one source)."""
        return self.faults.events_applied if self.faults else 0

    async def _connect(self, resume: bool) -> None:
        """Dial + HELLO + ACK, under the backoff schedule."""
        while True:
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port
                )
            except (ConnectionError, OSError):
                await self._retry_sleep()
                continue
            try:
                writer.write(pack_hello(self.device_id, resume=resume))
                await writer.drain()
                acked = await asyncio.wait_for(
                    self._await_ack(reader), timeout=5.0
                )
            except (
                ConnectionError,
                OSError,
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
            ):
                writer.close()
                await self._retry_sleep()
                continue
            break
        self.backoff.reset()
        self._writer = writer
        self._last_hb = self._clock()
        if resume:
            self.report.reconnects += 1
            self._trim(acked)
            await self._resend_unacked()
        self._reader_task = asyncio.create_task(self._read_acks(reader))

    async def _retry_sleep(self) -> None:
        if self.backoff.attempts + 1 >= self.max_retries:
            raise GatewayError(
                f"device {self.device_id}: gateway unreachable after "
                f"{self.backoff.attempts + 1} attempts"
            )
        delay = self.backoff.next_delay()
        self.report.retries += 1
        self.report.backoff_slept_s += delay
        await asyncio.sleep(delay)

    async def _await_ack(self, reader: asyncio.StreamReader) -> int | None:
        """Read until the handshake ACK arrives; returns ``last_acked``."""
        while True:
            data = await reader.read(1024)
            if not data:
                raise ConnectionResetError("gateway closed mid-handshake")
            _, events = self._rx.feed(data)
            for event in events:
                if event.kind == "ack":
                    self.report.acks_received += 1
                    return event.last_acked

    async def _read_acks(self, reader: asyncio.StreamReader) -> None:
        """Connection-lifetime reader: ACKs trim, DLE probes get answered."""
        try:
            while True:
                data = await reader.read(1024)
                if not data:
                    return
                _, events = self._rx.feed(data)
                for event in events:
                    if event.kind == "ack":
                        self.report.acks_received += 1
                        self._trim(event.last_acked)
                    elif event.kind == "heartbeat" and self._writer:
                        # Gateway liveness probe: traffic is the answer.
                        self._writer.write(heartbeat())
                        self.report.heartbeats_sent += 1
        except (ConnectionError, OSError, asyncio.CancelledError):
            return

    # -- transmission --------------------------------------------------------

    async def _send_group(self, wire: bytes, seqs: list[int]) -> None:
        """Put already-buffered (possibly mangled) bytes on the wire."""
        try:
            # A first transmission counts once handed to the writer: if
            # the drain fails, the replay tallies the retransmission.
            self.report.frames_sent += len(seqs)
            now = self._put(wire, seqs)
            if now - self._last_hb >= self.heartbeat_s:
                self._writer.write(heartbeat())
                self.report.heartbeats_sent += 1
                self._last_hb = now
            await self._writer.drain()
        except (ConnectionError, OSError):
            # The replay buffer already holds these frames: reconnect-
            # and-resume retransmits whatever the gateway missed, so
            # nothing is silently lost here.
            await self._abort()
            await self._connect(resume=True)

    def _put(self, wire: bytes, seqs: Iterable[int]) -> float:
        """Hand ``wire`` to the writer, stamp its frames; returns the stamp."""
        if wire:
            self._writer.write(wire)
        self.report.bytes_sent += len(wire)
        now = self._clock()
        if self.on_frame_sent is not None:
            _consume(map(self.on_frame_sent, seqs, repeat(now)))
        return now

    def _buffer(self, seqs: list[int], frames: list[bytes]) -> None:
        """Hold a group's clean frames for replay; evict the overflow."""
        replay = self._replay
        replay.update(zip(seqs, frames))
        over = len(replay) - self.replay_limit
        if over > 0:
            self.report.replay_evictions += over
            for _ in range(over):
                replay.popitem(last=False)

    def _trim(self, last_acked: int | None) -> None:
        if last_acked is not None:
            for seq in [s for s in self._replay if not _after(s, last_acked)]:
                del self._replay[seq]

    async def _resend_unacked(self) -> None:
        """Replay everything the gateway's ACK did not cover, in order."""
        if not self._replay or self._writer is None:
            return
        self.report.frames_replayed += len(self._replay)
        self._put(b"".join(self._replay.values()), self._replay)
        await self._writer.drain()

    # -- teardown ------------------------------------------------------------

    async def _send_bye(self) -> None:
        """Clean close: lifetime conservation counts, then EOF."""
        writer = self._writer
        if writer is None:
            return
        # ``frames_sent`` counts first transmissions only (replays are
        # tallied separately), so it is the device's lifetime framed count.
        writer.write(pack_bye(self.report.frames_sent, self._faults_applied))
        await writer.drain()
        self.report.bye_sent = True

    async def _abort(self) -> None:
        """Drop the TCP connection on the floor (chaos / send failure)."""
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    async def _close(self) -> None:
        writer = self._writer
        await self._abort()
        if writer is not None:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
