"""Device simulator: a retrying, resuming gateway client.

:class:`DeviceClient` plays the role of one acquisition device (FPGA +
USB bridge) on the gateway's TCP wire: HELLO handshake, framed data
interleaved with DLE heartbeats, BYE with conservation counts. Its
robustness behaviours are the ones the tentpole demands:

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
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from ..daq.usb import FrameEncoder
from ..errors import ConfigurationError, GatewayError
from .backoff import ExponentialBackoff
from .protocol import (
    ControlDemux,
    frame_sequence,
    heartbeat,
    pack_bye,
    pack_hello,
    split_frames,
)

#: Forward-window test: is ``seq`` strictly after ``acked`` (mod 2^16)?
def _after(seq: int, acked: int) -> bool:
    return 0 < (seq - acked) % 0x10000 < 0x8000


# -- payload sources ---------------------------------------------------------


def expected_codes(
    n_frames: int, samples_per_frame: int = 64
) -> np.ndarray:
    """The exact int16 codes :func:`synthetic_payloads` frames carry.

    Content is a deterministic function of absolute sample index, so a
    receiver can verify *values*, not just counts: any corruption that
    slipped past the CRC and sequence accounting would show up as a
    mismatch at a known position.
    """
    n = n_frames * samples_per_frame
    return ((np.arange(n) % 4096) - 2048).astype(np.int16)


def synthetic_payloads(
    n_frames: int, samples_per_frame: int = 64, element: int = 0
) -> Iterator[bytes]:
    """Framed payloads (one frame each) with index-derived sample values.

    A fresh :class:`~repro.daq.usb.FrameEncoder` numbers the frames from
    sequence 0, matching the gateway's fresh-HELLO expectation.
    """
    if n_frames < 0:
        raise ConfigurationError("frame count must be >= 0")
    encoder = FrameEncoder(samples_per_frame=samples_per_frame)
    codes = expected_codes(n_frames, samples_per_frame)
    for k in range(n_frames):
        yield encoder.push(
            codes[k * samples_per_frame : (k + 1) * samples_per_frame],
            element,
        )


def chain_payloads(
    chain, field: np.ndarray, element: int = 0, chunk: int = 4096
) -> Iterator[bytes]:
    """Framed payloads from a full physics chain run over a pressure field.

    The one-lane case of :func:`batch_chain_payloads`: streams ``field``
    (n_samples, n_elements) through the chain in ``chunk``-row slices,
    yielding each slice's framed output; the final flush payload closes
    the stream. The chain's encoder keeps numbering across sessions
    exactly as on hardware.
    """
    yield from batch_chain_payloads([chain], [field], element, chunk)[0]


def batch_chain_payloads(
    chains, fields, element: int = 0, chunk: int = 4096
) -> list[list[bytes]]:
    """Per-device framed payload lists for a whole fleet, in one pass.

    The fleet-scale sibling of :func:`chain_payloads`: runs ``B``
    chains' pressure fields through one
    :class:`~repro.batch.session.BatchAcquisitionSession` (the fused
    batch kernel) and frames each lane's delivered words with that
    lane's own :class:`~repro.daq.usb.FrameEncoder`. The concatenated
    bytes per device are bit-identical to ``B`` independent
    :func:`chain_payloads` runs — same words, same element tags, same
    sequence numbers — at batched throughput, so a many-device gateway
    scenario no longer pays ``B`` single-chain simulations.

    Returns one payload list per chain, in chain order; feed each list
    to its own :class:`DeviceClient`.
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
    for start in range(0, n, chunk):
        delivered = session.feed_pressure(
            [f[start : start + chunk] for f in fields]
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
    backoff_slept_s: float = field(default=0.0)


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
        Accumulate this many payloads per TCP write+drain (1 = one
        write per payload, the legacy behaviour). The wire bytes,
        fault applications and replay bookkeeping are identical —
        only the syscall granularity changes, so a load generator can
        saturate the gateway instead of its own ``drain()`` round
        trips. Pacing and forced drops still flush at each payload.
    on_frame_sent:
        Latency probe ``(sequence, t_monotonic)`` called per transmitted
        frame (replays included).
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
        self._prepared: list[tuple[bytes, list[bytes]]] | None = None
        self._replay: OrderedDict[int, bytes] = OrderedDict()
        self._reader_task: asyncio.Task | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._rx = ControlDemux()
        self._last_hb = 0.0

    # -- lifecycle -----------------------------------------------------------

    def prepare(self) -> None:
        """Materialize every payload's wire bytes (faults applied) now.

        Load-generation front-loading for benchmarks: frame encoding
        and fault mangling happen here, outside the measured window, so
        :meth:`run` spends its wall time on transport and protocol
        only. The bytes sent are identical to an unprepared run —
        replay buffering and latency stamps still happen at send time.
        """
        if self._prepared is not None:
            raise GatewayError("client already prepared")
        self._prepared = list(self._payload_stream())

    def _payload_stream(
        self,
    ) -> Iterator[tuple[bytes, list[bytes], list[int]]]:
        """(wire_bytes, clean_frames, sequences) per payload."""
        if self._prepared is not None:
            yield from self._prepared
            return
        for payload in self.payloads:
            frames = split_frames(payload)
            seqs = [frame_sequence(f) for f in frames]
            if self.faults is not None:
                wire = self.faults.apply_payload(payload)
                self.report.faults_injected = self.faults.events_applied
            else:
                wire = payload
            yield wire, frames, seqs

    async def run(self) -> DeviceReport:
        """Stream every payload (reconnecting as needed), BYE, report."""
        await self._connect(resume=False)
        try:
            wire = bytearray()
            seqs: list[int] = []
            for index, (p_wire, p_frames, p_seqs) in enumerate(
                self._payload_stream()
            ):
                for seq, frame in zip(p_seqs, p_frames):
                    self._buffer_frame(seq, frame)
                seqs.extend(p_seqs)
                wire += p_wire
                self.report.payloads += 1
                forced = (
                    self.drop_every is not None
                    and (index + 1) % self.drop_every == 0
                )
                if (
                    forced
                    or self.pace_s
                    or (index + 1) % self.coalesce_payloads == 0
                ):
                    await self._send_group(bytes(wire), seqs)
                    wire = bytearray()
                    seqs = []
                if forced:
                    self.report.forced_drops += 1
                    await self._abort()
                    await self._connect(resume=True)
                if self.pace_s:
                    await asyncio.sleep(self.pace_s)
            if wire or seqs:
                await self._send_group(bytes(wire), seqs)
            await self._send_bye()
        finally:
            await self._close()
        return self.report

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
                    elif event.kind == "heartbeat":
                        # Gateway liveness probe: traffic is the answer.
                        if self._writer is not None:
                            self._writer.write(heartbeat())
                            self.report.heartbeats_sent += 1
        except (ConnectionError, OSError, asyncio.CancelledError):
            return

    # -- transmission --------------------------------------------------------

    async def _send_group(self, wire: bytes, seqs: list[int]) -> None:
        """Put already-buffered (possibly mangled) bytes on the wire."""
        try:
            await self._write(wire, seqs)
        except (ConnectionError, OSError):
            # The replay buffer already holds these frames: reconnect-
            # and-resume retransmits whatever the gateway missed, so
            # nothing is silently lost here.
            await self._abort()
            await self._connect(resume=True)

    async def _write(self, wire: bytes, seqs: list[int]) -> None:
        writer = self._writer
        if writer is None:
            raise ConnectionResetError("no connection")
        if wire:
            writer.write(wire)
        now = self._clock()
        if now - self._last_hb >= self.heartbeat_s:
            writer.write(heartbeat())
            self.report.heartbeats_sent += 1
            self._last_hb = now
        await writer.drain()
        self.report.bytes_sent += len(wire)
        self.report.frames_sent += len(seqs)
        if self.on_frame_sent is not None:
            for seq in seqs:
                self.on_frame_sent(seq, now)

    def _buffer_frame(self, seq: int, frame: bytes) -> None:
        self._replay[seq] = frame
        while len(self._replay) > self.replay_limit:
            self._replay.popitem(last=False)
            self.report.replay_evictions += 1

    def _trim(self, last_acked: int | None) -> None:
        if last_acked is None:
            return
        for seq in [
            s for s in self._replay if not _after(s, last_acked)
        ]:
            del self._replay[seq]

    async def _resend_unacked(self) -> None:
        """Replay everything the gateway's ACK did not cover, in order."""
        if not self._replay or self._writer is None:
            return
        now = self._clock()
        for seq, frame in self._replay.items():
            self._writer.write(frame)
            self.report.frames_replayed += 1
            self.report.bytes_sent += len(frame)
            if self.on_frame_sent is not None:
                self.on_frame_sent(seq, now)
        await self._writer.drain()

    # -- teardown ------------------------------------------------------------

    async def _send_bye(self) -> None:
        """Clean close: lifetime conservation counts, then EOF."""
        writer = self._writer
        if writer is None:
            return
        faults = (
            self.faults.events_applied if self.faults is not None else 0
        )
        # ``frames_sent`` counts first transmissions only (replays are
        # tallied separately), so it is the device's lifetime framed count.
        writer.write(pack_bye(self.report.frames_sent, faults))
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
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if writer is not None:
            self._writer = None
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
