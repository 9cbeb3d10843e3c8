"""Fleet-scale chaos harness for the acquisition gateway.

:func:`run_chaos` stands up one :class:`~repro.gateway.server.
GatewayServer`, points dozens of :class:`~repro.gateway.client.
DeviceClient` simulators at it concurrently — a configurable fraction
carrying independent seeded link-fault schedules (frame drop,
truncation, bit-flip, reorder) and forced mid-stream disconnects — and
then audits the wreckage. The audit is the point; it asserts the
tentpole's graceful-degradation contract:

1. **Zero silent corruption** — every device streams deterministic,
   index-derived sample values (:func:`~repro.gateway.client.
   expected_codes`), so each delivered sample is checked against the
   value it must have. Frames the faults destroyed must show up in the
   explicit counters (``lost_frames``/``stale_frames``/
   ``frames_unaccounted``), closing conservation against the BYE's
   device-side frame count.
2. **Fault isolation** — connections with no faults and no shed chunks
   must come out *bit-identical* to a direct, gateway-free decode of the
   same payload stream, no matter how sick their neighbours are.
3. **Bounded memory** — per-connection ingest queues never exceed their
   bound and the demux buffer stays under one maximum frame.
4. **Clean closes** — every device whose client sent its BYE has its
   server-side session closed (BYE seen, books finalized) within a
   bounded wait, before the server shuts down and closes the rest.
5. **No leaks** — the event loop ends with exactly the tasks it began
   with.

The report is JSON-able (:meth:`ChaosReport.as_dict`) so the CI smoke
job can publish it as an artifact.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from ..faults import FaultInjector, FaultSpec
from .client import DeviceClient, DeviceReport, expected_codes, synthetic_payloads
from .connection import DeviceSession
from .protocol import MAX_DATA_FRAME
from .server import GatewayServer

#: How long a BYE may take to close its server-side session.
CLOSE_TIMEOUT_S = 5.0

#: Nominal frame rate a sick device's fault schedule is timed against.
_FAULT_FRAME_RATE_HZ = 50.0

#: Fault kinds every sick device draws from (one seeded process each).
CHAOS_KINDS = (
    "frame_drop",
    "frame_truncation",
    "frame_bitflip",
    "frame_reorder",
)


@dataclass
class ChaosReport:
    """Fleet audit: what ran, what broke, and whether the books balance."""

    devices: int = 0
    faulty_devices: int = 0
    frames_sent: int = 0
    frames_decoded: int = 0
    frames_lost: int = 0
    frames_stale: int = 0
    frames_unaccounted: int = 0
    crc_errors: int = 0
    resync_bytes: int = 0
    faults_injected: int = 0
    chunks_shed: int = 0
    reconnects: int = 0
    watchdog_trips: int = 0
    samples_verified: int = 0
    clean_devices_exact: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "devices": self.devices,
            "faulty_devices": self.faulty_devices,
            "frames_sent": self.frames_sent,
            "frames_decoded": self.frames_decoded,
            "frames_lost": self.frames_lost,
            "frames_stale": self.frames_stale,
            "frames_unaccounted": self.frames_unaccounted,
            "crc_errors": self.crc_errors,
            "resync_bytes": self.resync_bytes,
            "faults_injected": self.faults_injected,
            "chunks_shed": self.chunks_shed,
            "reconnects": self.reconnects,
            "watchdog_trips": self.watchdog_trips,
            "samples_verified": self.samples_verified,
            "clean_devices_exact": self.clean_devices_exact,
            "failures": self.failures,
        }


def _chaos_injector(
    seed: int, frames: int, rate_hz: float, frame_rate_hz: float
) -> FaultInjector:
    """Independent per-device schedule over the device's whole stream."""
    horizon_s = frames / frame_rate_hz
    specs = [
        FaultSpec(kind=kind, rate_hz=rate_hz, magnitude=m)
        for kind, m in zip(CHAOS_KINDS, (1.0, 0.5, 1.0, 1.0))
    ]
    return FaultInjector(specs, seed=seed, horizon_s=horizon_s)


def _verify_device(
    report: ChaosReport,
    session: DeviceSession,
    device: DeviceReport,
    faulty: bool,
    frames: int,
    samples_per_frame: int,
) -> None:
    """Audit one device's books and delivered sample values."""
    did = device.device_id
    view = session.telemetry_view()

    # -- conservation: every framed frame decoded, lost or unaccounted.
    if not session.bye_seen:
        report.failures.append(f"device {did}: BYE never reached gateway")
        return
    if view.frames_framed != device.frames_sent:
        report.failures.append(
            f"device {did}: BYE frame count {view.frames_framed} != "
            f"client count {device.frames_sent}"
        )
    try:
        session.reconcile()
    except Exception as exc:  # noqa: BLE001 - the audit reports, not raises
        report.failures.append(f"device {did}: reconcile failed: {exc}")
    if view.frames_unaccounted < 0:
        report.failures.append(
            f"device {did}: negative unaccounted "
            f"({view.frames_unaccounted}) — frames double-counted"
        )
    clean = not faulty and session.chunks_shed == 0
    if clean and (
        view.lost_frames
        or view.stale_frames
        or view.crc_errors
        or view.frames_unaccounted
        or view.frames_decoded != frames
    ):
        report.failures.append(
            f"device {did}: fault-free connection lost data "
            f"(decoded {view.frames_decoded}/{frames}, "
            f"lost {view.lost_frames}, crc {view.crc_errors}, "
            f"unaccounted {view.frames_unaccounted})"
        )

    # -- content: delivered values must match their absolute position.
    expected = expected_codes(frames, samples_per_frame)
    got, mask = session.stream.zero_filled(0)
    if got.size > expected.size:
        report.failures.append(
            f"device {did}: {got.size - expected.size} surplus samples"
        )
        return
    mismatches = int(np.count_nonzero(got[mask] != expected[: got.size][mask]))
    if mismatches:
        report.failures.append(
            f"device {did}: {mismatches} silently corrupted samples"
        )
    report.samples_verified += int(np.count_nonzero(mask))
    if clean:
        if got.size == expected.size and bool(mask.all()):
            report.clean_devices_exact += 1
        else:
            report.failures.append(
                f"device {did}: fault-free record not bit-identical "
                f"({got.size}/{expected.size} samples, "
                f"{int(np.count_nonzero(~mask))} masked)"
            )

    # -- bounded memory.
    if session.queue_depth_peak > session.queue.maxsize:
        report.failures.append(
            f"device {did}: ingest queue exceeded its bound "
            f"({session.queue_depth_peak} > {session.queue.maxsize})"
        )
    if session._demux.buffered > MAX_DATA_FRAME + 16:
        report.failures.append(
            f"device {did}: demux buffer unbounded "
            f"({session._demux.buffered} B)"
        )


async def _await_closes(
    report: ChaosReport, server: GatewayServer, results: list
) -> None:
    """Fail every device whose sent BYE did not close its session."""

    def closed(did: int) -> bool:
        session = server.sessions.get(did)
        return (
            session is not None and session.bye_seen and session.finalized
        )

    sent = [
        did
        for did, result in enumerate(results)
        if isinstance(result, DeviceReport) and result.bye_sent
    ]
    loop = asyncio.get_running_loop()
    deadline = loop.time() + CLOSE_TIMEOUT_S
    while not all(map(closed, sent)) and loop.time() < deadline:
        await asyncio.sleep(0.01)
    for did in sent:
        if not closed(did):
            report.failures.append(
                f"device {did}: BYE sent but the server session did not "
                f"close within {CLOSE_TIMEOUT_S:g} s"
            )


async def run_chaos(
    n_devices: int = 50,
    frames_per_device: int = 120,
    samples_per_frame: int = 32,
    faulty_fraction: float = 0.5,
    fault_rate_hz: float = 2.0,
    reconnect_every: int | None = 40,
    seed: int = 0,
    queue_chunks: int = 64,
) -> ChaosReport:
    """Run the fleet, then audit every connection. Returns the report.

    Devices ``0, 2, 4, …`` (up to ``faulty_fraction``) carry independent
    fault schedules seeded from ``seed + device_id``; every
    ``reconnect_every``-th payload each device hard-drops its TCP
    connection and resumes, exercising the watchdog + replay path under
    load.
    """
    report = ChaosReport(devices=n_devices)
    baseline_tasks = asyncio.all_tasks()

    server = GatewayServer(queue_chunks=queue_chunks)
    host, port = await server.start()
    # Interleave sick and healthy devices across the id space so the
    # isolation check never reduces to "faults ran first/last".
    order = [d for d in range(n_devices) if d % 2 == 0] + [
        d for d in range(n_devices) if d % 2 == 1
    ]
    faulty_ids = set(order[: int(round(n_devices * faulty_fraction))])
    report.faulty_devices = len(faulty_ids)

    clients: list[DeviceClient] = []
    for did in range(n_devices):
        faults = (
            _chaos_injector(
                seed + did, frames_per_device, fault_rate_hz,
                _FAULT_FRAME_RATE_HZ,
            )
            if did in faulty_ids
            else None
        )
        clients.append(
            DeviceClient(
                host,
                port,
                device_id=did,
                payloads=synthetic_payloads(
                    frames_per_device, samples_per_frame
                ),
                faults=faults,
                fault_frame_rate_hz=_FAULT_FRAME_RATE_HZ,
                drop_every=reconnect_every,
                heartbeat_s=0.05,
                replay_limit=frames_per_device + 1,
            )
        )

    results = await asyncio.gather(
        *(c.run() for c in clients), return_exceptions=True
    )
    if not await server.drain(timeout_s=10.0):
        report.failures.append("ingest queues failed to drain")
    await _await_closes(report, server, results)
    await server.stop()

    for did, result in enumerate(results):
        if isinstance(result, BaseException):
            report.failures.append(f"device {did}: client died: {result!r}")
            continue
        session = server.sessions.get(did)
        if session is None:
            report.failures.append(f"device {did}: no gateway session")
            continue
        report.frames_sent += result.frames_sent
        report.faults_injected += result.faults_injected
        report.reconnects += result.reconnects
        _verify_device(
            report,
            session,
            result,
            did in faulty_ids,
            frames_per_device,
            samples_per_frame,
        )

    fleet = server.fleet_telemetry()
    report.frames_decoded = fleet.frames_decoded
    report.frames_lost = fleet.lost_frames
    report.frames_stale = fleet.stale_frames
    report.frames_unaccounted = fleet.frames_unaccounted
    report.crc_errors = fleet.crc_errors
    report.resync_bytes = fleet.resync_bytes
    report.chunks_shed = sum(
        s.chunks_shed for s in server.sessions.values()
    )
    report.watchdog_trips = sum(
        s.watchdog.trips for s in server.sessions.values()
    )

    # -- no leaked asyncio tasks.
    await asyncio.sleep(0)  # let cancelled/finished tasks retire
    leaked = {
        t for t in asyncio.all_tasks() - baseline_tasks if not t.done()
    }
    if leaked:
        report.failures.append(
            f"{len(leaked)} asyncio tasks leaked: "
            + ", ".join(sorted(t.get_name() for t in leaked))
        )
    return report
