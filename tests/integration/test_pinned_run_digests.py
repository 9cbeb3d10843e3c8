"""Pinned SHA-256 digests of seeded end-to-end runs.

The bit-identity suites compare each fast path with its reference in
the same process; a change to code both share moves both sides
together. These digests pin what three short seeded runs deliver:

* a solo monitor session: a 2x2 sequential scan, then a streaming
  :class:`~repro.core.session.AcquisitionSession` over the real USB
  link with link faults (delivered words, decoder counters and gap
  records);
* a 4-lane :class:`~repro.batch.session.BatchAcquisitionSession` with
  one lane's chain wired to a fault injector (a stuck comparator and
  corrupted words);
* a 3-device loopback gateway run whose clients carry drop, reorder,
  bit-flip and truncation faults (each device's decoded words in
  order, its gap records and its conservation counters);
* the wire bytes :class:`~repro.daq.usb.FrameEncoder` emits for random
  pushes, flushes and element switches.

Each runs with the native library and without it (``no_native``), and
both must hit the same digest. A digest may change only in a change
that says why; to re-pin, run this file as a script with
``PYTHONPATH=src python tests/integration/test_pinned_run_digests.py``
and copy the printed table and NumPy version over ``DIGESTS`` and
``PINNED_NUMPY``.
"""

from __future__ import annotations

import asyncio
import hashlib

import numpy as np
import pytest

from repro.array.scan import ScanController
from repro.batch.session import BatchAcquisitionSession
from repro.core.chain import ReadoutChain
from repro.core.monitor import BloodPressureMonitor
from repro.daq.usb import FrameEncoder
from repro.faults import FaultInjector, FaultSpec
from repro.gateway.chaos import CHAOS_KINDS
from repro.gateway.client import DeviceClient, synthetic_payloads
from repro.gateway.server import GatewayServer
from repro.params import PASCAL_PER_MMHG, SystemParams
from repro.physiology.patient import VirtualPatient
from repro.tonometry.contact import ContactModel
from repro.tonometry.coupling import TonometricCoupling
from repro.tonometry.placement import ArrayPlacement

#: The NumPy release the digests were taken under.
PINNED_NUMPY = "2.4.6"

DIGESTS = {
    "monitor": "da72eb71085361cf55a459c9c7d042c357291123ab1cb8dbd66ae49978c01392",
    "batch": "02050300bb5ad8b7e7dc95a353bc0894511c4e6ee803a6594855e6ceb478bd56",
    "gateway": "fa6929cb90d6125fd2bdd91e7c5377708480960740084a4ec5c37c2988356b95",
    "wire": "20736deac8f6519857a017e4f73d61c72ce01c981871dc59c1c18d3342833bb4",
}

SEED = 2027
#: Monitor run: scan dwell per element and streamed record [s].
SCAN_DWELL_S = 0.1
RECORD_S = 2.0
CHUNK_S = 0.05
#: Batch run: lanes, modulator samples and chunk.
LANES = 4
BATCH_SAMPLES = 128 * 300
BATCH_CHUNK = 10_000
#: Gateway run.
DEVICES = 3
FRAMES = 150
SAMPLES_PER_FRAME = 16
FRAME_RATE_HZ = 50.0


def digest(*items) -> str:
    """SHA-256 over arrays (dtype, shape and bytes) and plain values."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            a = np.ascontiguousarray(item)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        else:
            h.update(repr(item).encode())
    return h.hexdigest()


def gap_records(stream) -> list:
    """Every element's gap records, in element order."""
    return [(el, stream.gaps(el)) for el in stream.elements]


def link_faults(seed: int, horizon_s: float, rate_hz: float) -> FaultInjector:
    specs = [
        FaultSpec(kind=kind, rate_hz=rate_hz, magnitude=m)
        for kind, m in zip(CHAOS_KINDS, (1.0, 0.5, 1.0, 1.0))
    ]
    return FaultInjector(specs, seed=seed, horizon_s=horizon_s)


def noisy_chain(seed: int) -> ReadoutChain:
    return ReadoutChain(
        SystemParams(), rng=np.random.default_rng(seed), backend="fast"
    )


def monitor_output() -> str:
    """A 2x2 sequential scan, then a faulted streaming USB session."""
    rng = np.random.default_rng(SEED)
    chain = noisy_chain(SEED)
    params = chain.params
    contact = ContactModel(
        contact=params.contact,
        tissue=params.tissue,
        mean_arterial_pressure_pa=(80 + 40 / 3) * PASCAL_PER_MMHG,
    )
    coupling = TonometricCoupling(
        chain.chip.array.geometry,
        contact,
        placement=ArrayPlacement(lateral_offset_m=0.5e-3),
        rng=rng,
    )
    monitor = BloodPressureMonitor(chain, coupling)
    scan_s = SCAN_DWELL_S * chain.chip.array.n_elements
    truth = VirtualPatient(rng=rng).record(
        duration_s=scan_s + RECORD_S, sample_rate_hz=2000.0
    )
    fs = params.modulator.sampling_rate_hz
    dwell = int(SCAN_DWELL_S * fs)
    n_elements = chain.chip.array.n_elements
    arterial = truth.interp_pressure_pa(np.arange(dwell * n_elements) / fs)
    segments = coupling.scan_pressure_segments(arterial, dwell)
    records = ScanController(chain.chip.mux).scan_records(chain, segments)
    best = int(np.argmax(np.ptp(records[8:], axis=0)))
    faults = link_faults(SEED + 1, RECORD_S, rate_hz=2.0)
    sessions = []
    recording, telemetry = monitor.record_streaming(
        truth, scan_s, scan_s + RECORD_S, element=best, chunk_s=CHUNK_S,
        on_chunk=lambda session, words: sessions.append(session),
        faults=faults,
    )
    assert telemetry.lost_frames > 0 and telemetry.crc_errors > 0
    counters = (
        telemetry.frames_framed, telemetry.frames_decoded,
        telemetry.lost_frames, telemetry.crc_errors,
        telemetry.stale_frames, telemetry.resync_bytes,
        telemetry.words_delivered, telemetry.faults_injected,
    )
    return digest(
        records, best, recording.codes, recording.quality, counters,
        gap_records(sessions[-1].stream),
    )


def batch_output() -> str:
    """Four lockstep lanes; lane 2's chain carries an injector's hooks."""
    chains = [noisy_chain(SEED + 10 + lane) for lane in range(LANES)]
    faults = FaultInjector(
        [
            FaultSpec("stuck_comparator", start_s=0.05, duration_s=0.02),
            FaultSpec("word_corruption", rate_hz=40.0, magnitude=1024.0),
        ],
        seed=SEED + 2,
        horizon_s=BATCH_SAMPLES / 128000.0,
    )
    faults.bind(chains[2])
    t = np.arange(BATCH_SAMPLES) / 128000.0
    session = BatchAcquisitionSession(chains, element=1)
    for i0 in range(0, BATCH_SAMPLES, BATCH_CHUNK):
        tt = t[i0 : i0 + BATCH_CHUNK, None]
        fields = [
            2500.0 + (500.0 + 40 * lane) * np.sin(2 * np.pi * 8.0 * tt + lane)
            + np.zeros((1, 4))
            for lane in range(LANES)
        ]
        with faults.wired(chains[2]):
            session.feed_pressure(fields)
    session.finish()
    assert faults.events_applied > 0
    tm = session.aggregate_telemetry()
    counters = (
        tm.mod_samples_in, tm.clipped_samples, tm.words_filtered,
        tm.words_suppressed, tm.frames_framed, tm.words_delivered,
    )
    return digest(*(session.codes(l) for l in range(LANES)), counters)


async def _gateway_run():
    server = GatewayServer(queue_chunks=4096)
    host, port = await server.start()
    clients = [
        DeviceClient(
            host,
            port,
            device_id=did,
            payloads=synthetic_payloads(FRAMES, SAMPLES_PER_FRAME),
            faults=link_faults(
                SEED + 20 + did, FRAMES / FRAME_RATE_HZ, rate_hz=4.0
            ),
            fault_frame_rate_hz=FRAME_RATE_HZ,
            coalesce_payloads=7,
        )
        for did in range(DEVICES)
    ]
    reports = await asyncio.gather(*(c.run() for c in clients))
    assert await server.drain(timeout_s=10.0)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + 5.0
    while loop.time() < deadline and not all(
        did in server.sessions and server.sessions[did].finalized
        for did in range(DEVICES)
    ):
        await asyncio.sleep(0.005)
    await server.stop()
    return server, reports


def gateway_output() -> str:
    """Three faulted devices through one loopback gateway."""
    server, reports = asyncio.run(_gateway_run())
    parts = []
    for did in range(DEVICES):
        session = server.sessions[did]
        session.reconcile()
        view = session.telemetry_view()
        parts += [
            session.stream.samples(0),
            gap_records(session.stream),
            (
                view.frames_framed, view.frames_decoded, view.lost_frames,
                view.stale_frames, view.crc_errors, view.resync_bytes,
                view.frames_unaccounted, view.words_delivered,
                session.tail_lost_frames, session.chunks_shed,
                reports[did].frames_sent, reports[did].faults_injected,
            ),
        ]
    fleet = server.fleet_telemetry()
    assert fleet.lost_frames and fleet.crc_errors and fleet.stale_frames
    return digest(*parts)


def wire_output() -> str:
    """Encoder bytes over random frame sizes, dtypes and switches."""
    h = hashlib.sha256()
    rng = np.random.default_rng(SEED + 30)
    for _ in range(60):
        spf = int(rng.integers(1, 256))
        enc = FrameEncoder(spf)
        enc._sequence = int(rng.integers(0, 0x10000))
        for _ in range(int(rng.integers(1, 20))):
            if rng.random() < 0.1:
                h.update(enc.flush())
                continue
            dtype = (np.int64, np.int16, np.uint8)[int(rng.integers(0, 3))]
            low = 0 if dtype is np.uint8 else -32768
            high = 256 if dtype is np.uint8 else 32768
            n = int(rng.integers(0, 3 * spf + 2))
            codes = rng.integers(low, high, size=n).astype(dtype)
            element = int(rng.integers(0, 3)) if rng.random() < 0.3 else 0
            h.update(enc.push(codes, element))
            h.update(str(enc.pending_samples).encode())
        h.update(enc.flush())
    return h.hexdigest()


RUNS = {
    "monitor": monitor_output,
    "batch": batch_output,
    "gateway": gateway_output,
    "wire": wire_output,
}


@pytest.fixture(params=["native", "no_native"])
def library(request):
    if request.param == "no_native":
        request.getfixturevalue("no_native")
    return request.param


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_digest(name, library):
    if np.__version__ != PINNED_NUMPY:
        pytest.fail(
            f"digests were pinned under NumPy {PINNED_NUMPY}, this is "
            f"NumPy {np.__version__}: a release can change seeded streams "
            "and rounding. Re-pin: run `PYTHONPATH=src python "
            "tests/integration/test_pinned_run_digests.py`, check the "
            "change is expected, and copy its output over DIGESTS and "
            "PINNED_NUMPY."
        )
    value = RUNS[name]()
    assert value == DIGESTS[name], (
        f"{name} moved: {value} != pinned {DIGESTS[name]}"
    )


if __name__ == "__main__":
    print(f'PINNED_NUMPY = "{np.__version__}"')
    for name, run in RUNS.items():
        print(f'    "{name}": "{run()}",')
