"""The device client's group sends, against a written-out wire spec.

An in-memory link stands in for the gateway: each connection records
every ``write()`` call as one entry and answers the HELLO with an ACK
(``None`` unless a test says otherwise), so a test sees the client's
write granularity as well as its bytes. The spec each test compares
with is built from the payloads alone: payload wires concatenated and
cut at group boundaries, where a group ends at the next multiple of
``coalesce_payloads`` or ``drop_every`` (every payload when paced).
"""

import asyncio
import itertools

import numpy as np
import pytest

from repro.daq.usb import FrameEncoder, frame_sequence, split_frames
from repro.faults import FaultInjector, FaultSpec
from repro.gateway.chaos import CHAOS_KINDS
from repro.gateway.client import DeviceClient, DeviceReport
from repro.gateway.protocol import pack_ack, pack_bye, pack_hello
from repro.gateway.server import GatewayServer

DEVICE = 12
FRAME_RATE_HZ = 50.0


class _Writer:
    def __init__(self, link, reader, writes, resume_acks):
        self.link, self.reader, self.writes = link, reader, writes
        self.resume_acks = resume_acks

    def write(self, data):
        if not self.writes:  # the HELLO: answer with the handshake ACK
            resume = data == pack_hello(DEVICE, resume=True)
            acked = next(self.resume_acks) if resume else None
            self.reader.feed_data(pack_ack(acked))
        self.writes.append(bytes(data))
        self.link.pulled_at_write.append(self.link.pulled)

    async def drain(self):
        if self.link.fail_drains and len(self.writes) > 1:
            self.link.fail_drains -= 1
            raise ConnectionResetError("drain failed")

    def close(self):
        self.reader.feed_eof()

    async def wait_closed(self):
        pass


class _Link:
    """One list of write() calls per connection; ACK on every HELLO."""

    def __init__(self, resume_acks=(), fail_drains=0):
        self.connections: list[list[bytes]] = []
        self.resume_acks = itertools.chain(resume_acks, itertools.repeat(None))
        self.fail_drains = fail_drains
        #: Payloads a live client had pulled, sampled at every write.
        self.pulled = 0
        self.pulled_at_write: list[int] = []

    async def open_connection(self, host, port):
        reader = asyncio.StreamReader()
        writes: list[bytes] = []
        self.connections.append(writes)
        return reader, _Writer(self, reader, writes, self.resume_acks)


@pytest.fixture
def link(monkeypatch):
    fake = _Link()
    monkeypatch.setattr(asyncio, "open_connection", fake.open_connection)
    return fake


def _payloads(n=23, spf=8):
    """Payloads of 1-3 frames each, sequence-numbered from 0."""
    encoder = FrameEncoder(samples_per_frame=spf)
    codes = np.arange(3 * spf * n, dtype=np.int16)
    out, pos = [], 0
    for k in range(n):
        size = spf * (1 + k % 3)
        out.append(encoder.push(codes[pos : pos + size], 0))
        pos += size
    return out


def _single_frames(n=20, spf=8):
    """One-frame payloads, frame ``k`` holding the value ``k``."""
    encoder = FrameEncoder(samples_per_frame=spf)
    return [encoder.push(np.full(spf, k, dtype=np.int16), 0) for k in range(n)]


def _injector(n_frames):
    specs = [FaultSpec(k, rate_hz=4.0, magnitude=0.5) for k in CHAOS_KINDS]
    return FaultInjector(specs, seed=3, horizon_s=n_frames / FRAME_RATE_HZ)


def _spec(payloads, wires, coalesce=1, drop=None, paced=False, faults=0):
    """Per-connection writes, per-write stamped sequences and the report
    of a run whose link ACKs nothing (so a resume replays every frame
    sent so far)."""
    n = len(payloads)
    frames = [split_frames(p) for p in payloads]
    connections = [[pack_hello(DEVICE)]]
    stamped, sent = [], []
    report = DeviceReport(
        device_id=DEVICE, payloads=n, faults_injected=faults, bye_sent=True
    )
    start = 0
    for end in range(1, n + 1):
        if not (paced or end % coalesce == 0 or end == n):
            if not (drop and end % drop == 0):
                continue
        wire = b"".join(wires[start:end])
        group = [f for p in frames[start:end] for f in p]
        start = end
        if wire:
            connections[-1].append(wire)
        if group:
            stamped.append([frame_sequence(f) for f in group])
        sent += group
        report.bytes_sent += len(wire)
        if drop and end % drop == 0:
            report.forced_drops += 1
            connections.append([pack_hello(DEVICE, resume=True)])
            if sent:
                connections[-1].append(b"".join(sent))
                stamped.append([frame_sequence(f) for f in sent])
                report.frames_replayed += len(sent)
                report.bytes_sent += len(connections[-1][-1])
    connections[-1].append(pack_bye(len(sent), faults))
    report.frames_sent = len(sent)
    report.reconnects = report.forced_drops
    report.acks_received = len(connections)
    return connections, stamped, report


def _client(payloads, stamps, **kw):
    return DeviceClient(
        "fake",
        0,
        device_id=DEVICE,
        payloads=payloads,
        fault_frame_rate_hz=FRAME_RATE_HZ,
        heartbeat_s=float("inf"),
        on_frame_sent=lambda seq, t: stamps.append((seq, t)),
        clock=itertools.count().__next__,
        **kw,
    )


def _by_stamp(stamps):
    """Stamped sequences grouped by stamp: one list per write."""
    return [
        [seq for seq, _ in group]
        for _, group in itertools.groupby(stamps, key=lambda st: st[1])
    ]


class TestWireIdentity:
    @pytest.mark.parametrize("faulted", [False, True])
    @pytest.mark.parametrize("drop", [None, 7])
    @pytest.mark.parametrize("coalesce", [1, 7, 50])
    @pytest.mark.parametrize("prepared", [False, True])
    def test_group_writes_match_spec(
        self, link, prepared, coalesce, drop, faulted
    ):
        payloads = _payloads()
        n_frames = sum(len(split_frames(p)) for p in payloads)
        faults = _injector(n_frames) if faulted else None
        stamps = []
        client = _client(
            iter(payloads),
            stamps,
            faults=faults,
            coalesce_payloads=coalesce,
            drop_every=drop,
        )
        if prepared:
            client.prepare()
        report = asyncio.run(client.run())

        wires = payloads
        if faulted:
            reference = _injector(n_frames)
            reference.bind_link(FRAME_RATE_HZ)
            wires = [reference.apply_payload(p) for p in payloads]
            assert reference.events_applied > 0
        applied = faults.events_applied if faulted else 0
        connections, stamped, want = _spec(
            payloads, wires, coalesce, drop, faults=applied
        )
        assert link.connections == connections
        assert _by_stamp(stamps) == stamped
        assert report == want

    def test_paced_client_sends_each_payload_alone(self, link):
        payloads = _payloads(9)
        stamps = []
        client = _client(
            payloads, stamps, pace_s=1e-4, coalesce_payloads=4, drop_every=4
        )
        report = asyncio.run(client.run())
        connections, stamped, want = _spec(payloads, payloads, 4, 4, True)
        assert link.connections == connections
        assert _by_stamp(stamps) == stamped
        assert report == want

    def test_template_stream_serves_another_coalescing(self, link):
        # A template prepared one payload per group hands its stream
        # and its (already applied) injector to a client that sends 7
        # payloads per group.
        payloads = _payloads()
        n_frames = sum(len(split_frames(p)) for p in payloads)
        template = _client(payloads, [], faults=_injector(n_frames))
        template.prepare()
        stamps = []
        client = _client((), stamps, coalesce_payloads=7, replay_limit=99)
        client._prepared = template._prepared
        client.faults = template.faults
        report = asyncio.run(client.run())

        reference = _injector(n_frames)
        reference.bind_link(FRAME_RATE_HZ)
        wires = [reference.apply_payload(p) for p in payloads]
        applied = template.faults.events_applied
        assert applied == reference.events_applied > 0
        connections, stamped, want = _spec(payloads, wires, 7, faults=applied)
        assert link.connections == connections
        assert _by_stamp(stamps) == stamped
        # The copy flattened nothing itself; its report and its BYE both
        # read the shared injector's count, the faults its bytes carry.
        assert report == want


class TestReplayBookkeeping:
    def test_eviction_is_counted_and_keeps_the_newest(self, link):
        frames = _single_frames()
        client = _client(frames, [], replay_limit=5, coalesce_payloads=7)
        report = asyncio.run(client.run())
        assert report.frames_sent == 20
        assert report.replay_evictions == 15
        assert list(client._replay) == [frame_sequence(f) for f in frames[15:]]
        assert list(client._replay.values()) == frames[15:]

    def test_resume_retransmits_exactly_the_unacked(self, monkeypatch):
        frames = _single_frames()
        link = _Link(resume_acks=[4, 11])
        monkeypatch.setattr(asyncio, "open_connection", link.open_connection)
        stamps = []
        client = _client(frames, stamps, drop_every=7)
        report = asyncio.run(client.run())
        # The first resume ACKs frame 4 of the 7 sent (0-6): frames 5, 6
        # go again. The second ACKs 11: of the buffered 5-13, 12 and 13.
        assert link.connections[1][1] == frames[5] + frames[6]
        assert link.connections[2][1] == frames[12] + frames[13]
        assert report.frames_replayed == 4
        assert report.frames_sent == 20
        assert _by_stamp(stamps)[7] == [5, 6]

    def test_live_client_sends_before_its_source_ends(self, link):
        payloads = _payloads(20)

        def source():
            for payload in payloads:
                link.pulled += 1
                yield payload

        client = _client(source(), [], coalesce_payloads=5)
        report = asyncio.run(client.run())
        # Write 0 is the HELLO; write 1 is the first group, sent once
        # its 5 payloads were pulled and not one more.
        assert link.pulled_at_write[1] == 5
        assert report.payloads == 20


class TestFailedDrain:
    """A group whose drain raised was still sent once: the BYE says so."""

    def test_first_transmission_counts_at_handoff(self, monkeypatch):
        frames = _single_frames()
        link = _Link(fail_drains=1)
        monkeypatch.setattr(asyncio, "open_connection", link.open_connection)
        client = _client(frames, [], coalesce_payloads=5)
        report = asyncio.run(client.run())
        assert report.frames_sent == 20
        assert report.frames_replayed == 5
        assert report.bytes_sent == 25 * len(frames[0])
        assert link.connections[-1][-1] == pack_bye(20)

    def test_gateway_books_close_after_a_failed_drain(self):
        class FlakyDrain(DeviceClient):
            failures = 1

            async def _connect(self, resume):
                await super()._connect(resume)
                writer, drain = self._writer, self._writer.drain

                async def flaky():
                    if self.failures:
                        self.failures -= 1
                        raise ConnectionResetError("drain failed")
                    await drain()

                writer.drain = flaky

        async def body():
            server = GatewayServer()
            await server.start()
            try:
                client = FlakyDrain(
                    server.host,
                    server.port,
                    device_id=DEVICE,
                    payloads=_single_frames(),
                    coalesce_payloads=5,
                )
                report = await client.run()
                assert await server.drain()
                session = server.sessions[DEVICE]
                for _ in range(200):
                    if session.bye_seen and session.finalized:
                        break
                    await asyncio.sleep(0.01)
                return report, session
            finally:
                await server.stop()

        report, session = asyncio.run(body())
        # At the handoff count the BYE carries all 20 frames; counting
        # after the drain, it said 15 and the books could not close.
        assert report.frames_sent == 20
        view = session.telemetry_view()
        assert view.frames_framed == 20
        assert view.frames_decoded == 20
        assert view.frames_unaccounted == 0
        session.reconcile()
