"""Gateway end-to-end: real sockets, real reconnects, exact content.

pytest-asyncio is not available here, so every test is a synchronous
function that owns its event loop via ``asyncio.run`` — which doubles as
a leak check: a dangling task would make loop close noisy/undead.
"""

import asyncio
import socket
import struct

import numpy as np
import pytest

from repro.core.chain import ReadoutChain
from repro.daq.usb import FrameEncoder
from repro.errors import GatewayError
from repro.gateway.client import (
    DeviceClient,
    batch_chain_payloads,
    chain_payloads,
    expected_codes,
    synthetic_payloads,
)
from repro.gateway.protocol import pack_bye, pack_hello
from repro.gateway.server import GatewayServer


def _run(coro):
    return asyncio.run(coro)


async def _with_server(body, **server_kw):
    server = GatewayServer(**server_kw)
    await server.start()
    try:
        return await body(server)
    finally:
        await server.stop()


async def _until(predicate, timeout_s=2.0):
    """Poll ``predicate`` until true (True) or ``timeout_s`` passes."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        if loop.time() > deadline:
            return False
        await asyncio.sleep(0.01)
    return True


async def _raw_device(server, device_id, wire):
    """HELLO, wait for the ACK, then put ``wire`` on the socket."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(pack_hello(device_id))
    await writer.drain()
    assert await reader.read(64)  # the handshake ACK
    writer.write(wire)
    await writer.drain()
    return writer


def _closed(server, device_id):
    session = server.sessions.get(device_id)
    return session is not None and session.bye_seen and session.finalized


class TestSingleDevice:
    def test_round_trip_is_bit_exact(self):
        frames, spf = 40, 32

        async def body(server):
            client = DeviceClient(
                server.host,
                server.port,
                device_id=7,
                payloads=synthetic_payloads(frames, spf),
            )
            report = await client.run()
            assert await server.drain()
            return report

        report = _run(_with_server(body))
        assert report.frames_sent == frames
        assert report.bye_sent
        assert report.acks_received >= 1

    def test_session_books_closed(self):
        frames, spf = 24, 16

        async def body(server):
            client = DeviceClient(
                server.host,
                server.port,
                device_id=3,
                payloads=synthetic_payloads(frames, spf),
            )
            await client.run()
            assert await server.drain()
            session = server.sessions[3]
            view = session.telemetry_view()
            assert session.bye_seen
            assert view.frames_framed == frames
            assert view.frames_decoded == frames
            assert view.lost_frames == 0
            assert view.crc_errors == 0
            assert view.frames_unaccounted == 0
            server.reconcile()
            assert server.metrics()["server"]["decode_plane"] == "batch"
            got = session.codes(0)
            assert np.array_equal(got, expected_codes(frames, spf))

        _run(_with_server(body))

    def test_many_devices_isolated_sessions(self):
        ids = [11, 22, 33, 44]
        frames, spf = 10, 8

        async def body(server):
            clients = [
                DeviceClient(
                    server.host,
                    server.port,
                    device_id=d,
                    payloads=synthetic_payloads(frames, spf),
                )
                for d in ids
            ]
            await asyncio.gather(*(c.run() for c in clients))
            assert await server.drain()
            assert sorted(server.sessions) == ids
            for d in ids:
                view = server.sessions[d].telemetry_view()
                assert view.frames_decoded == frames
                assert view.frames_unaccounted == 0
            fleet = server.fleet_telemetry()
            assert fleet.frames_decoded == frames * len(ids)
            server.reconcile()

        _run(_with_server(body))


class TestReconnectResume:
    def test_forced_drops_lose_nothing(self):
        frames, spf = 30, 16

        async def body(server):
            client = DeviceClient(
                server.host,
                server.port,
                device_id=5,
                payloads=synthetic_payloads(frames, spf),
                drop_every=7,
                heartbeat_s=0.02,
            )
            report = await client.run()
            assert await server.drain()
            assert report.forced_drops == 4
            assert report.reconnects == 4
            session = server.sessions[5]
            view = session.telemetry_view()
            # Replay-on-resume covers every un-acked frame, so the books
            # close with zero loss; overlap lands as counted stale.
            assert view.frames_decoded == frames
            assert view.lost_frames == 0
            assert view.frames_unaccounted == 0
            assert session.reconnects == 4
            assert np.array_equal(
                session.codes(0), expected_codes(frames, spf)
            )
            server.reconcile()

        _run(_with_server(body))

    def test_fresh_hello_restarts_books(self):
        spf = 8

        async def body(server):
            for _ in range(2):
                client = DeviceClient(
                    server.host,
                    server.port,
                    device_id=9,
                    payloads=synthetic_payloads(5, spf),
                )
                await client.run()
                assert await server.drain()
            session = server.sessions[9]
            # Second run replaced the books: 5 frames, not 10.
            assert session.telemetry_view().frames_decoded == 5
            server.reconcile()

        _run(_with_server(body))


    def test_plane_books_the_resume_decode(self):
        # The resume handshake decodes the lane's backlog before its
        # ACK; the plane must count those frames like any other tick.
        enc = FrameEncoder(samples_per_frame=8)
        first = enc.push(np.arange(24, dtype=np.int16), 0)
        second = enc.push(np.arange(16, dtype=np.int16), 0)

        async def body(server):
            writer = await _raw_device(server, 4, first)
            writer.close()  # no BYE: the device will resume
            await writer.wait_closed()
            assert await _until(
                lambda: server.sessions[4].state.value != "healthy"
            )
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(pack_hello(4, resume=True))
            await writer.drain()
            assert await reader.read(64)  # ACK, after the resume tick
            writer.write(second + pack_bye(5))
            writer.close()
            await writer.wait_closed()
            assert await _until(lambda: _closed(server, 4))
            m = server.plane.metrics()
            assert m["frames_decoded"] == sum(
                s.decoder.frames_decoded for s in server.sessions.values()
            )
            assert m["frames_decoded"] == 5
            assert m["resume_flushes"] == 1
            server.reconcile()

        _run(_with_server(body, max_latency_s=0.5))


class TestChainEquivalence:
    def test_gateway_stream_matches_direct_chain(self):
        """A fault-free gateway transit of a full physics-chain stream is
        bit-identical to running the same chain directly."""
        n = 128 * 30
        t = np.arange(n) / 128000.0
        field = 2500.0 + 600.0 * np.sin(2 * np.pi * 8.0 * t)[:, None]
        field = np.repeat(field, 4, axis=1)

        direct = ReadoutChain(
            rng=np.random.default_rng(11), backend="fast"
        ).record_pressure(field, element=2)

        async def body(server):
            chain = ReadoutChain(
                rng=np.random.default_rng(11), backend="fast"
            )
            client = DeviceClient(
                server.host,
                server.port,
                device_id=2,
                payloads=chain_payloads(chain, field, element=2),
            )
            await client.run()
            assert await server.drain()
            return server.sessions[2].codes(2)

        via_gateway = _run(_with_server(body))
        assert np.array_equal(via_gateway, direct.codes)

    def test_batch_payloads_bitwise_match_per_device_runs(self):
        """One fused batched pass frames the same bytes per device as
        B independent chain_payloads runs — words, element tags and
        sequence numbers all included."""
        B = 3
        n = 128 * 20
        t = np.arange(n) / 128000.0
        base = 2500.0 + 600.0 * np.sin(2 * np.pi * 8.0 * t)
        fields = [
            np.repeat((base + 40.0 * l)[:, None], 4, axis=1)
            for l in range(B)
        ]

        singles = [
            b"".join(
                chain_payloads(
                    ReadoutChain(rng=np.random.default_rng(30 + l)),
                    fields[l],
                    element=2,
                )
            )
            for l in range(B)
        ]
        chains = [
            ReadoutChain(rng=np.random.default_rng(30 + l))
            for l in range(B)
        ]
        batched = batch_chain_payloads(chains, fields, element=2)
        for lane in range(B):
            assert b"".join(batched[lane]) == singles[lane]

    def test_batch_payloads_stream_through_gateway(self):
        """A two-device fleet generated by the batched kernel transits
        the gateway bit-exactly, device by device."""
        n = 128 * 16
        t = np.arange(n) / 128000.0
        base = 2500.0 + 500.0 * np.sin(2 * np.pi * 6.0 * t)
        fields = [
            np.repeat((base + 25.0 * l)[:, None], 4, axis=1)
            for l in range(2)
        ]
        direct = [
            ReadoutChain(rng=np.random.default_rng(60 + l)).record_pressure(
                fields[l], element=1
            )
            for l in range(2)
        ]

        async def body(server):
            chains = [
                ReadoutChain(rng=np.random.default_rng(60 + l))
                for l in range(2)
            ]
            fleet = batch_chain_payloads(chains, fields, element=1)
            clients = [
                DeviceClient(
                    server.host,
                    server.port,
                    device_id=l + 1,
                    payloads=fleet[l],
                )
                for l in range(2)
            ]
            await asyncio.gather(*(c.run() for c in clients))
            assert await server.drain()
            return [server.sessions[l + 1].codes(1) for l in range(2)]

        via_gateway = _run(_with_server(body))
        for lane in range(2):
            assert np.array_equal(via_gateway[lane], direct[lane].codes)


class TestFailureModes:
    def test_unreachable_gateway_raises_after_budget(self):
        async def body():
            client = DeviceClient(
                "127.0.0.1",
                1,  # nothing listens on port 1
                device_id=1,
                payloads=synthetic_payloads(1),
                max_retries=3,
                backoff=None,
            )
            client.backoff.initial_s = 0.001
            client.backoff.cap_s = 0.002
            with pytest.raises(GatewayError):
                await client.run()
            assert client.report.retries == 2

        _run(body())

    def test_handshake_timeout_counts_failure(self):
        async def body(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            data = await reader.read(64)  # gateway hangs up on us
            assert data == b""
            writer.close()
            await asyncio.sleep(0.01)
            assert server.handshake_failures == 1
            assert not server.sessions

        _run(_with_server(body, hello_timeout_s=0.05))

    def test_stop_is_clean_midstream(self):
        async def body():
            server = GatewayServer()
            await server.start()
            client = DeviceClient(
                server.host,
                server.port,
                device_id=4,
                payloads=synthetic_payloads(200, 64),
                pace_s=0.001,
                max_retries=2,
            )
            task = asyncio.create_task(client.run())
            await asyncio.sleep(0.03)
            await server.stop()
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, GatewayError, ConnectionError):
                pass
            # Whatever was decoded before the plug was pulled is still
            # accounted; finalize() ran for every session.
            for session in server.sessions.values():
                assert session.finalized
                session.reconcile()

        _run(body())


class TestCleanClose:
    """A BYE that reached the gateway always closes the session."""

    def test_reset_after_bye_still_closes(self):
        # A client that closes with ACKs unread makes its kernel send
        # an RST, so the server's read raises after the BYE arrived.
        async def body(server):
            payload = FrameEncoder(samples_per_frame=8).push(
                np.arange(24, dtype=np.int16), 0
            )
            writer = await _raw_device(server, 5, payload + pack_bye(3))
            assert await _until(lambda: server.sessions[5].bye_seen)
            sock = writer.get_extra_info("socket")
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            writer.transport.abort()
            assert await _until(lambda: _closed(server, 5))
            session = server.sessions[5]
            assert session.telemetry_view().frames_decoded == 3
            session.reconcile()

        _run(_with_server(body))

    def test_bye_behind_truncated_last_frame_closes(self):
        # The last frame lost its tail on the link; its count byte still
        # claims the full length, which swallowed the BYE behind it.
        async def body(server):
            payload = FrameEncoder(samples_per_frame=32).push(
                np.arange(96, dtype=np.int16), 0
            )
            truncated = payload[: 2 * 73 + 27]  # 10 of the last 32 samples
            writer = await _raw_device(
                server, 6, truncated + pack_bye(3, faults_injected=1)
            )
            writer.close()
            await writer.wait_closed()
            assert await _until(lambda: _closed(server, 6))
            view = server.sessions[6].telemetry_view()
            assert view.frames_decoded == 2
            assert view.lost_frames == 1  # the truncated tail, booked
            assert view.frames_unaccounted == 0
            server.sessions[6].reconcile()

        _run(_with_server(body))

    def test_close_flush_does_not_wait_for_the_deadline(self):
        # A long deadline: only the close flush can decode the queue
        # before the session's books close.
        async def body(server):
            loop = asyncio.get_running_loop()
            payload = FrameEncoder(samples_per_frame=8).push(
                np.arange(24, dtype=np.int16), 0
            )
            writer = await _raw_device(server, 8, payload + pack_bye(3))
            t0 = loop.time()
            writer.close()
            await writer.wait_closed()
            assert await _until(lambda: _closed(server, 8), timeout_s=0.1)
            assert loop.time() - t0 < 0.1
            m = server.plane.metrics()
            assert m["deadline_flushes"] == 0
            assert m["close_flushes"] == 1
            assert m["frames_decoded"] == 3
            server.sessions[8].reconcile()

        _run(_with_server(body, max_latency_s=0.5))
