"""BatchPlane scheduler: flush policy, lane lifecycle, telemetry."""

import asyncio

import numpy as np
import pytest

from repro.daq.usb import FrameEncoder
from repro.errors import ConfigurationError
from repro.gateway.batchplane import BatchPlane
from repro.gateway.connection import DeviceSession
from repro.gateway.server import GatewayServer


def _payload(n_frames=3, spf=8):
    enc = FrameEncoder(samples_per_frame=spf)
    return enc.push(np.arange(n_frames * spf, dtype=np.int16), 0)


def _armed_session(plane, device_id=1, payload=None):
    session = DeviceSession(device_id=device_id)
    session.fresh_start()
    plane.attach(session)
    chunk = payload if payload is not None else _payload()
    assert session.offer(chunk)
    plane.notify(session, len(chunk))
    return session


class TestFlushPolicy:
    def test_size_flush_fires_immediately(self):
        async def scenario():
            # Deadline far away: only occupancy can trigger the tick.
            plane = BatchPlane(flush_bytes=8, max_latency_s=30.0)
            plane.start()
            session = _armed_session(plane)
            await asyncio.wait_for(plane.idle.wait(), timeout=5.0)
            await plane.stop()
            return plane, session

        plane, session = asyncio.run(scenario())
        assert session.decoder.frames_decoded == 3
        assert plane.size_flushes == 1
        assert plane.deadline_flushes == 0
        assert session.queue.empty()

    def test_deadline_flush_bounds_latency(self):
        async def scenario():
            # Occupancy target unreachable: only the deadline can fire.
            plane = BatchPlane(flush_bytes=1 << 30, max_latency_s=0.005)
            plane.start()
            session = _armed_session(plane)
            await asyncio.wait_for(plane.idle.wait(), timeout=5.0)
            await plane.stop()
            return plane, session

        plane, session = asyncio.run(scenario())
        assert session.decoder.frames_decoded == 3
        assert plane.deadline_flushes == 1
        assert plane.size_flushes == 0

    def test_one_tick_decodes_every_armed_lane(self):
        plane = BatchPlane(flush_bytes=1 << 30, max_latency_s=1.0)
        sessions = [
            _armed_session(plane, device_id=n) for n in range(4)
        ]
        plane.flush(cause="deadline")
        for session in sessions:
            assert session.decoder.frames_decoded == 3
            assert session.queue.empty()
        assert plane.ticks == 1
        assert plane.occupancy_max == 4
        assert plane.metrics()["occupancy_mean"] == 4.0
        assert plane.pending_bytes == 0
        assert plane.idle.is_set()

    def test_stop_drains_pending(self):
        async def scenario():
            plane = BatchPlane(flush_bytes=1 << 30, max_latency_s=30.0)
            plane.start()
            session = _armed_session(plane)
            await plane.stop()  # nothing fired yet: stop must flush
            return plane, session

        plane, session = asyncio.run(scenario())
        assert session.decoder.frames_decoded == 3
        assert plane.drain_flushes == 1

    def test_stop_returns_when_data_lands_with_the_cancel(self):
        async def scenario():
            plane = BatchPlane(flush_bytes=1 << 30, max_latency_s=30.0)
            plane.start()
            enc = FrameEncoder(samples_per_frame=8)
            codes = np.arange(24, dtype=np.int16)
            session = _armed_session(plane, payload=enc.push(codes, 0))
            for _ in range(3):  # let the scheduler reach its deadline wait
                await asyncio.sleep(0)
            chunk = enc.push(codes, 0)
            assert session.offer(chunk)
            # The wake and the stop's cancel land in the same loop step.
            plane.notify(session, len(chunk))
            stop = asyncio.ensure_future(plane.stop())
            done, _ = await asyncio.wait({stop}, timeout=5.0)
            if not done:  # free the stuck scheduler so the loop can close
                plane._task.cancel()
                await stop
            return plane, session, bool(done)

        plane, session, stopped = asyncio.run(scenario())
        assert stopped
        assert session.decoder.frames_decoded == 6
        assert plane.drain_flushes == 1


class TestServerDrain:
    def test_drain_waits_on_the_plane_idle_signal(self):
        async def scenario():
            server = GatewayServer()
            assert await server.drain(timeout_s=0.01)  # no plane yet
            server.plane = BatchPlane(flush_bytes=1 << 30, max_latency_s=30.0)
            session = _armed_session(server.plane)
            assert not await server.drain(timeout_s=0.01)
            server.plane.flush(cause="drain")
            assert await server.drain(timeout_s=0.01)
            return session

        session = asyncio.run(scenario())
        assert session.decoder.frames_decoded == 3
        assert session.queue.empty()


class TestLaneLifecycle:
    def test_flush_lane_decodes_one_backlog(self):
        plane = BatchPlane()
        session = _armed_session(plane)
        other = _armed_session(plane, device_id=2)
        assert plane.flush_lane(session) == 3
        # Only the resumed lane was decoded; the other stays armed.
        assert session.decoder.frames_decoded == 3
        assert other.decoder.frames_decoded == 0
        assert not plane.idle.is_set()
        # Idempotent: an unarmed lane flushes to nothing.
        assert plane.flush_lane(session) == 0

    def test_flush_lane_is_a_booked_resume_tick(self):
        plane = BatchPlane(flush_bytes=1 << 30, max_latency_s=1.0)
        resumed = _armed_session(plane)
        other = _armed_session(plane, device_id=2)
        plane.flush_lane(resumed)
        plane.flush(cause="deadline")
        m = plane.metrics()
        assert m["frames_decoded"] == sum(
            s.decoder.frames_decoded for s in (resumed, other)
        )
        assert m["bytes_decoded"] == 2 * len(_payload())
        assert m["ticks"] == 2
        assert m["resume_flushes"] == 1
        assert m["deadline_flushes"] == 1

    def test_detach_discards_queued_bytes(self):
        plane = BatchPlane()
        session = _armed_session(plane)
        plane.detach(session)
        assert session.queue.qsize() == 0
        assert session.decoder.frames_decoded == 0  # discarded, not decoded
        assert plane.pending_bytes == 0
        assert plane.idle.is_set()
        assert not plane.lanes

    def test_detach_ignores_replaced_session(self):
        plane = BatchPlane()
        session = _armed_session(plane, device_id=7)
        replacement = DeviceSession(device_id=7)
        plane.attach(replacement)
        plane.detach(session)  # stale object: must not drop the lane
        assert plane.lanes[7] is replacement


class TestValidationAndMetrics:
    def test_knobs_validated(self):
        with pytest.raises(ConfigurationError):
            BatchPlane(flush_bytes=0)
        with pytest.raises(ConfigurationError):
            BatchPlane(max_latency_s=0.0)

    def test_double_start_rejected(self):
        async def scenario():
            plane = BatchPlane()
            plane.start()
            try:
                with pytest.raises(ConfigurationError):
                    plane.start()
            finally:
                await plane.stop()

        asyncio.run(scenario())

    def test_metrics_account_flush_causes(self):
        plane = BatchPlane(flush_bytes=64, max_latency_s=0.5)
        _armed_session(plane)
        plane.flush(cause="size")
        _armed_session(plane, device_id=2)
        plane.flush(cause="deadline")
        m = plane.metrics()
        assert m["ticks"] == 2
        assert m["size_flushes"] == 1
        assert m["deadline_flushes"] == 1
        assert m["deadline_flush_fraction"] == 0.5
        assert m["frames_decoded"] == 6
        assert m["bytes_decoded"] == 2 * len(_payload())
        assert m["lanes"] == 2
        assert m["pending_bytes"] == 0
        assert m["crc_path"] in ("native", "reference")

    def test_close_flush_is_counted(self):
        plane = BatchPlane(flush_bytes=1 << 30, max_latency_s=30.0)
        _armed_session(plane)
        _armed_session(plane, device_id=2)
        assert plane.flush(cause="close") == 6
        m = plane.metrics()
        assert m["close_flushes"] == 1
        assert m["close_flush_fraction"] == 1.0
        assert m["occupancy_max"] == 2  # the other lane rode along
        assert plane.idle.is_set()

    def test_unknown_cause_rejected_before_intake(self):
        plane = BatchPlane()
        session = _armed_session(plane)
        with pytest.raises(ConfigurationError):
            plane.flush(cause="bogus")
        assert plane.pending_bytes == len(_payload())
        assert plane.flush(cause="deadline") == 3
        assert session.decoder.frames_decoded == 3
