"""DeviceSession: backpressure, accounting and the telemetry view."""

import numpy as np
import pytest

from repro.daq.usb import FrameEncoder
from repro.errors import ConfigurationError
from repro.gateway.batchplane import BatchPlane
from repro.gateway.connection import DeviceSession
from repro.gateway.protocol import ControlEvent, pack_bye
from repro.gateway.server import GatewayServer


def _payload(n_frames=3, spf=8, start_codes=0):
    enc = FrameEncoder(samples_per_frame=spf)
    return enc.push(
        np.arange(start_codes, start_codes + n_frames * spf, dtype=np.int16),
        0,
    )


def _decode(session, chunk):
    """Queue one chunk and decode it as a batch-plane lane; frames."""
    plane = BatchPlane()
    plane.attach(session)
    assert session.offer(chunk)
    plane.notify(session, len(chunk))
    return plane.flush_lane(session)


def _bye_event(frames, faults=0):
    return ControlEvent("bye", frames_framed=frames, faults_injected=faults)


class TestBackpressure:
    def test_offer_sheds_counted_when_full(self):
        session = DeviceSession(device_id=1, queue_chunks=2)
        assert session.offer(b"a")
        assert session.offer(b"b")
        assert not session.offer(b"ccc")  # full: shed, never blocked
        assert session.chunks_shed == 1
        assert session.bytes_shed == 3
        assert session.queue.qsize() == 2
        assert session.queue_depth_peak == 2

    def test_empty_chunk_is_free(self):
        session = DeviceSession(device_id=1, queue_chunks=1)
        assert session.offer(b"")
        assert session.queue.qsize() == 0

    def test_queue_bound_validated(self):
        with pytest.raises(ConfigurationError):
            DeviceSession(device_id=1, queue_chunks=0)

    def test_server_queue_bound_validated(self):
        """The server refuses the bound up front, by the session's rule,
        instead of failing every handshake later."""
        with pytest.raises(ConfigurationError, match="chunk slot"):
            GatewayServer(queue_chunks=0)

    def test_shed_frames_surface_as_lost(self):
        session = DeviceSession(device_id=1)
        session.fresh_start()
        payload = _payload(3)
        size = len(payload) // 3
        _decode(session, payload[:size])  # frame 0 arrives
        # frame 1 was shed (never decoded); frame 2 reveals the gap
        _decode(session, payload[2 * size :])
        assert session.decoder.lost_frames == 1
        view = session.telemetry_view()
        assert view.frames_decoded == 2
        assert view.frames_framed == 3  # closed at decoded + lost


class TestAccounting:
    def test_decode_updates_telemetry(self):
        session = DeviceSession(device_id=1)
        n = _decode(session, _payload(2))
        assert n == 2
        tm = session.telemetry
        assert tm.frames_decoded == 2
        assert tm.words_delivered == 16
        assert tm.chunks == 1
        assert tm.stage_seconds["decode"] > 0.0

    def test_bye_closes_conservation(self):
        session = DeviceSession(device_id=1)
        session.fresh_start()
        _decode(session, _payload(2))
        session.note_bye(_bye_event(frames=3, faults=1))
        view = session.telemetry_view()
        assert view.frames_framed == 3
        assert view.faults_injected == 1
        assert view.frames_unaccounted == 1  # the tail frame that died
        session.reconcile()  # faults reported -> relaxation applies
        # finalize closes the books: the tail frame that produced
        # neither a decode nor a sequence gap is booked as lost.
        session.finalize()
        view = session.telemetry_view()
        assert session.tail_lost_frames == 1
        assert view.lost_frames == 1
        assert view.frames_unaccounted == 0
        session.reconcile()

    def test_finalize_books_no_tail_when_everything_arrived(self):
        session = DeviceSession(device_id=1)
        session.fresh_start()
        _decode(session, _payload(3))
        session.note_bye(_bye_event(frames=3))
        session.finalize()
        view = session.telemetry_view()
        assert session.tail_lost_frames == 0
        assert view.frames_unaccounted == 0
        session.reconcile()

    def test_without_bye_books_close_at_evidence(self):
        session = DeviceSession(device_id=1)
        _decode(session, _payload(2))
        view = session.telemetry_view()
        assert view.frames_framed == 2
        assert view.frames_unaccounted == 0
        session.reconcile()

    def test_reconcile_strict_when_clean(self):
        session = DeviceSession(device_id=1)
        session.fresh_start()
        _decode(session, _payload(2))
        session.reconcile()

    def test_last_acked_tracks_decoder(self):
        session = DeviceSession(device_id=1)
        assert session.last_acked is None
        session.fresh_start()
        assert session.last_acked == 0xFFFF  # expecting 0: nothing yet
        _decode(session, _payload(2))
        assert session.last_acked == 1

    def test_finalize_idempotent_and_drains_demux(self):
        session = DeviceSession(device_id=1)
        payload = _payload(1)
        # Half a frame through the demux: stays buffered...
        data, _ = session.demux(payload[:10])
        session.offer(data)
        assert session._demux.buffered == 10
        # ...until finalize hands it to the decoder (which waits for the
        # rest, then abandons the claim).
        _decode(session, payload[10:])  # the plane decoded a later chunk
        session.finalize()
        session.finalize()
        assert session.finalized
        assert session._demux.buffered == 0

    def test_metrics_json_able(self):
        import json

        session = DeviceSession(device_id=3)
        _decode(session, _payload(2))
        session.note_bye(_bye_event(2))
        blob = json.dumps(session.metrics())
        assert '"device_id": 3' in blob

    def test_codes_returns_decoded_words(self):
        session = DeviceSession(device_id=1)
        _decode(session, _payload(2))
        assert np.array_equal(session.codes(0), np.arange(16))


class TestControlPath:
    def test_demux_beats_watchdog(self):
        t = {"now": 0.0}
        session = DeviceSession(device_id=1, clock=lambda: t["now"])
        session.watchdog._clock = lambda: t["now"]
        session.watchdog._last_beat = 0.0
        t["now"] = 10.0
        session.demux(b"\x10")
        assert session.watchdog.silence_s == 0.0

    def test_bye_bytes_via_demux(self):
        session = DeviceSession(device_id=1)
        data, events = session.demux(pack_bye(5, 2))
        assert data == b""
        assert events[0].kind == "bye"
        session.note_bye(events[0])
        assert session.bye_seen
        assert session.frames_reported == 5
        assert session.faults_reported == 2
