"""Gateway wire protocol: control-plane packing and the two-plane demux."""

import numpy as np
import pytest

from repro.daq.usb import FrameEncoder, frame_sequence, split_frames
from repro.errors import ConfigurationError, FramingError
from repro.gateway.protocol import (
    ControlDemux,
    heartbeat,
    pack_ack,
    pack_bye,
    pack_hello,
)


def _data_payload(n_frames=2, spf=8, element=0):
    enc = FrameEncoder(samples_per_frame=spf)
    return enc.push(np.arange(n_frames * spf, dtype=np.int16), element)


class TestControlRoundTrip:
    def test_hello(self):
        _, events = ControlDemux().feed(pack_hello(0xDEADBEEF, resume=True))
        assert len(events) == 1
        assert events[0].kind == "hello"
        assert events[0].device_id == 0xDEADBEEF
        assert events[0].resume is True

    def test_hello_fresh(self):
        _, events = ControlDemux().feed(pack_hello(3))
        assert events[0].resume is False

    def test_ack(self):
        _, events = ControlDemux().feed(pack_ack(0xFFFF))
        assert events[0].kind == "ack"
        assert events[0].last_acked == 0xFFFF

    def test_ack_nothing_yet(self):
        _, events = ControlDemux().feed(pack_ack(None))
        assert events[0].last_acked is None

    def test_bye(self):
        _, events = ControlDemux().feed(pack_bye(123456, 7))
        assert events[0].kind == "bye"
        assert events[0].frames_framed == 123456
        assert events[0].faults_injected == 7

    def test_heartbeat(self):
        demux = ControlDemux()
        _, events = demux.feed(heartbeat() * 3)
        assert [e.kind for e in events] == ["heartbeat"] * 3
        assert demux.heartbeats == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            pack_hello(2**32)
        with pytest.raises(ConfigurationError):
            pack_ack(0x10000)
        with pytest.raises(ConfigurationError):
            pack_bye(-1)


class TestDemuxInterleaving:
    def test_planes_split_cleanly(self):
        data = _data_payload(2)
        wire = (
            pack_hello(9)
            + data[:25]
            + heartbeat()
            + data[25:]
            + pack_bye(2, 0)
        )
        demux = ControlDemux()
        data_bytes, events = demux.feed(wire)
        assert data_bytes == data
        assert [e.kind for e in events] == ["hello", "heartbeat", "bye"]
        assert demux.buffered == 0

    def test_byte_at_a_time(self):
        data = _data_payload(2)
        wire = pack_hello(1) + data + pack_bye(2, 0)
        demux = ControlDemux()
        out, events = bytearray(), []
        for i in range(len(wire)):
            chunk_data, chunk_events = demux.feed(wire[i : i + 1])
            out += chunk_data
            events += chunk_events
        assert bytes(out) == data
        assert [e.kind for e in events] == ["hello", "bye"]

    def test_corrupt_control_frame_leaks_to_data_plane(self):
        broken = bytearray(pack_hello(5))
        broken[-1] ^= 0xFF  # break the CRC
        demux = ControlDemux()
        data_bytes, events = demux.feed(bytes(broken) + _data_payload(1))
        assert events == []
        assert demux.control_crc_errors == 1
        # The broken bytes went to the data plane (where the frame
        # decoder's resync scan accounts for them); the data frame
        # behind them still passes through intact.
        assert data_bytes.endswith(_data_payload(1))

    def test_unknown_escape_is_data(self):
        demux = ControlDemux()
        data_bytes, events = demux.feed(b"\x1b\x51hello")
        assert events == []
        assert data_bytes == b"\x1b\x51hello"

    def test_data_frames_not_crc_checked_here(self):
        # The demux passes claimed frames through even when corrupt —
        # CRC policing belongs to the frame decoder.
        data = bytearray(_data_payload(1))
        data[10] ^= 0xFF
        data_bytes, _ = ControlDemux().feed(bytes(data))
        assert data_bytes == bytes(data)

    def test_drain_surrenders_split_tail(self):
        data = _data_payload(1)
        demux = ControlDemux()
        data_bytes, _ = demux.feed(data[:10])
        assert data_bytes == b""
        assert demux.buffered == 10
        assert demux.drain() == data[:10]
        assert demux.buffered == 0

    def test_finish_releases_bye_behind_truncated_frame(self):
        # The last data frame lost its tail on the link: its count byte
        # claims more bytes than follow, so feed() holds the BYE behind
        # the claim. At end of stream the claim is abandoned and the
        # held bytes rescanned.
        truncated = _data_payload(1, spf=32)[:27]  # 10 of 32 samples
        demux = ControlDemux()
        data_bytes, events = demux.feed(truncated + pack_bye(1000, 25))
        assert (data_bytes, events) == (b"", [])
        data_bytes, events = demux.finish()
        assert [e.kind for e in events] == ["bye"]
        assert events[0].frames_framed == 1000
        assert events[0].faults_injected == 25
        assert data_bytes == truncated  # garbage for the frame decoder
        assert demux.buffered == 0
        assert demux.finish() == (b"", [])


class TestFrameHelpers:
    def test_split_frames(self):
        data = _data_payload(3)
        frames = split_frames(data)
        assert len(frames) == 3
        assert b"".join(frames) == data
        assert [frame_sequence(f) for f in frames] == [0, 1, 2]

    def test_split_rejects_misalignment(self):
        with pytest.raises(FramingError):
            split_frames(b"\x00" + _data_payload(1))
        with pytest.raises(FramingError):
            split_frames(_data_payload(1)[:-1])

    def test_frame_sequence_rejects_garbage(self):
        with pytest.raises(FramingError):
            frame_sequence(b"\x00\x01\x02")
