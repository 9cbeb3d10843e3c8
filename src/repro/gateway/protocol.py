"""Gateway wire protocol: a DLE/ACK control plane over the framed data.

A device connection carries two interleaved planes on one TCP stream:

* **Data plane** — the existing USB frame format, whose layout
  :mod:`repro.daq.usb` owns. The gateway passes these bytes verbatim to
  a per-connection :class:`~repro.daq.usb.FrameDecoder`.
* **Control plane** — small ESC-led frames plus a bare DLE heartbeat
  byte, modelled on serial device links (the D-PPG Vasoquant reader's
  printer-emulation mode): the device polls with DLE, the host answers
  with a cumulative ACK.

Control messages (little-endian, CRC-16/CCITT-FALSE over everything
before the CRC itself):

======== ======================================== ===== ===============
message  layout                                   bytes direction
======== ======================================== ===== ===============
HELLO    ``1B 'H' | device_id u32 | flags u8``    10    device -> gw
ACK      ``1B 'A' | flags u8 | last_acked u16``   8     gw -> device
BYE      ``1B 'B' | frames u32 | faults u32``     12    device -> gw
DLE      ``10`` (single byte, no CRC)             1     both
======== ======================================== ===== ===============

HELLO ``flags`` bit 0 set means *resume*: the device will replay its
unacknowledged frames after reading the gateway's ACK, and the gateway
must keep its sequence expectation. A fresh HELLO (bit clear) resets
the expectation to sequence 0. ACK ``flags`` bit 0 set means
``last_acked`` is valid (clear while nothing arrived yet);
``last_acked`` is the highest *in-order* data-frame sequence received.
BYE carries the device's lifetime framed-frame count and the number of
fault events it injected on the link (zero on a real device; the chaos
harness uses it to close the books), which lets the gateway reconcile
frame conservation end-to-end.

Control frames only ever sit *between* data frames. Corruption can
still break that alignment, so :class:`ControlDemux` treats any byte
that fails its plane's checks as data-plane garbage — the frame
decoder's resync scan counts and skips it. Both planes are therefore
self-healing under arbitrary byte corruption; nothing is silently
dropped.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..daq.usb import (
    COUNT_OFFSET,
    FRAME_OVERHEAD,
    MAX_SAMPLES_PER_FRAME,
    SYNC,
    crc16_ccitt,
)
from ..errors import ConfigurationError

#: Heartbeat byte (Data Link Escape), sent bare at ~1 Hz by devices.
DLE = 0x10
#: Escape byte opening every control frame.
ESC = 0x1B

OP_HELLO = ord("H")
OP_ACK = ord("A")
OP_BYE = ord("B")

_HELLO = struct.Struct("<BBIB")  # ESC 'H' device_id flags
_ACK = struct.Struct("<BBBH")  # ESC 'A' flags last_acked
_BYE = struct.Struct("<BBII")  # ESC 'B' frames faults
_CRC = struct.Struct("<H")

#: Control frame total sizes (body + CRC), keyed by op byte.
CONTROL_SIZES = {
    OP_HELLO: _HELLO.size + _CRC.size,
    OP_ACK: _ACK.size + _CRC.size,
    OP_BYE: _BYE.size + _CRC.size,
}

#: HELLO flag: device resumes an interrupted stream (replay after ACK).
FLAG_RESUME = 0x01
#: ACK flag: the ``last_acked`` field is valid.
FLAG_ACKED = 0x01

#: Largest possible data frame.
MAX_DATA_FRAME = FRAME_OVERHEAD + 2 * MAX_SAMPLES_PER_FRAME


@dataclass(frozen=True)
class ControlEvent:
    """One decoded control-plane message."""

    kind: str  # "heartbeat" | "hello" | "ack" | "bye"
    device_id: int = 0
    resume: bool = False
    last_acked: int | None = None
    frames_framed: int = 0
    faults_injected: int = 0


def _sealed(body: bytes) -> bytes:
    return body + _CRC.pack(crc16_ccitt(body))


def pack_hello(device_id: int, resume: bool = False) -> bytes:
    """HELLO: opens (or resumes) a device stream."""
    if not 0 <= device_id <= 0xFFFFFFFF:
        raise ConfigurationError("device id must fit u32")
    flags = FLAG_RESUME if resume else 0
    return _sealed(_HELLO.pack(ESC, OP_HELLO, device_id, flags))


def pack_ack(last_acked: int | None) -> bytes:
    """ACK: cumulative in-order receipt, ``None`` = nothing yet."""
    if last_acked is None:
        return _sealed(_ACK.pack(ESC, OP_ACK, 0, 0))
    if not 0 <= last_acked <= 0xFFFF:
        raise ConfigurationError("acked sequence must fit u16")
    return _sealed(_ACK.pack(ESC, OP_ACK, FLAG_ACKED, last_acked))


def pack_bye(frames_framed: int, faults_injected: int = 0) -> bytes:
    """BYE: clean end of stream with the device's conservation counts."""
    if frames_framed < 0 or faults_injected < 0:
        raise ConfigurationError("BYE counters must be >= 0")
    return _sealed(
        _BYE.pack(
            ESC, OP_BYE, frames_framed & 0xFFFFFFFF,
            faults_injected & 0xFFFFFFFF,
        )
    )


def heartbeat() -> bytes:
    """The bare DLE poll byte."""
    return bytes([DLE])


def _unpack_control(op: int, blob: bytes) -> ControlEvent:
    if op == OP_HELLO:
        _, _, device_id, flags = _HELLO.unpack_from(blob)
        return ControlEvent(
            "hello", device_id=device_id, resume=bool(flags & FLAG_RESUME)
        )
    if op == OP_ACK:
        _, _, flags, last = _ACK.unpack_from(blob)
        return ControlEvent(
            "ack", last_acked=last if flags & FLAG_ACKED else None
        )
    _, _, frames, faults = _BYE.unpack_from(blob)
    return ControlEvent("bye", frames_framed=frames, faults_injected=faults)


#: Minimum frames in a candidate run before the vectorized scan beats
#: the scalar walk (NumPy call overhead vs ~1 us per scalar frame).
_RUN_MIN = 16


def _data_run_end(buf: bytearray, pos: int, n: int, total: int) -> int:
    """End offset of the run of back-to-back ``total``-byte data frames.

    The scalar demux walk costs one Python iteration plus a slice copy
    per data frame; on the hot path (a chunk of uniform frames from one
    encoder) the whole chunk is a single run, so the per-frame checks
    — sync word and an equal count byte every ``total`` bytes — can be
    one strided NumPy comparison and the copy-out one slice. The checks
    are exactly the scalar walk's, so the first irregular candidate
    ends the run and the scalar walk resumes from its offset. Always
    returns at least ``pos + total`` (the caller already validated the
    first frame's claim).
    """
    k = (n - pos) // total
    if k < _RUN_MIN:
        return pos + total
    arr = np.frombuffer(
        memoryview(buf)[pos : pos + k * total], dtype=np.uint8
    ).reshape(k, total)
    ok = (
        (arr[:, 0] == SYNC[0])
        & (arr[:, 1] == SYNC[1])
        & (arr[:, COUNT_OFFSET] == buf[pos + COUNT_OFFSET])
    )
    bad = np.flatnonzero(~ok)
    run = k if bad.size == 0 else int(bad[0])
    # The view into ``buf`` dies with ``arr`` at return, so the caller's
    # later ``del buf[:pos]`` never sees a live buffer export.
    return pos + max(run, 1) * total


class ControlDemux:
    """Split one interleaved connection stream into its two planes.

    Feed arbitrary byte chunks; each call returns ``(data_bytes,
    control_events)``. Data frames are passed through by their claimed
    length *without* CRC validation (the frame decoder owns that);
    control frames are CRC-checked here and, on failure, leak into the
    data plane one byte at a time where the decoder's resync scan
    accounts for them. The internal buffer is bounded by the largest
    claimable data frame, so a malicious or corrupted peer cannot grow
    gateway memory.
    """

    def __init__(self):
        self._buffer = bytearray()
        #: Bare DLE heartbeats seen.
        self.heartbeats = 0
        #: Valid control frames decoded.
        self.control_frames = 0
        #: ESC-led candidates rejected by CRC (bytes went to data plane).
        self.control_crc_errors = 0

    @property
    def buffered(self) -> int:
        """Bytes held while waiting for a split frame (bounded)."""
        return len(self._buffer)

    def feed(self, data: bytes) -> tuple[bytes, list[ControlEvent]]:
        if not data:
            return b"", []
        self._buffer += data
        return self._scan()

    def finish(self) -> tuple[bytes, list[ControlEvent]]:
        """End of stream: give up every claim the stream never completed.

        :meth:`feed` holds a frame whose claimed length runs past what
        has arrived, and every byte behind it — a truncated last data
        frame would hide the BYE that follows it. Like
        :meth:`~repro.daq.usb.FrameDecoder.finalize`, this abandons the
        claim, passes its lead byte to the data plane as garbage and
        rescans the held bytes, until nothing is held. Returns what
        :meth:`feed` returns.
        """
        out = bytearray()
        events: list[ControlEvent] = []
        while self._buffer:
            out.append(self._buffer.pop(0))
            data, more = self._scan()
            out += data
            events += more
        return bytes(out), events

    def _scan(self) -> tuple[bytes, list[ControlEvent]]:
        buf = self._buffer
        out = bytearray()
        events: list[ControlEvent] = []
        pos, n = 0, len(buf)
        while pos < n:
            byte = buf[pos]
            if byte == DLE:
                events.append(ControlEvent("heartbeat"))
                self.heartbeats += 1
                pos += 1
            elif byte == ESC:
                if n - pos < 2:
                    break  # op byte split across feeds
                size = CONTROL_SIZES.get(buf[pos + 1])
                if size is None:
                    out.append(byte)  # junk ESC: data-plane garbage
                    pos += 1
                    continue
                if n - pos < size:
                    break  # wait for the rest of the control frame
                blob = bytes(buf[pos : pos + size])
                (crc_rx,) = _CRC.unpack_from(blob, size - _CRC.size)
                if crc16_ccitt(blob[: -_CRC.size]) != crc_rx:
                    self.control_crc_errors += 1
                    out.append(byte)
                    pos += 1
                    continue
                events.append(_unpack_control(blob[1], blob))
                self.control_frames += 1
                pos += size
            elif byte == SYNC[0]:
                if n - pos < 2:
                    break  # possible split sync word
                if buf[pos + 1] != SYNC[1]:
                    out.append(byte)
                    pos += 1
                    continue
                if n - pos <= COUNT_OFFSET:
                    break  # wait for the count byte
                total = FRAME_OVERHEAD + 2 * buf[pos + COUNT_OFFSET]
                if n - pos < total:
                    break  # wait for the claimed frame
                end = _data_run_end(buf, pos, n, total)
                out += buf[pos:end]
                pos = end
            else:
                out.append(byte)
                pos += 1
        del buf[:pos]
        return bytes(out), events

    def drain(self) -> bytes:
        """End of stream: surrender any split-frame tail as data bytes.

        The decoder's ``finalize`` then accounts for whatever the tail
        held; nothing buffered is ever silently discarded.
        """
        rest = bytes(self._buffer)
        self._buffer.clear()
        return rest
