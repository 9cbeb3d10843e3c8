"""USB-style sample framing between the FPGA and the host.

A small, self-describing binary frame format carrying decimated sample
words plus metadata (selected array element, sequence number), protected
by a CRC-16. It models the paper's FPGA-to-PC USB link closely enough to
exercise real acquisition-path concerns: loss detection via sequence
numbers, corruption detection via CRC, and element tagging for scanned
acquisition.

Frame layout (little-endian):

    0xA5 0x5A | seq (u16) | element (u16) | count (u8) | count * i16 | crc16

The element tag is 16 bits wide so scanned acquisition scales past a
16x16 array: a u8 tag silently caps the scan at 256 elements and a
64x64 (4096-element) frame aborts mid-scan at element 256.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, FramingError

SYNC = b"\xa5\x5a"
MAX_SAMPLES_PER_FRAME = 255
_HEADER = struct.Struct("<2sHHB")
#: Byte offsets of the header fields after the two sync bytes: the
#: sequence number (u16, low byte first), the element tag (u16, low byte
#: first) and the sample count (u8, the header's last byte).
SEQ_OFFSET = 2
ELEMENT_OFFSET = 4
COUNT_OFFSET = 6
_CRC = struct.Struct("<H")
#: Bytes a frame adds around its ``2 * count`` sample bytes (header + CRC).
FRAME_OVERHEAD = _HEADER.size + _CRC.size


def _build_crc_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return tuple(table)


_CRC_TABLE = _build_crc_table()


def crc16_ccitt(data: bytes, seed: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE (table-driven), the common FPGA-side choice."""
    crc = seed
    table = _CRC_TABLE
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ table[((crc >> 8) ^ byte) & 0xFF]
    return crc


@dataclass(frozen=True)
class Frame:
    """One decoded frame."""

    sequence: int
    element: int
    samples: np.ndarray  # int16 codes
    #: Frames the decoder's sequence check found missing just before
    #: this one (0 on an in-order frame).
    lost_before: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.sequence <= 0xFFFF:
            raise ConfigurationError("sequence must fit u16")
        if not 0 <= self.element <= 0xFFFF:
            raise ConfigurationError("element must fit u16")
        if self.samples.size > MAX_SAMPLES_PER_FRAME:
            raise ConfigurationError(
                f"at most {MAX_SAMPLES_PER_FRAME} samples per frame"
            )


class FrameEncoder:
    """FPGA-side: pack sample words into frames with rolling sequence."""

    def __init__(self, samples_per_frame: int = 64):
        if not 1 <= samples_per_frame <= MAX_SAMPLES_PER_FRAME:
            raise ConfigurationError(
                f"samples_per_frame must be 1..{MAX_SAMPLES_PER_FRAME}"
            )
        self.samples_per_frame = int(samples_per_frame)
        self._sequence = 0
        # The partial frame: its first ``_fill`` codes, of ``_element``.
        self._pending = np.empty(self.samples_per_frame, dtype=np.int16)
        self._fill = 0
        self._element = 0
        #: Total frames emitted over the encoder's lifetime (telemetry).
        self.frames_emitted = 0

    @property
    def pending_samples(self) -> int:
        """Samples queued but not yet framed (what :meth:`flush` emits)."""
        return self._fill

    def push(self, codes: np.ndarray, element: int) -> bytes:
        """Queue codes from one element; returns any completed frames.

        An element change flushes the partial frame first, so one frame
        never mixes elements. Full frames are packed straight from the
        array; only the partial frame's codes are copied, into a
        fixed int16 buffer.
        """
        codes = np.asarray(codes)
        if codes.dtype.kind not in "iu":
            raise ConfigurationError("codes must be integers")
        if codes.size and (codes.max() > 32767 or codes.min() < -32768):
            raise ConfigurationError("codes must fit int16")
        if not 0 <= element <= 0xFFFF:
            raise ConfigurationError("element must fit u16")
        out = bytearray()
        if self._fill and self._element != element:
            out += self.flush()
        codes16 = codes.astype(np.int16)
        spf = self.samples_per_frame
        pos = 0
        if self._fill:  # top up the partial frame first
            pos = min(spf - self._fill, codes16.size)
            self._pending[self._fill : self._fill + pos] = codes16[:pos]
            self._fill += pos
            if self._fill == spf:
                out += self.flush()
        while codes16.size - pos >= spf:
            out += self._emit(element, codes16[pos : pos + spf])
            pos += spf
        if pos < codes16.size:
            self._fill = codes16.size - pos
            self._pending[: self._fill] = codes16[pos:]
            self._element = int(element)
        return bytes(out)

    def flush(self) -> bytes:
        """Emit the partial frame, if any."""
        if not self._fill:
            return b""
        fill, self._fill = self._fill, 0
        return self._emit(self._element, self._pending[:fill])

    def _emit(self, element: int, samples: np.ndarray) -> bytes:
        body = _HEADER.pack(SYNC, self._sequence, element, samples.size)
        body += samples.tobytes()
        crc = crc16_ccitt(body)
        self._sequence = (self._sequence + 1) & 0xFFFF
        self.frames_emitted += 1
        return body + _CRC.pack(crc)


class FrameDecoder:
    """Host-side: resynchronizing, validating frame parser.

    Feed arbitrary byte chunks; complete valid frames come out. Corrupted
    regions are skipped by one resync hunt (:meth:`_resync`). The
    decoder alone keeps the frame-sequence books (:meth:`_book`):
    sequence gaps are counted in :attr:`lost_frames` and carried on the
    next frame as :attr:`Frame.lost_before`, late frames are dropped as
    stale.
    """

    def __init__(self):
        self._buffer = bytearray()
        self._expected_seq: int | None = None
        self.lost_frames = 0
        self.crc_errors = 0
        #: Total valid frames decoded over the decoder's lifetime.
        self.frames_decoded = 0
        #: Bytes discarded while re-hunting sync after corruption.
        self.resync_bytes = 0
        #: Valid frames dropped because their sequence number lies
        #: behind the expected one (see :meth:`_book`).
        self.stale_frames = 0

    @property
    def expected_sequence(self) -> int | None:
        """Sequence number the next in-order frame should carry.

        ``None`` until the first valid frame arrives (or until
        :meth:`expect` seeds it). ``expected_sequence - 1`` (mod 2^16)
        is the highest in-order sequence acknowledged so far — what a
        gateway reports back to a device for resume-on-reconnect.
        """
        return self._expected_seq

    def expect(self, sequence: int | None) -> None:
        """Seed (or clear) the expected sequence number.

        Resume support: a receiver that knows where a restarted sender
        will continue sets the expectation explicitly, so the first
        frame after the restart is neither a spurious gap nor dropped
        as stale.
        """
        if sequence is not None and not 0 <= sequence <= 0xFFFF:
            raise ConfigurationError("expected sequence must fit u16")
        self._expected_seq = sequence

    def feed(self, data: bytes) -> list[Frame]:
        """Consume bytes, return all frames completed by them.

        The consumed prefix is trimmed once, after the scan: corrupt
        regions can hold a false sync word every other byte, and
        trimming per candidate would make decoding quadratic in the
        garbage length. An empty ``data`` is an exact no-op: no rescan
        of retained bytes, no counter changes.
        """
        if not data:
            return []
        self._buffer += data
        return self._parse(final=False)

    def finalize(self) -> list[Frame]:
        """Drain frames stalled behind a corrupted length claim.

        A frame whose ``count`` byte was corrupted upward claims more
        bytes than its sender produced; :meth:`feed` keeps waiting for
        them and every later frame sits stranded in the buffer. Call
        this at end of stream (or end of acquisition) to abandon such
        claims and recover the complete frames behind them. Idempotent:
        with nothing stalled (including any repeated call, or an empty
        buffer) it returns zero frames and changes no counters, so
        clean pipelines are unaffected. Feeding may resume afterwards.
        """
        if not self._buffer:
            return []
        return self._parse(final=True)

    def _parse(self, final: bool) -> list[Frame]:
        buf = self._buffer
        frames: list[Frame] = []
        pos = 0
        while True:
            pos, total = self._resync(pos, final)
            if not total:
                break
            _, seq, element, count = _HEADER.unpack_from(buf, pos)
            samples = np.frombuffer(
                buf, dtype="<i2", count=count, offset=pos + _HEADER.size
            ).astype(np.int16)
            pos += total
            lost = self._book(seq, 1)
            if lost >= 0:
                frames.append(Frame(seq, element, samples, lost))
        del buf[:pos]
        return frames

    def _resync(self, pos: int, final: bool) -> tuple[int, int]:
        """Hunt the buffer from ``pos`` for the next CRC-valid frame.

        Returns ``(start, total)`` of that frame, or ``(keep, 0)`` when
        there is none yet: the bytes before ``keep`` are spent, the rest
        waits for more data. A sync word whose header or claimed length
        runs past the buffer waits too, unless ``final`` (end of stream,
        so the claim is abandoned). Every abandoned sync word, a CRC
        failure included, adds its two bytes to :attr:`resync_bytes`
        and the hunt goes on right after it, so the scan never goes
        back over the buffer: one corrupted frame never costs the valid
        frames behind it, and false sync words every other byte cost
        linear time.
        """
        buf = self._buffer
        n = len(buf)
        while True:
            start = buf.find(SYNC, pos)
            if start < 0:
                # Keep at most one trailing byte (a possible first sync
                # byte split across feeds).
                return max(n - 1, pos), 0
            pos = start
            if n - pos >= _HEADER.size:
                total = FRAME_OVERHEAD + 2 * buf[pos + COUNT_OFFSET]
                if n - pos >= total:
                    body = bytes(buf[pos : pos + total - _CRC.size])
                    (crc_rx,) = _CRC.unpack_from(buf, pos + total - _CRC.size)
                    if crc16_ccitt(body) == crc_rx:
                        return pos, total
                    self.crc_errors += 1
                elif not final:
                    return pos, 0  # wait for the rest of the claim
            elif not final:
                return pos, 0  # wait for the rest of the header
            self.resync_bytes += 2
            pos += 2

    def _book(self, seq: int, n: int) -> int:
        """Book ``n`` CRC-valid frames numbered ``seq``, ``seq + 1``, ...

        The one sequence rule. The mod-2^16 distance from the expected
        sequence is a gap of that many lost frames (so a rollover past
        0xFFFF is a small gap), unless it lies in the half window
        behind the expectation: then the first frame is a late
        duplicate of one already counted lost (link reordering, a
        replay overlap), whose slot in the stream is gone. It is
        dropped, counted in :attr:`stale_frames`, and the expectation
        stays. Returns the frames lost before the run, or -1 when its
        first frame was stale (and nothing else was booked).
        """
        lost = 0
        if self._expected_seq is not None:
            lost = (seq - self._expected_seq) % 0x10000
            if lost >= 0x8000:
                self.stale_frames += 1
                return -1
            self.lost_frames += lost
        self._expected_seq = (seq + n) % 0x10000
        self.frames_decoded += n
        return lost


def split_frames(payload: bytes) -> list[bytes]:
    """Split a well-formed encoder payload into individual data frames.

    The payload must be a concatenation of intact frames (what
    :class:`FrameEncoder` emits); raises
    :class:`~repro.errors.FramingError` on trailing or misaligned bytes.
    """
    frames: list[bytes] = []
    pos, n = 0, len(payload)
    while pos < n:
        if n - pos < FRAME_OVERHEAD or payload[pos : pos + 2] != SYNC:
            raise FramingError("payload is not a clean frame concatenation")
        total = FRAME_OVERHEAD + 2 * payload[pos + COUNT_OFFSET]
        if n - pos < total:
            raise FramingError("payload ends inside a frame")
        frames.append(payload[pos : pos + total])
        pos += total
    return frames


def frame_sequence(frame: bytes) -> int:
    """Sequence number of one intact data frame."""
    if len(frame) < FRAME_OVERHEAD or frame[:2] != SYNC:
        raise FramingError("not a data frame")
    return frame[SEQ_OFFSET] | (frame[SEQ_OFFSET + 1] << 8)
