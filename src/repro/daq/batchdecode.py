"""Vectorized frame deframing + CRC for the gateway's batched decode plane.

:class:`~repro.daq.usb.FrameDecoder.feed` walks the byte stream one
Python loop iteration per frame and one table lookup per byte for the
CRC — fine for a single device, but the dominant cost once a gateway
multiplexes hundreds of streams. This module provides the batched fast
path the :mod:`repro.gateway.batchplane` scheduler runs per tick:

* :func:`stage` appends one (merged) ingest chunk to a decoder's buffer
  and scans the **tiled prefix** — maximal runs of back-to-back frame
  candidates sharing one length — with a handful of NumPy comparisons
  instead of a per-byte hunt.
* :func:`crc_check` validates *all* staged candidates across *all*
  decoders in one call per frame length: the native ``crc16_rows``
  routine (:mod:`repro.native`) runs the reference table over the
  row-strided frame bodies in place. Without the native library each
  candidate goes through the reference
  :func:`~repro.daq.usb.crc16_ccitt`, the same function
  :class:`~repro.daq.usb.FrameDecoder` uses.
* :func:`commit` books the validated candidates through the decoder's
  own sequence rule (:meth:`~repro.daq.usb.FrameDecoder._book`), one
  call per *segment* of in-order frames, and hands each segment to the
  stream with the gap the decoder found. Where the validated prefix
  ends (CRC failure, garbage, a corrupted length claim) the decoder's
  own resync (:meth:`~repro.daq.usb.FrameDecoder._resync`) hunts for
  the next valid frame, and the tiled scan resumes there. Both are the
  reference parser's own code, so the fast path never changes a single
  decoded bit, counter, or resync decision relative to per-session
  decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import native
from .stream import SampleStream
from .usb import _CRC_TABLE, COUNT_OFFSET, ELEMENT_OFFSET, FRAME_OVERHEAD
from .usb import SEQ_OFFSET, SYNC, FrameDecoder, crc16_ccitt

_SYNC0, _SYNC1 = SYNC[0], SYNC[1]

#: The reference CRC table, handed to the native routine.
_TABLE = np.array(_CRC_TABLE, dtype=np.uint16)
_TABLE_P = _TABLE.ctypes.data_as(native.U16_P)


def crc_path() -> str:
    """``"native"`` when frame CRCs run in :mod:`repro.native`, else
    ``"reference"`` (:func:`~repro.daq.usb.crc16_ccitt` per frame)."""
    return "native" if native.available() else "reference"


def crc16_batch(bodies: np.ndarray) -> np.ndarray:
    """CRC-16/CCITT-FALSE of every row of a ``(n, L)`` uint8 matrix.

    Rows may be strided, like the ``[:, :L]`` view of wider frames that
    :func:`crc_check` passes. Without the native library every row goes
    through the reference :func:`~repro.daq.usb.crc16_ccitt`.
    """
    if bodies.ndim != 2:
        raise ValueError("expected a (n_frames, body_len) uint8 matrix")
    n, length = bodies.shape
    lib = native.library()
    if lib is None:
        return np.fromiter(
            (crc16_ccitt(row.tobytes()) for row in bodies),
            dtype=np.uint16,
            count=n,
        )
    if bodies.dtype != np.uint8 or (length > 1 and bodies.strides[1] != 1):
        bodies = np.ascontiguousarray(bodies, dtype=np.uint8)
    out = np.empty(n, dtype=np.uint16)
    lib.crc16_rows(
        bodies.ctypes.data_as(native.U8_P),
        n,
        bodies.strides[0],
        length,
        _TABLE_P,
        out.ctypes.data_as(native.U16_P),
    )
    return out


@dataclass
class Run:
    """One tiled run of same-length frame candidates (not yet validated)."""

    pos: int  # offset of the first candidate in the decoder buffer
    total: int  # frame length in bytes (FRAME_OVERHEAD + 2 * count)
    count: int  # samples per frame
    k: int  # candidates in the run
    mat: np.ndarray  # (k, total) uint8 copy of the candidate bytes
    crc_ok: np.ndarray | None = None  # (k,) bool, set by crc_check

    @property
    def sequences(self) -> np.ndarray:
        return (
            self.mat[:, SEQ_OFFSET].astype(np.int64)
            | (self.mat[:, SEQ_OFFSET + 1].astype(np.int64) << 8)
        )

    @property
    def elements(self) -> np.ndarray:
        return (
            self.mat[:, ELEMENT_OFFSET].astype(np.int64)
            | (self.mat[:, ELEMENT_OFFSET + 1].astype(np.int64) << 8)
        )


@dataclass
class Staged:
    """The tiled-prefix scan of one decoder's pending bytes."""

    decoder: FrameDecoder
    runs: list[Run] = field(default_factory=list)
    scan_end: int = 0  # where tiling stopped (the resync takes over)

    @property
    def candidates(self) -> int:
        return sum(run.k for run in self.runs)


def stage(decoder: FrameDecoder, data: bytes) -> Staged:
    """Append ``data`` to the decoder buffer and scan its tiled prefix.

    Candidate bytes are copied out of the buffer immediately (the commit
    trims the ``bytearray`` in place, which would invalidate live
    views); everything from the first irregular byte on is left for the
    decoder's resync.
    """
    if data:
        decoder._buffer += data
    staged = Staged(decoder=decoder)
    buf = decoder._buffer
    n = len(buf)
    if n < FRAME_OVERHEAD:
        return staged
    view = np.frombuffer(buf, dtype=np.uint8)
    pos = 0
    runs: list[tuple[int, int, int, int]] = []
    while (
        n - pos >= FRAME_OVERHEAD
        and buf[pos] == _SYNC0
        and buf[pos + 1] == _SYNC1
    ):
        count = buf[pos + COUNT_OFFSET]
        total = FRAME_OVERHEAD + 2 * count
        k_cap = (n - pos) // total
        if k_cap == 0:
            break  # split frame: the tail stays buffered
        if k_cap == 1:
            k = 1
        else:
            block = view[pos : pos + k_cap * total].reshape(k_cap, total)
            good = (
                (block[:, 0] == _SYNC0)
                & (block[:, 1] == _SYNC1)
                & (block[:, COUNT_OFFSET] == count)
            )
            k = k_cap if good.all() else max(int(np.argmin(good)), 1)
        runs.append((pos, total, count, k))
        pos += k * total
    staged.scan_end = pos
    if not runs:
        return staged
    # One copy of the whole scanned region; runs hold views of the copy,
    # so trimming the bytearray later cannot corrupt committed samples.
    region = view[:pos].copy()
    del view
    for rpos, total, count, k in runs:
        staged.runs.append(
            Run(
                pos=rpos,
                total=total,
                count=count,
                k=k,
                mat=region[rpos : rpos + k * total].reshape(k, total),
            )
        )
    return staged


def crc_check(staged_list: list[Staged]) -> int:
    """Validate every staged candidate across all decoders in one pass.

    Runs are grouped by frame length so each group is a single
    rectangular CRC batch; per-run boolean verdicts are scattered back
    onto ``run.crc_ok``. Returns the number of candidates checked.
    """
    groups: dict[int, list[Run]] = {}
    for staged in staged_list:
        for run in staged.runs:
            groups.setdefault(run.total, []).append(run)
    checked = 0
    for total, runs in groups.items():
        if len(runs) == 1:
            big = runs[0].mat
        else:
            big = np.concatenate([run.mat for run in runs], axis=0)
        body = total - 2
        crc = crc16_batch(big[:, :body])
        rx = big[:, body].astype(np.uint16) | (
            big[:, body + 1].astype(np.uint16) << np.uint16(8)
        )
        ok = crc == rx
        checked += big.shape[0]
        offset = 0
        for run in runs:
            run.crc_ok = ok[offset : offset + run.k]
            offset += run.k
    return checked


def commit(
    decoder: FrameDecoder,
    staged: Staged,
    stream: SampleStream,
    frame_hook=None,
    now: float = 0.0,
) -> int:
    """Book the CRC-validated prefix; resync over each irregular region.

    Books exactly what feeding the same (merged) chunk through
    :meth:`FrameDecoder.feed` + :meth:`SampleStream.ingest` would —
    decoded/lost/stale/CRC/resync counters, gap records, delivered
    samples and hook stamps included — but touches Python once per
    *segment* of in-order frames instead of once per frame.

    Where the committed prefix stops (a CRC failure, garbage, a
    corrupted length claim), the decoder's own resync hunts for the
    next valid frame, counting what it skips; the tiled scan resumes
    there. The hunt stops at a split tail, which waits for the next
    chunk. Returns the number of frames decoded.
    """
    decoded = _commit_staged_runs(decoder, staged, stream, frame_hook, now)
    buf = decoder._buffer
    while buf:
        start, total = decoder._resync(0, final=False)
        del buf[:start]
        if not total:
            break  # a split tail: wait for more bytes
        staged = stage(decoder, b"")
        crc_check([staged])
        decoded += _commit_staged_runs(decoder, staged, stream, frame_hook, now)
    return decoded


def _commit_staged_runs(
    decoder: FrameDecoder,
    staged: Staged,
    stream: SampleStream,
    frame_hook,
    now: float,
) -> int:
    """Book the validated prefix of ``staged``; trims the buffer."""
    consumed = 0
    decoded = 0
    stopped = False
    for run in staged.runs:
        ok = run.crc_ok
        if ok is None:
            raise RuntimeError("commit before crc_check")
        k_ok = run.k if ok.all() else int(np.argmin(ok))
        if k_ok:
            decoded += _commit_run(
                decoder, stream, run, k_ok, frame_hook, now
            )
            consumed = run.pos + k_ok * run.total
        if k_ok < run.k:
            stopped = True
            break
    if not stopped:
        consumed = staged.scan_end
    if consumed:
        del decoder._buffer[:consumed]
    return decoded


def _commit_run(
    decoder: FrameDecoder,
    stream: SampleStream,
    run: Run,
    k_ok: int,
    frame_hook,
    now: float,
) -> int:
    """Book ``k_ok`` validated candidates of one run, segment-wise.

    A segment is a stretch of consecutive sequence numbers of one
    element; :meth:`FrameDecoder._book` books it whole. A stale first
    frame is dropped alone and the rest of its segment booked again.
    """
    seqs = run.sequences[:k_ok]
    elements = run.elements[:k_ok]
    # int16 sample matrix (one copy; rows are handed to the stream).
    samples = np.ascontiguousarray(
        run.mat[:k_ok, 7 : 7 + 2 * run.count]
    ).view("<i2").astype(np.int16)
    if k_ok > 1:
        contiguous = ((seqs[1:] - seqs[:-1]) & 0xFFFF == 1) & (
            elements[1:] == elements[:-1]
        )
        breaks = np.flatnonzero(~contiguous) + 1
    else:
        breaks = np.zeros(0, dtype=np.int64)
    bounds = [0, *breaks.tolist(), k_ok]
    decoded = 0
    for i, j in zip(bounds, bounds[1:]):
        lost = decoder._book(int(seqs[i]), j - i)
        while lost < 0 and i + 1 < j:
            i += 1
            lost = decoder._book(int(seqs[i]), j - i)
        if lost < 0:
            continue
        decoded += j - i
        stream._append(
            int(elements[i]), samples[i:j].reshape(-1), j - i, lost
        )
        if frame_hook is not None:
            for seq in seqs[i:j].tolist():
                frame_hook(seq, now)
    return decoded
