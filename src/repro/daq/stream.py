"""Host-side sample stream reassembly.

Collects decoded frames into per-element contiguous sample streams with
gap accounting — what the PC software behind the paper's USB interface
has to do before any waveform processing. The stream keeps no sequence
books of its own: :class:`~repro.daq.usb.FrameDecoder` owns them, and
each frame carries the loss its decoder found just before it
(:attr:`~repro.daq.usb.Frame.lost_before`). Frames lost on the link
show up here as explicit per-element gaps rather than silently
shortened, mis-timestamped records.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .usb import Frame


@dataclass(frozen=True)
class StreamGap:
    """One detected loss of frames within an element's stream.

    Attributes
    ----------
    sample_index:
        Position in the element's *received* sample record where the
        missing samples belong (samples ``[sample_index:]`` arrived
        after the loss).
    lost_frames:
        Number of frames the sequence numbers say went missing.
    lost_samples:
        Missing sample count: lost frames times the stream's configured
        ``samples_per_frame`` when known. Without that configuration it
        falls back to the payload size of the frame that *followed* the
        gap — an undercount when the follower is the final (short)
        flush frame of a chunk.
    """

    sample_index: int
    lost_frames: int
    lost_samples: int


class SampleStream:
    """Per-element reassembled sample streams with gap accounting.

    Parameters
    ----------
    sample_rate_hz:
        Rate of the decimated words (1 kS/s for the paper chain), used to
        timestamp samples.
    samples_per_frame:
        Nominal payload size of the link's full frames (the encoder's
        ``samples_per_frame``). When set, a k-frame sequence gap is
        booked as exactly ``k * samples_per_frame`` lost samples — the
        lost frames were full frames. When ``None`` the stream estimates
        from the frame that followed the gap, which undercounts whenever
        a loss lands immediately before a chunk's short flush frame.
    """

    def __init__(
        self,
        sample_rate_hz: float = 1000.0,
        samples_per_frame: int | None = None,
    ):
        if sample_rate_hz <= 0:
            raise ConfigurationError("sample rate must be positive")
        if samples_per_frame is not None and samples_per_frame < 1:
            raise ConfigurationError("samples_per_frame must be >= 1")
        self.sample_rate_hz = float(sample_rate_hz)
        self.samples_per_frame = samples_per_frame
        self._chunks: dict[int, list[np.ndarray]] = defaultdict(list)
        self._counts: dict[int, int] = defaultdict(int)
        self._gaps: dict[int, list[StreamGap]] = defaultdict(list)
        #: Lifetime ingest counters (telemetry).
        self.frames_ingested = 0
        self.samples_ingested = 0

    def ingest(self, frames: list[Frame]) -> None:
        """Append decoded frames to their element streams.

        A frame that follows ``k`` lost frames (its ``lost_before``)
        opens a :class:`StreamGap` against its own element: the lost
        frames' element tags are gone with them.
        """
        for frame in frames:
            self._append(frame.element, frame.samples, 1, frame.lost_before)

    def _append(
        self, element: int, samples: np.ndarray, frames: int, lost_before: int
    ) -> None:
        """Book ``frames`` in-order frames of one element, whose flat
        ``samples`` follow ``lost_before`` lost frames."""
        if lost_before:
            per_frame = self.samples_per_frame or samples.size // frames
            self._gaps[element].append(
                StreamGap(
                    sample_index=self._counts[element],
                    lost_frames=lost_before,
                    lost_samples=lost_before * per_frame,
                )
            )
        self._chunks[element].append(samples)
        self._counts[element] += samples.size
        self.frames_ingested += frames
        self.samples_ingested += samples.size

    @property
    def elements(self) -> list[int]:
        return sorted(self._chunks)

    def sample_count(self, element: int) -> int:
        return self._counts.get(element, 0)

    def samples(self, element: int) -> np.ndarray:
        """Contiguous int16 record of the *received* samples."""
        chunks = self._chunks.get(element)
        if not chunks:
            return np.zeros(0, dtype=np.int16)
        return np.concatenate(chunks)

    # -- gap accounting ------------------------------------------------------

    def gaps(self, element: int) -> tuple[StreamGap, ...]:
        """Detected frame-loss gaps in one element's stream, in order."""
        return tuple(self._gaps.get(element, ()))

    def lost_samples(self, element: int) -> int:
        """Estimated samples lost to dropped frames for one element."""
        return sum(g.lost_samples for g in self._gaps.get(element, ()))

    def zero_filled(self, element: int) -> tuple[np.ndarray, np.ndarray]:
        """Gap-repaired record: ``(samples, valid_mask)``.

        Missing stretches are zero-filled and flagged False in the mask,
        so downstream processing can interpolate or excise them instead
        of silently concatenating across the loss.
        """
        received = self.samples(element)
        gaps = self._gaps.get(element)
        if not gaps:
            return received, np.ones(received.size, dtype=bool)
        total = received.size + sum(g.lost_samples for g in gaps)
        out = np.zeros(total, dtype=received.dtype)
        mask = np.zeros(total, dtype=bool)
        src = 0
        dst = 0
        for gap in gaps:
            take = gap.sample_index - src
            out[dst : dst + take] = received[src : src + take]
            mask[dst : dst + take] = True
            src += take
            dst += take + gap.lost_samples
        out[dst:] = received[src:]
        mask[dst:] = True
        return out, mask

    def duration_s(self, element: int) -> float:
        """Wall-clock span of one element's record, including gap time."""
        n = self.sample_count(element) + self.lost_samples(element)
        return n / self.sample_rate_hz
