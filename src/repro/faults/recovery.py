"""Recovery actions: saturation episodes answered with a fresh auto-zero.

Detection (the quality mask) flags what went wrong; recovery is what the
monitor *does* about it. The concrete loop implemented here mirrors what
the paper's host software would run: watch the decimated record for
railing episodes — a saturated modulator output pinned at the 12-bit
limits — and, once an episode ends, re-trigger the digital auto-zero
(:class:`~repro.core.autozero.AutoZeroController`) so the post-fault
pedestal is measured out instead of polluting every later reading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class SaturationEpisode:
    """One contiguous railing episode in a decimated record."""

    #: First railed sample (global index across all fed chunks).
    start_index: int
    #: One past the last railed sample.
    end_index: int


class SaturationEpisodeDetector:
    """Streaming run-length detector for railed output words.

    Feed decimated code chunks in order; closed episodes come back as
    soon as the record has stayed off the rails for ``clear_run``
    samples. State carries across chunks, so chunked and batch feeds
    find identical episodes.

    Parameters
    ----------
    rail_level:
        |code| at or above this counts as railed (matches the quality
        mask's rail detector).
    min_run:
        Railed samples required before an episode opens — rejects the
        odd legitimate full-scale word.
    clear_run:
        Clean samples required to close an open episode.
    """

    def __init__(
        self,
        rail_level: int = 2007,
        min_run: int = 4,
        clear_run: int = 8,
    ):
        if rail_level < 1:
            raise ConfigurationError("rail level must be >= 1 LSB")
        if min_run < 1 or clear_run < 1:
            raise ConfigurationError("run lengths must be >= 1")
        self.rail_level = int(rail_level)
        self.min_run = int(min_run)
        self.clear_run = int(clear_run)
        self._pos = 0
        self._run = 0
        self._clean = 0
        self._open_start: int | None = None
        self._open_end = 0

    def feed(self, codes: np.ndarray) -> list[SaturationEpisode]:
        """Consume one chunk; return episodes that closed inside it."""
        railed = np.abs(np.asarray(codes, dtype=np.int64)) >= self.rail_level
        closed: list[SaturationEpisode] = []
        for offset, is_railed in enumerate(railed):
            index = self._pos + offset
            if is_railed:
                self._run += 1
                self._clean = 0
                if self._open_start is None and self._run >= self.min_run:
                    self._open_start = index - self.min_run + 1
                if self._open_start is not None:
                    self._open_end = index + 1
            else:
                self._run = 0
                if self._open_start is not None:
                    self._clean += 1
                    if self._clean >= self.clear_run:
                        closed.append(
                            SaturationEpisode(
                                start_index=self._open_start,
                                end_index=self._open_end,
                            )
                        )
                        self._open_start = None
                        self._clean = 0
        self._pos += railed.size
        return closed

    def flush(self) -> SaturationEpisode | None:
        """Close any episode still open at end of record."""
        if self._open_start is None:
            return None
        episode = SaturationEpisode(
            start_index=self._open_start, end_index=self._open_end
        )
        self._open_start = None
        self._clean = 0
        self._run = 0
        return episode


class AutoZeroRetrigger:
    """Answers closed saturation episodes with a fresh auto-zero.

    Parameters
    ----------
    controller:
        The :class:`~repro.core.autozero.AutoZeroController` to fire.
        Its ``measure()`` drives the chain, so call :meth:`observe` on
        records *after* their acquisition session has finished — never
        mid-session.
    detector:
        Episode detector (default thresholds when omitted).
    """

    def __init__(self, controller, detector: SaturationEpisodeDetector | None = None):
        self.controller = controller
        self.detector = detector or SaturationEpisodeDetector()
        self.episodes: list[SaturationEpisode] = []
        #: Auto-zero measurements fired so far.
        self.retriggers = 0
        #: The most recent post-episode auto-zero state.
        self.state = None

    def observe(
        self, codes: np.ndarray, time_s: float = 0.0, final: bool = False
    ) -> list[SaturationEpisode]:
        """Scan one record chunk; re-zero after each closed episode.

        Returns the episodes that closed in this chunk (after a final
        chunk, including one still open at the record's end when
        ``final=True``).
        """
        closed = self.detector.feed(codes)
        if final:
            tail = self.detector.flush()
            if tail is not None:
                closed.append(tail)
        if closed:
            self.episodes.extend(closed)
            self.state = self.controller.measure(time_s=time_s)
            self.retriggers += 1
        return closed
