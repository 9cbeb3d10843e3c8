"""Saturation episodes and the autozero re-trigger loop."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    AutoZeroRetrigger,
    SaturationEpisode,
    SaturationEpisodeDetector,
)


def record(*spans, n=200, level=2047):
    codes = np.zeros(n, dtype=np.int64)
    for start, stop in spans:
        codes[start:stop] = level
    return codes


class _StubController:
    """Counts measure() calls in place of a real AutoZeroController."""

    def __init__(self):
        self.calls: list[float] = []

    def measure(self, time_s: float = 0.0):
        self.calls.append(time_s)
        return f"state-{len(self.calls)}"


class TestEpisodeDetector:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SaturationEpisodeDetector(rail_level=0)
        with pytest.raises(ConfigurationError):
            SaturationEpisodeDetector(min_run=0)

    def test_short_run_rejected(self):
        detector = SaturationEpisodeDetector(min_run=4)
        assert detector.feed(record((50, 53))) == []
        assert detector.flush() is None

    def test_episode_boundaries(self):
        detector = SaturationEpisodeDetector(min_run=4, clear_run=8)
        [episode] = detector.feed(record((50, 70)))
        assert episode == SaturationEpisode(start_index=50, end_index=70)

    def test_brief_dip_does_not_close(self):
        # A 3-sample dip inside a railing episode (clear_run=8) merges.
        codes = record((50, 60), (63, 75))
        detector = SaturationEpisodeDetector(min_run=4, clear_run=8)
        [episode] = detector.feed(codes)
        assert episode.start_index == 50
        assert episode.end_index == 75

    def test_chunked_equals_batch(self):
        codes = record((30, 60), (120, 160))
        batch = SaturationEpisodeDetector().feed(codes)
        chunked_detector = SaturationEpisodeDetector()
        chunked = []
        for chunk in np.array_split(codes, 13):
            chunked += chunked_detector.feed(chunk)
        assert batch == chunked

    def test_flush_closes_open_episode(self):
        detector = SaturationEpisodeDetector(min_run=4)
        assert detector.feed(record((190, 200))) == []
        episode = detector.flush()
        assert episode == SaturationEpisode(start_index=190, end_index=200)
        assert detector.flush() is None

    def test_negative_rail_counts(self):
        detector = SaturationEpisodeDetector()
        [episode] = detector.feed(record((10, 30), level=-2048))
        assert episode.start_index == 10


class TestAutoZeroRetrigger:
    def test_closed_episode_fires_measure(self):
        controller = _StubController()
        retrigger = AutoZeroRetrigger(controller)
        retrigger.observe(record((50, 70)), time_s=1.5)
        assert retrigger.retriggers == 1
        assert controller.calls == [1.5]
        assert retrigger.state == "state-1"
        assert len(retrigger.episodes) == 1

    def test_clean_record_never_fires(self):
        controller = _StubController()
        retrigger = AutoZeroRetrigger(controller)
        retrigger.observe(record(), final=True)
        assert retrigger.retriggers == 0
        assert controller.calls == []

    def test_final_flushes_open_episode(self):
        controller = _StubController()
        retrigger = AutoZeroRetrigger(controller)
        retrigger.observe(record((190, 200)), time_s=2.0, final=True)
        assert retrigger.retriggers == 1
        assert retrigger.episodes[0].end_index == 200

    def test_one_retrigger_per_chunk_with_closures(self):
        controller = _StubController()
        retrigger = AutoZeroRetrigger(controller)
        # Two episodes closing in the same chunk: one re-zero suffices.
        retrigger.observe(record((30, 60), (120, 160)))
        assert len(retrigger.episodes) == 2
        assert retrigger.retriggers == 1
