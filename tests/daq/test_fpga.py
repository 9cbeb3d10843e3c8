"""FPGA filter bank wrapper."""

import numpy as np
import pytest

from repro.daq.fpga import FPGAFilterBank
from repro.daq.usb import FrameDecoder
from repro.errors import ConfigurationError


def dc_bits(n):
    return np.ones(n, dtype=np.int64)


class TestFiltering:
    def test_frames_out(self):
        fpga = FPGAFilterBank(samples_per_frame=16)
        payload = fpga.process(dc_bits(128 * 64)) + fpga.flush()
        frames = FrameDecoder().feed(payload)
        total = sum(f.samples.size for f in frames)
        assert total == 64

    def test_output_rate(self):
        fpga = FPGAFilterBank()
        assert fpga.output_rate_hz == pytest.approx(1000.0)

    def test_element_tagging(self):
        fpga = FPGAFilterBank(samples_per_frame=8, flush_words_on_switch=0)
        fpga.select_element(3)
        payload = fpga.process(dc_bits(128 * 16)) + fpga.flush()
        frames = FrameDecoder().feed(payload)
        assert all(f.element == 3 for f in frames)


class TestSwitching:
    def test_switch_suppresses_words(self):
        fpga = FPGAFilterBank(samples_per_frame=4, flush_words_on_switch=8)
        fpga.select_element(1)
        payload = fpga.process(dc_bits(128 * 20)) + fpga.flush()
        frames = FrameDecoder().feed(payload)
        total = sum(f.samples.size for f in frames)
        assert total == 20 - 8

    def test_switch_resets_filter(self):
        """After a switch + flush, DC words match a fresh filter's."""
        fresh = FPGAFilterBank(samples_per_frame=4, flush_words_on_switch=8)
        fresh.select_element(1)
        p1 = fresh.process(dc_bits(128 * 20)) + fresh.flush()
        used = FPGAFilterBank(samples_per_frame=4, flush_words_on_switch=8)
        used.process(dc_bits(128 * 20))  # run on element 0 first
        used.select_element(1)
        p2 = used.process(dc_bits(128 * 20)) + used.flush()
        s1 = np.concatenate([f.samples for f in FrameDecoder().feed(p1)])
        s2 = np.concatenate([f.samples for f in FrameDecoder().feed(p2)])
        assert np.array_equal(s1, s2)

    def test_same_element_no_suppression(self):
        fpga = FPGAFilterBank(samples_per_frame=4, flush_words_on_switch=8)
        payload = fpga.process(dc_bits(128 * 10))
        fpga.select_element(0)  # already selected: no reset
        payload += fpga.process(dc_bits(128 * 10)) + fpga.flush()
        frames = FrameDecoder().feed(payload)
        assert sum(f.samples.size for f in frames) == 20

    def test_rejects_negative_element(self):
        with pytest.raises(ConfigurationError):
            FPGAFilterBank().select_element(-1)

    def test_rejects_negative_flush(self):
        with pytest.raises(ConfigurationError):
            FPGAFilterBank(flush_words_on_switch=-1)
