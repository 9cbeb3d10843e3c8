"""FPGA wrapper: decimation filter bank plus frame generation.

The FPGA of Fig. 3 contains the two-stage decimation filter and the USB
interface. This wrapper runs the bit-true filter on incoming bitstream
chunks, tags output words with the currently selected array element, and
emits USB frames — the complete digital back end between the modulator
pads and the host software.
"""

from __future__ import annotations

import numpy as np

from typing import Callable

from ..errors import ConfigurationError
from ..dsp.decimator import DecimationFilter
from ..dsp.fixed_point import saturate
from ..params import DecimationParams
from .usb import FrameEncoder


class FPGAFilterBank:
    """Streaming FPGA model: bitstream in, framed 12-bit words out.

    Parameters
    ----------
    params:
        Decimation filter architecture (paper defaults).
    input_rate_hz:
        Modulator clock (128 kHz).
    samples_per_frame:
        USB frame payload size.
    flush_words_on_switch:
        Output words suppressed after an element switch while the filter
        flushes (see :func:`repro.array.mux.analyze_mux_timing`).
    """

    def __init__(
        self,
        params: DecimationParams | None = None,
        input_rate_hz: float = 128e3,
        samples_per_frame: int = 64,
        flush_words_on_switch: int = 8,
    ):
        if flush_words_on_switch < 0:
            raise ConfigurationError("flush words must be >= 0")
        self.filter = DecimationFilter(params, input_rate_hz=input_rate_hz)
        self.encoder = FrameEncoder(samples_per_frame=samples_per_frame)
        self.flush_words_on_switch = int(flush_words_on_switch)
        self._element = 0
        self._suppress = 0
        #: Optional tap on the delivered-word path (after the post-switch
        #: suppression window, before framing) — the fault injector's
        #: word-corruption hook. Hook output is saturated to the i16
        #: sample range, never wrapped.
        self.word_hook: Callable[[np.ndarray], np.ndarray] | None = None
        #: Lifetime telemetry counters (streaming sessions read deltas).
        self.samples_in = 0
        self.words_filtered = 0
        self.words_suppressed = 0
        self.filter_resets = 0

    @property
    def output_rate_hz(self) -> float:
        return self.filter.output_rate_hz

    @property
    def selected_element(self) -> int:
        return self._element

    def select_element(self, element: int) -> None:
        """Record an element switch; resets the filter and starts the
        post-switch suppression window."""
        if element < 0:
            raise ConfigurationError("element must be >= 0")
        if element != self._element:
            self._element = int(element)
            self.filter.reset()
            self.filter_resets += 1
            self._suppress = self.flush_words_on_switch

    def process(self, bitstream: np.ndarray) -> bytes:
        """Filter a bitstream chunk and emit completed USB frames."""
        bitstream = np.asarray(bitstream)
        return self.frame(self.filter.process(bitstream).codes, bitstream.size)

    def frame(self, codes: np.ndarray, samples_in: int) -> bytes:
        """Emit the USB frames the cascade's words for a chunk complete.

        ``codes`` are the words the decimation cascade emitted for
        ``samples_in`` modulator samples (this bank's filter, or the
        fused kernel advancing the same state); they go through
        :meth:`tail` and then the framer.
        """
        codes = self.tail(codes, samples_in)
        if codes.size == 0:
            return b""
        return self.encoder.push(codes, self._element)

    def tail(self, codes: np.ndarray, samples_in: int) -> np.ndarray:
        """The post-filter tail: counters, suppression, hook, i16 rails.

        Books ``samples_in`` modulator samples and the cascade's
        ``codes``, drops the words still inside the post-switch
        suppression window, runs :attr:`word_hook` on the rest, and
        clamps the result to the i16 sample range ([-32768, 32767],
        two's-complement asymmetric) instead of the silent wraparound a
        bare ``astype(np.int16)`` would perform on out-of-range words.
        Returns the words to deliver.
        """
        self.samples_in += samples_in
        self.words_filtered += codes.size
        if self._suppress > 0:
            drop = min(self._suppress, codes.size)
            codes = codes[drop:]
            self._suppress -= drop
            self.words_suppressed += drop
        if codes.size and self.word_hook is not None:
            codes = np.asarray(self.word_hook(codes))
        return saturate(codes, 16)

    def flush(self) -> bytes:
        """Flush the partial USB frame at end of acquisition.

        Decimation state is *not* cleared: like the hardware, samples
        still inside the CIC/FIR pipelines (fewer than one output word's
        worth) stay there, ready for the next chunk. Only the framing
        layer holds deliverable words back, so this is the single flush
        point of the whole FPGA.
        """
        return self.encoder.flush()
