"""Synchronized row/column analog multiplexers (Fig. 4) and mux timing.

Two 2:1 multiplexers (row select, column select) connect one transducer to
the readout. Electrically the switch settles within nanoseconds (on-chip
RC), so — as the paper notes — "the settling when switching between
different sensor elements is limited by the signal bandwidth of the
sigma-delta-AD-converter": after a switch, the decimation filter still
contains history of the previous element, and output words are invalid
until the filter impulse response has flushed. :class:`MuxTimingAnalysis`
quantifies exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..dsp.decimator import DecimationFilter
from .array2d import SensorArray

class AnalogMultiplexer:
    """Row/column element selection with a switching-transient model.

    Parameters
    ----------
    array:
        The sensor array being scanned.
    switch_resistance_ohm:
        On-resistance of the pass gates; with the sensor capacitance it
        sets the electrical settling time constant.
    charge_injection_c:
        Charge injected onto the readout node by switching [C]; decays
        within one electrical time constant and is modelled as a one-
        sample capacitance glitch.
    """

    def __init__(
        self,
        array: SensorArray,
        switch_resistance_ohm: float = 2e3,
        charge_injection_c: float = 5e-15 * 2.5,
    ):
        if switch_resistance_ohm <= 0:
            raise ConfigurationError("switch resistance must be positive")
        self.array = array
        self.switch_resistance_ohm = float(switch_resistance_ohm)
        self.charge_injection_c = float(charge_injection_c)
        self._selected = 0
        self._just_switched = False

    # -- selection ----------------------------------------------------------

    @property
    def selected(self) -> int:
        return self._selected

    def select(self, row: int, col: int) -> None:
        """Drive the row/column select lines."""
        index = self.array.geometry.element_index(row, col)
        self.select_index(index)

    def select_index(self, index: int) -> None:
        if not 0 <= index < self.array.n_elements:
            raise ConfigurationError(
                f"element index {index} outside 0..{self.array.n_elements - 1}"
            )
        if index != self._selected:
            self._just_switched = True
        self._selected = index

    # -- electrical behaviour ---------------------------------------------------

    @property
    def electrical_time_constant_s(self) -> float:
        """R_on * C_sense: the (negligible) analog settling constant."""
        c = self.array.sensor.rest_capacitance_f
        return self.switch_resistance_ohm * c

    def electrical_settling_samples(self, sampling_rate_hz: float) -> float:
        """Modulator clocks needed for the *electrical* transient (ten
        time constants)."""
        if sampling_rate_hz <= 0:
            raise ConfigurationError("sampling rate must be positive")
        return (
            10.0
            * self.electrical_time_constant_s
            * sampling_rate_hz
        )

    def routed_capacitance_f(
        self, element_pressures_pa: np.ndarray
    ) -> np.ndarray:
        """Capacitance seen by the readout for the selected element.

        ``element_pressures_pa`` shape (n_samples, n_elements); the first
        returned sample after a switch carries the charge-injection glitch
        (expressed as an equivalent capacitance error at Vref = 2.5 V).
        """
        pressures = np.asarray(element_pressures_pa, dtype=float)
        if pressures.ndim != 2 or pressures.shape[1] != self.array.n_elements:
            raise ConfigurationError(
                "expected shape (n_samples, n_elements)"
            )
        caps = self.array.elements[self._selected].capacitance_f(
            pressures[:, self._selected]
        )
        if self._just_switched and caps.size:
            caps = caps.copy()
            caps[0] += self.charge_injection_c / 2.5
            self._just_switched = False
        return caps


@dataclass(frozen=True)
class ScanSchedule:
    """Row/column scan timetable for an N x M array (THEORY.md §13).

    The mux switch itself settles in nanoseconds; the budget is the
    decimation filter flushing the previous element (``settle_words``
    output words discarded per visit, from :class:`MuxTimingAnalysis`).
    ``banks`` models how many ΣΔ converters digitize concurrently:
    1 is the paper's shared-converter scan, ``cols`` is a per-column
    bank (each bank walks its own column set), dividing frame time by
    the bank count. The fused batch kernel maps banks onto
    ``repro.batch`` lanes, so device-time concurrency and host-time
    vectorization use the same axis.
    """

    rows: int
    cols: int
    banks: int
    settle_words: int
    valid_words: int
    output_rate_hz: float
    total_decimation: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("array must be at least 1x1")
        if not 1 <= self.banks <= self.n_elements:
            raise ConfigurationError(
                f"banks must be in 1..{self.n_elements}"
            )
        if self.settle_words < 0 or self.valid_words < 1:
            raise ConfigurationError(
                "need settle_words >= 0 and valid_words >= 1"
            )
        if self.output_rate_hz <= 0 or self.total_decimation < 1:
            raise ConfigurationError("bad output rate / decimation")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols

    @property
    def words_per_visit(self) -> int:
        """Output words spent per element visit (settle + valid)."""
        return self.settle_words + self.valid_words

    @property
    def element_dwell_s(self) -> float:
        return self.words_per_visit / self.output_rate_hz

    @property
    def visits_per_bank(self) -> int:
        """Elements each converter bank digitizes per frame."""
        return math.ceil(self.n_elements / self.banks)

    @property
    def frame_time_s(self) -> float:
        """Device time for one full-array frame."""
        return self.visits_per_bank * self.element_dwell_s

    @property
    def frame_rate_hz(self) -> float:
        return 1.0 / self.frame_time_s

    @property
    def elements_per_s(self) -> float:
        """Device-time element visit rate across all banks."""
        return self.n_elements / self.frame_time_s

    @property
    def efficiency(self) -> float:
        """Fraction of converter words that are valid (not flush)."""
        return self.valid_words / self.words_per_visit

    def describe(self) -> str:
        return "\n".join(
            [
                f"scan schedule {self.rows}x{self.cols}, "
                f"{self.banks} converter bank(s)",
                f"  dwell      : {self.settle_words} settle + "
                f"{self.valid_words} valid words "
                f"({self.element_dwell_s * 1e3:.1f} ms/element)",
                f"  frame      : {self.frame_time_s:.3f} s "
                f"({self.frame_rate_hz:.3f} Hz)",
                f"  throughput : {self.elements_per_s:.1f} elements/s, "
                f"efficiency {self.efficiency:.0%}",
            ]
        )


def plan_scan(
    timing: MuxTimingAnalysis,
    rows: int,
    cols: int,
    output_rate_hz: float,
    total_decimation: int,
    valid_words: int = 1,
    banks: int = 1,
) -> ScanSchedule:
    """Build the scan timetable from a mux/decimator settling budget."""
    return ScanSchedule(
        rows=rows,
        cols=cols,
        banks=banks,
        settle_words=timing.output_words_discarded,
        valid_words=valid_words,
        output_rate_hz=output_rate_hz,
        total_decimation=total_decimation,
    )


@dataclass(frozen=True)
class MuxTimingAnalysis:
    """Settling budget for element switching (the Sec. 2.2 claim).

    Attributes
    ----------
    electrical_settling_s:
        Time for the analog switch transient (10 tau).
    filter_flush_s:
        Time for the decimation filter to forget the previous element:
        the full impulse-response length of CIC and FIR.
    output_words_discarded:
        Output words that must be dropped after each switch.
    """

    electrical_settling_s: float
    filter_flush_s: float
    output_words_discarded: int

    @property
    def dominant(self) -> str:
        """Which mechanism limits switching — 'filter' per the paper."""
        return (
            "filter"
            if self.filter_flush_s >= self.electrical_settling_s
            else "electrical"
        )

    @property
    def max_scan_rate_hz(self) -> float:
        """Fastest per-element visit rate with one valid word per dwell."""
        total = self.filter_flush_s + max(self.electrical_settling_s, 0.0)
        return 1.0 / total if total > 0 else math.inf


def analyze_mux_timing(
    mux: AnalogMultiplexer,
    decimator: DecimationFilter,
) -> MuxTimingAnalysis:
    """Compute the switching budget for a mux/decimator pairing."""
    fs = decimator.input_rate_hz
    electrical = mux.electrical_settling_samples(fs) / fs
    # Full impulse-response length, not just group delay: the filter's
    # memory of the previous element must drain completely.
    cic_memory = decimator.cic.order * decimator.params.cic_decimation / fs
    fir_rate = fs / decimator.params.cic_decimation
    fir_memory = decimator.params.fir_taps / fir_rate
    flush = cic_memory + fir_memory
    words = math.ceil(flush * decimator.output_rate_hz)
    return MuxTimingAnalysis(
        electrical_settling_s=electrical,
        filter_flush_s=flush,
        output_words_discarded=words,
    )
