"""Array scanning and strongest-element selection (Sec. 2, Fig. 1).

The paper's placement-tolerance trick: scan all elements, measure the
pulsatile amplitude each one sees, lock onto the strongest. The scan is
also the vessel-localization primitive ("localizing blood vessels, buried
in tissue"): the amplitude map across the array estimates where the artery
runs beneath the sensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, SignalQualityError
from .array2d import SensorArray
from .mux import AnalogMultiplexer, ScanSchedule, analyze_mux_timing, plan_scan

# Element-health thresholds in the scan records' units (modulator FS),
# translating the quality mask's code-LSB thresholds: the rail level, the
# flat test's window length and standard deviation, and the largest
# railed-sample and flat-window fractions a healthy element may show.
_RAIL_LEVEL = 2007.0 / 2048.0
_FLAT_WINDOW = 64
_FLAT_THRESHOLD = 0.25 / 2048.0
_MAX_SATURATED_FRACTION = 0.02
_MAX_FLAT_FRACTION = 0.5


@dataclass(frozen=True)
class ElementHealthReport:
    """Per-element health of one scan (graceful-degradation input).

    All fractions are over the scanned record; ``healthy`` combines them
    against this module's health thresholds. Signals are in the scan
    records' units (modulator FS).
    """

    #: Fraction of each element's samples at the converter rails.
    saturated_fraction: np.ndarray
    #: Fraction of each element's rolling windows that are flat.
    flat_fraction: np.ndarray
    #: Peak-to-peak amplitude per element.
    amplitudes: np.ndarray
    #: Elements fit to carry the measurement.
    healthy: np.ndarray

    def describe(self) -> str:
        lines = ["element health:"]
        for k in range(self.healthy.size):
            verdict = "ok" if self.healthy[k] else "DEGRADED"
            lines.append(
                f"  element {k}: {verdict} "
                f"(sat {self.saturated_fraction[k]:.1%}, "
                f"flat {self.flat_fraction[k]:.1%}, "
                f"amp {self.amplitudes[k]:.3e})"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class ScanTruncation:
    """Word accounting for one scan's records (no more silent drops).

    Element records can legitimately differ in length — the element that
    was already routed when the scan started needs no filter flush, so
    its record keeps the words the FPGA suppresses everywhere else. The
    scan aligns all elements on the common word count; this report books
    exactly what that alignment dropped, per element.
    """

    #: Words each element's record held before alignment.
    words_recorded: np.ndarray
    #: Common word count every column was cut to.
    words_kept: int
    #: Trailing words dropped from each element's record.
    words_dropped: np.ndarray

    @property
    def total_dropped(self) -> int:
        return int(self.words_dropped.sum())

    def describe(self) -> str:
        uneven = np.flatnonzero(self.words_dropped)
        head = (
            f"scan truncation: kept {self.words_kept} words/element, "
            f"dropped {self.total_dropped} total"
        )
        if uneven.size == 0:
            return head + " (all records equal)"
        detail = ", ".join(
            f"element {k}: -{self.words_dropped[k]}" for k in uneven[:8]
        )
        if uneven.size > 8:
            detail += f", ... ({uneven.size} elements affected)"
        return f"{head} ({detail})"


@dataclass(frozen=True)
class ElementSelection:
    """Outcome of a selection scan."""

    best_index: int
    best_row: int
    best_col: int
    #: Per-element pulsatile amplitude metric (same units as the input).
    amplitude_map: np.ndarray  # shape (rows, cols)
    #: Placement-quality figure: the winner's amplitude over the median
    #: amplitude of the *eligible* (non-excluded) elements. Unhealthy
    #: elements still show in the map but never bias this statistic.
    contrast: float

    def describe(self) -> str:
        lines = [
            f"selected element ({self.best_row}, {self.best_col}) "
            f"with contrast {self.contrast:.2f}"
        ]
        for r in range(self.amplitude_map.shape[0]):
            cells = "  ".join(
                f"{self.amplitude_map[r, c]:.3e}"
                for c in range(self.amplitude_map.shape[1])
            )
            lines.append(f"  row {r}: {cells}")
        return "\n".join(lines)


class ScanController:
    """Sequences the multiplexer through the array and picks the winner."""

    def __init__(self, mux: AnalogMultiplexer):
        self.mux = mux
        #: Word accounting of the most recent :meth:`scan_records` call.
        self.last_scan_truncation: ScanTruncation | None = None
        #: Whether the most recent scan ran through the fused batch kernel.
        self.last_scan_fused: bool = False

    @property
    def array(self) -> SensorArray:
        return self.mux.array

    def scan_records(
        self,
        chain,
        element_pressures_pa: np.ndarray | None = None,
        dwell_s: float = 2.0,
        batched: bool = False,
        *,
        segments: np.ndarray | None = None,
        fused: bool = False,
    ) -> np.ndarray:
        """Sequence a chain through every element; return their records.

        The single owner of element-scan sequencing. Every visit is one
        ordinary acquisition, as on the chip, where the multiplexer
        routes one element at a time into the shared ΣΔ readout:
        element k's window (rows ``[k*dwell, (k+1)*dwell)`` of the
        field, or row k of ``segments``) goes through
        :meth:`~repro.core.chain.ReadoutChain.record_pressure` with
        ``element=k``. Returns (n_words, n_elements) decimated values
        over the common word count; per-element word counts can
        legitimately differ (the element routed at scan start skips the
        filter flush), and whatever the alignment drops is booked in
        :attr:`last_scan_truncation` rather than lost silently.

        Parameters
        ----------
        chain:
            A :class:`~repro.core.chain.ReadoutChain` built on the same
            array this controller's multiplexer drives.
        element_pressures_pa:
            (n_mod_samples, n_elements) membrane-pressure field covering
            at least ``n_elements * dwell_s`` of modulator clocks.
        dwell_s:
            Seconds spent on each element.
        batched:
            Scan as a bank of matched modulators: every visit starts
            from the modulator's pre-scan analog state (restored before
            each visit and once more at the end) instead of the previous
            element's final state; the difference is confined to the
            post-switch words the FPGA suppresses.
        segments:
            Alternative to ``element_pressures_pa``: shape
            (n_elements, n_dwell), row k the pressure element k sees
            during its own visit, fed as a zero-copy broadcast window
            (a visit reads only its routed column). O(elements x dwell)
            memory instead of O(samples x elements); any scan mode.
            ``dwell_s`` is ignored — the dwell is the row length.
        fused:
            Run the whole scan as one fused batch-kernel pass, every
            element a lane — the 64x64-scan-in-one-call path. The
            fused pass hands back the common-length record matrix and
            the per-element word counts itself, in one conversion, and
            the chain keeps its bound kernels and staging rows for the
            next scan. Falls back to the bank scan (bit-identical for
            every supported configuration; see
            :mod:`repro.array.fusedscan`) when the C kernel is
            unavailable, the chain configuration is outside the
            kernel's envelope or its compiled front end declines the
            input (the visit then raises the exact error).
            :attr:`last_scan_fused` records which path ran.
        """
        n_elements = self.array.n_elements
        if segments is not None:
            segments = np.asarray(segments, dtype=float)
            if segments.ndim != 2 or segments.shape[0] != n_elements:
                raise ConfigurationError(
                    "segments must have shape (n_elements, dwell_samples)"
                )
            dwell_mod = segments.shape[1]
            pressures = None
        else:
            if element_pressures_pa is None:
                raise ConfigurationError(
                    "need a pressure field or per-element segments"
                )
            if not math.isfinite(dwell_s):
                raise ConfigurationError("dwell must be finite")
            pressures = np.asarray(element_pressures_pa, dtype=float)
            fs = chain.params.modulator.sampling_rate_hz
            dwell_mod = int(dwell_s * fs)
            if pressures.shape[0] < dwell_mod * n_elements:
                raise ConfigurationError(
                    "pressure field too short for the requested scan"
                )
        if dwell_mod < 1:
            raise ConfigurationError("dwell must be >= 1 sample")
        records = None
        if fused:
            from .fusedscan import run_fused_scan

            if segments is None:
                idx = np.arange(n_elements)
                windows = pressures[: dwell_mod * n_elements].reshape(
                    n_elements, dwell_mod, n_elements
                )
                segments = windows[idx, :, idx]
            scanned = run_fused_scan(chain, segments)
            if scanned is not None:
                records, sizes = scanned
        self.last_scan_fused = records is not None
        if records is None:
            bank = batched or fused
            saved = chain.chip.state_snapshot()
            visits = []
            try:
                for k in range(n_elements):
                    if segments is not None:
                        window = np.broadcast_to(
                            segments[k][:, None], (dwell_mod, n_elements)
                        )
                    else:
                        window = pressures[k * dwell_mod : (k + 1) * dwell_mod]
                    if bank:
                        chain.chip.restore_state(saved)
                    rec = chain.record_pressure(window, element=k)
                    visits.append(rec.values)
            finally:
                if bank:
                    chain.chip.restore_state(saved)
            sizes = np.array([v.size for v in visits])
            n = int(sizes.min())
            records = np.column_stack([v[:n] for v in visits])
        n = records.shape[0]
        self.last_scan_truncation = ScanTruncation(
            words_recorded=sizes,
            words_kept=n,
            words_dropped=sizes - n,
        )
        return records

    def element_health(self, element_signals: np.ndarray) -> ElementHealthReport:
        """Score every element's record for saturation and flatline.

        The graceful-degradation screen: an element whose record spends
        more than ``_MAX_SATURATED_FRACTION`` at the converter rails
        (railed modulator, stuck comparator) or more than
        ``_MAX_FLAT_FRACTION`` of its rolling windows below
        ``_FLAT_THRESHOLD`` standard deviation (stiction, dropout) is
        marked unhealthy. Pass ``~report.healthy`` as
        :meth:`select_strongest`'s ``exclude`` mask to bar it from
        selection — a railed modulator looks *strong* to a peak-to-peak
        metric.
        """
        signals = np.asarray(element_signals, dtype=float)
        if signals.ndim != 2 or signals.shape[1] != self.array.n_elements:
            raise ConfigurationError(
                f"expected (n_samples, {self.array.n_elements}) signals"
            )
        n = signals.shape[0]
        saturated = np.mean(np.abs(signals) >= _RAIL_LEVEL, axis=0)
        if n >= _FLAT_WINDOW:
            shape = (n - _FLAT_WINDOW + 1, _FLAT_WINDOW, signals.shape[1])
            strides = (signals.strides[0],) + signals.strides
            windows = np.lib.stride_tricks.as_strided(
                signals, shape=shape, strides=strides
            )
            flat = np.mean(windows.std(axis=1) < _FLAT_THRESHOLD, axis=0)
        else:
            flat = (signals.std(axis=0) < _FLAT_THRESHOLD).astype(float)
        amplitudes = signals.max(axis=0) - signals.min(axis=0)
        healthy = (
            (saturated <= _MAX_SATURATED_FRACTION)
            & (flat <= _MAX_FLAT_FRACTION)
            & (amplitudes > 0.0)
        )
        return ElementHealthReport(
            saturated_fraction=saturated,
            flat_fraction=flat,
            amplitudes=amplitudes,
            healthy=healthy,
        )

    def select_strongest(
        self,
        element_signals: np.ndarray,
        metric: str = "peak_to_peak",
        exclude: np.ndarray | None = None,
    ) -> ElementSelection:
        """Pick the element with the strongest pulsatile signal.

        Parameters
        ----------
        element_signals:
            Shape (n_samples, n_elements): the per-element readout records
            gathered during the scan (capacitance, code or pressure units —
            the metric is scale-invariant across elements).
        metric:
            ``"peak_to_peak"`` (default, what a simple implementation
            does) or ``"std"`` (more robust to single-sample glitches).
        exclude:
            Optional boolean mask of elements barred from selection
            (``True`` = excluded) — typically ``~health.healthy`` from
            :meth:`element_health`. Excluded amplitudes still appear in
            the amplitude map; the winner choice and the contrast
            median skip them.
        """
        signals = np.asarray(element_signals, dtype=float)
        if signals.ndim != 2 or signals.shape[1] != self.array.n_elements:
            raise ConfigurationError(
                f"expected (n_samples, {self.array.n_elements}) signals"
            )
        if signals.shape[0] < 2:
            raise ConfigurationError("need at least 2 samples per element")
        if metric == "peak_to_peak":
            amplitudes = signals.max(axis=0) - signals.min(axis=0)
        elif metric == "std":
            amplitudes = signals.std(axis=0)
        else:
            raise ConfigurationError("metric must be peak_to_peak|std")

        eligible = amplitudes.copy()
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=bool)
            if exclude.shape != (self.array.n_elements,):
                raise ConfigurationError(
                    "exclude mask must have one entry per element"
                )
            if exclude.all():
                raise SignalQualityError(
                    "every element is excluded as unhealthy; cannot "
                    "select a measurement element"
                )
            eligible[exclude] = -np.inf

        if not np.any(eligible > 0.0):
            raise SignalQualityError(
                "no element shows a pulsatile signal; sensor is probably "
                "not coupled to the tissue"
            )
        best = int(np.argmax(eligible))
        row, col = self.array.geometry.element_rowcol(best)
        rows, cols = self.array.params.rows, self.array.params.cols
        amp_map = amplitudes.reshape(rows, cols)
        # Placement-quality figure: best over the *eligible* median. A
        # half-dead array must not inflate its own contrast by letting
        # railed/flatlined amplitudes into the reference statistic.
        if exclude is not None:
            median = float(np.median(amplitudes[~exclude]))
        else:
            median = float(np.median(amplitudes))
        contrast = float(amplitudes[best] / median) if median > 0 else float("inf")
        self.mux.select_index(best)
        return ElementSelection(
            best_index=best,
            best_row=row,
            best_col=col,
            amplitude_map=amp_map,
            contrast=contrast,
        )

    def scan_and_select(
        self, chain, segments: np.ndarray, settle_words: int
    ) -> ElementSelection:
        """Drive a full scan through a readout chain and pick the winner.

        Sequences ``chain`` through every element in turn, element k
        for row k of ``segments`` (:meth:`scan_records`: each visit
        starts from the previous element's final modulator state, as on
        the chip), drops the first ``settle_words`` filter-flush words
        of the common record, and feeds the settled signals to
        :meth:`select_strongest`.
        """
        if not 0 <= settle_words < math.inf:
            raise ConfigurationError("settle_words must be a finite count >= 0")
        records = self.scan_records(chain, segments=segments)
        return self.select_strongest(records[int(settle_words):])

    def schedule(
        self,
        decimator,
        valid_words: int = 1,
        banks: int = 1,
    ) -> ScanSchedule:
        """Plan the N x N scan timetable for this array and a decimator.

        Wraps :func:`~repro.array.mux.analyze_mux_timing` +
        :func:`~repro.array.mux.plan_scan`: the settling budget fixes the
        words discarded per visit, ``valid_words`` sets the dwell beyond
        it, and ``banks`` models concurrent ΣΔ converter banks (e.g.
        ``banks=cols`` for a per-column converter).
        """
        timing = analyze_mux_timing(self.mux, decimator)
        return plan_scan(
            timing,
            rows=self.array.params.rows,
            cols=self.array.params.cols,
            output_rate_hz=decimator.output_rate_hz,
            total_decimation=decimator.params.total_decimation,
            valid_words=valid_words,
            banks=banks,
        )
