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
    #: amplitude of all elements.
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
        segments: np.ndarray,
        batched: bool = False,
        *,
        fused: bool = False,
    ) -> np.ndarray:
        """Sequence a chain through every element; return their records.

        The single owner of element-scan sequencing. Every visit is one
        ordinary acquisition, as on the chip, where the multiplexer
        routes one element at a time into the shared ΣΔ readout: row k
        of ``segments`` goes through
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
        segments:
            Shape (n_elements, n_dwell): row k is the pressure element k
            sees during its own visit (the data the multiplexer routes,
            e.g. from ``TonometricCoupling.scan_pressure_segments``),
            fed as a zero-copy broadcast window, since a visit reads
            only its routed column. The dwell is the row length.
        batched:
            Scan as a bank of matched modulators: every visit starts
            from the modulator's pre-scan analog state (restored before
            each visit and once more at the end) instead of the previous
            element's final state; the difference is confined to the
            post-switch words the FPGA suppresses.
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
        segments = np.asarray(segments, dtype=float)
        if segments.ndim != 2 or segments.shape[0] != n_elements:
            raise ConfigurationError(
                "segments must have shape (n_elements, dwell_samples)"
            )
        dwell_mod = segments.shape[1]
        if dwell_mod < 1:
            raise ConfigurationError("dwell must be >= 1 sample")
        records = None
        if fused:
            from .fusedscan import run_fused_scan

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
                    window = np.broadcast_to(
                        segments[k][:, None], (dwell_mod, n_elements)
                    )
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

    def select_strongest(
        self,
        element_signals: np.ndarray,
        metric: str = "peak_to_peak",
    ) -> ElementSelection:
        """Pick the element with the strongest pulsatile signal.

        Every element competes: nothing screens out a degraded one, so
        a railed element, which looks strong to ``"peak_to_peak"``,
        can win; the quality mask of the record taken from it then
        flags the railed words.

        Parameters
        ----------
        element_signals:
            Shape (n_samples, n_elements): the per-element readout records
            gathered during the scan (capacitance, code or pressure units —
            the metric is scale-invariant across elements).
        metric:
            ``"peak_to_peak"`` (default, what a simple implementation
            does) or ``"std"`` (more robust to single-sample glitches).
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

        if not np.any(amplitudes > 0.0):
            raise SignalQualityError(
                "no element shows a pulsatile signal; sensor is probably "
                "not coupled to the tissue"
            )
        best = int(np.argmax(amplitudes))
        row, col = self.array.geometry.element_rowcol(best)
        rows, cols = self.array.params.rows, self.array.params.cols
        amp_map = amplitudes.reshape(rows, cols)
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
