"""FAULTS: fault-injection matrix across the acquisition pipeline.

Sec. 4's field-test concern, turned into a falsifiable harness: inject
every fault kind the taxonomy defines (``repro.faults``) at each layer of
the chain — membrane array, modulator, FPGA word path, USB link — and
check that the pipeline *never corrupts data silently*. For each
(kind, rate) cell the harness runs a clean and a faulted acquisition
from identical entropy, compares them sample-by-sample on the
gap-repaired timeline, and classifies every deviating sample:

* **flagged** — the per-sample quality mask (or the stream's gap
  accounting) marks it bad: degradation was *detected*; downstream
  consumers can excise it.
* **silent** — the sample deviates beyond the kind's tolerance but the
  mask calls it good. This is the failure mode the whole fault layer
  exists to prevent; the matrix reports it per cell and the CLI exits
  nonzero if any cell shows one.

Detection is judged per injected event: window/point faults must put at
least one flagged sample near their scheduled position; link faults must
show up in the decoder/stream loss counters (including the
``frames_unaccounted`` telemetry that catches tail-of-stream drops no
sequence number can witness). Modulator-saturation cells additionally
exercise the recovery path: a :class:`~repro.faults.AutoZeroRetrigger`
replays the record and must re-trigger the autozero sequencer.

The (kind, rate) cells are independent, so they fan out over a
:class:`~repro.parallel.ParallelExecutor` pool (``jobs=N``) with
per-task-index spawned seeds — results are bit-identical for every
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.autozero import AutoZeroController
from ..core.chain import ReadoutChain
from ..errors import ConfigurationError
from ..faults import (
    FAULT_KINDS,
    KIND_LAYERS,
    AutoZeroRetrigger,
    FaultInjector,
    FaultSpec,
    QualityConfig,
    SaturationEpisodeDetector,
    timeline_quality,
)
from ..parallel import ParallelExecutor

#: Test field: a strong pulsatile signal well inside the membrane range
#: (offset + amplitude stay below half the ±50 kPa span) but large on the
#: 12-bit code scale, so corruption is visible above quantization noise.
_FIELD_OFFSET_PA = 10_000.0
_FIELD_AMPLITUDE_PA = 15_000.0
_FIELD_FREQ_HZ = 8.0

#: Per-kind injection parameters and the |clean - faulted| tolerance (in
#: LSB) above which a timeline sample counts as corrupted. Tolerances
#: absorb the filter-memory transients that trail each fault window;
#: anything larger must be flagged by the quality mask.
_KIND_PROFILES: dict[str, dict[str, float]] = {
    "element_dropout": {"duration_s": 0.6, "magnitude": 1.0, "tol": 6.0},
    "element_stiction": {"duration_s": 0.6, "magnitude": 1.0, "tol": 6.0},
    "capacitance_drift": {
        "duration_s": 0.6,
        "magnitude": 30_000.0,  # Pa/s: ~21 LSB of ramp over the window
        "tol": 16.0,
    },
    "sdm_saturation": {"duration_s": 0.3, "magnitude": 1.5, "tol": 8.0},
    "stuck_comparator": {"duration_s": 0.3, "magnitude": 1.0, "tol": 8.0},
    "word_corruption": {"duration_s": 0.2, "magnitude": 1024.0, "tol": 8.0},
    "frame_drop": {"duration_s": 0.2, "magnitude": 1.0, "tol": 8.0},
    "frame_truncation": {"duration_s": 0.2, "magnitude": 0.5, "tol": 8.0},
    "frame_bitflip": {"duration_s": 0.2, "magnitude": 1.0, "tol": 8.0},
    "frame_reorder": {"duration_s": 0.2, "magnitude": 1.0, "tol": 8.0},
}

#: Detection window slack around an event's scheduled word position:
#: ``_SLACK_PRE`` absorbs the FPGA's post-switch suppression offset,
#: ``_SLACK_POST`` the windowed detectors' lag (they flag backward over
#: one full detection window once a fault's statistics accumulate).
_SLACK_PRE = 48
_SLACK_POST = 160

#: Element the matrix records (the fault hooks are element-agnostic; one
#: is enough).
_ELEMENT = 1


def _harness_quality() -> QualityConfig:
    """Quality-mask tuning for the matrix's known test field.

    The windowed detectors (jump/drift/flatline) default off in
    :class:`~repro.faults.QualityConfig` because their thresholds are
    signal-dependent; here the field is known, so they are enabled with
    margins derived from it. The 125-sample window spans exactly one
    8 Hz cycle at 1 kS/s, which nulls the pulsatile component out of the
    rolling mean the drift detector compares.
    """
    return QualityConfig(
        jump_threshold=8.0,
        drift_threshold=6.0,
        flat_threshold=0.75,
        window=125,
    )


def _test_field(n_samples: int, fs_hz: float, n_elements: int) -> np.ndarray:
    t = np.arange(n_samples) / fs_hz
    wave = _FIELD_OFFSET_PA + _FIELD_AMPLITUDE_PA * np.sin(
        2.0 * np.pi * _FIELD_FREQ_HZ * t
    )
    return np.tile(wave[:, None], (1, n_elements))


@dataclass(frozen=True)
class FaultCellResult:
    """Outcome of one (kind, rate) matrix cell."""

    kind: str
    rate_hz: float
    backend: str
    seed: int
    #: Scheduled events that actually touched data during the record.
    events_injected: int
    #: Events with a flagged sample in their slack window (window/point
    #: kinds) or accounted for by a loss counter (link kinds).
    events_detected: int
    #: Timeline samples deviating from the clean record beyond the
    #: kind's tolerance (received samples only; lost ones are excluded
    #: because the gap accounting already reports them).
    corrupted_samples: int
    #: Corrupted samples the quality mask flagged bad.
    flagged_corrupted_samples: int
    #: Corrupted samples the mask called good — the metric that must be
    #: zero for the degradation contract to hold.
    silent_corruption_samples: int
    quality_fraction: float
    words: int
    lost_samples: int
    crc_errors: int
    resync_bytes: int
    frames_unaccounted: int
    #: Autozero re-triggers the recovery path fired (sdm kinds only).
    autozero_retriggers: int
    #: Record completed and the pipeline telemetry reconciled.
    survived: bool

    @property
    def silent(self) -> bool:
        return self.silent_corruption_samples > 0


@dataclass(frozen=True)
class FaultMatrixResult:
    """All cells of one fault-matrix run."""

    cells: tuple[FaultCellResult, ...]
    duration_s: float
    seed: int
    backend: str

    @property
    def silent_corruption_total(self) -> int:
        return sum(c.silent_corruption_samples for c in self.cells)

    @property
    def all_survived(self) -> bool:
        return all(c.survived for c in self.cells)

    @property
    def all_detected(self) -> bool:
        return all(
            c.events_detected >= c.events_injected for c in self.cells
        )

    @property
    def contract_holds(self) -> bool:
        """Every fault detected, nothing silent, every record survived."""
        return (
            self.all_survived
            and self.all_detected
            and self.silent_corruption_total == 0
        )

    def rows(self) -> list[tuple[str, str, str]]:
        """Summary rows in the standard experiment 3-column format."""
        survived = sum(c.survived for c in self.cells)
        return [
            (
                "matrix cells (kind x rate)",
                "(all 4 pipeline layers)",
                f"{len(self.cells)}",
            ),
            (
                "fault events injected",
                "(seeded schedules)",
                f"{sum(c.events_injected for c in self.cells)}",
            ),
            (
                "fault events detected",
                "(must equal injected)",
                f"{sum(c.events_detected for c in self.cells)}",
            ),
            (
                "silent corruption samples",
                "(must be 0)",
                f"{self.silent_corruption_total}",
            ),
            (
                "records survived",
                "(graceful degradation)",
                f"{survived}/{len(self.cells)}",
            ),
            (
                "degradation contract",
                "(detect, flag or recover)",
                "holds" if self.contract_holds else "VIOLATED",
            ),
        ]

    def matrix_rows(self) -> list[tuple[str, ...]]:
        """Full per-cell table (header row first)."""
        header = (
            "kind",
            "layer",
            "rate/Hz",
            "inj",
            "det",
            "corrupt",
            "silent",
            "lost",
            "retrig",
            "quality",
            "ok",
        )
        rows: list[tuple[str, ...]] = [header]
        for c in self.cells:
            ok = c.survived and not c.silent and (
                c.events_detected >= c.events_injected
            )
            rows.append(
                (
                    c.kind,
                    KIND_LAYERS[c.kind],
                    f"{c.rate_hz:.2f}",
                    f"{c.events_injected}",
                    f"{c.events_detected}",
                    f"{c.corrupted_samples}",
                    f"{c.silent_corruption_samples}",
                    f"{c.lost_samples}",
                    f"{c.autozero_retriggers}",
                    f"{c.quality_fraction:.3f}",
                    "yes" if ok else "NO",
                )
            )
        return rows

    def describe(self) -> str:
        verdict = (
            "contract holds: every fault detected or recovered, "
            "zero silent corruption"
            if self.contract_holds
            else "CONTRACT VIOLATED"
        )
        return (
            f"fault matrix: {len(self.cells)} cells, "
            f"{sum(c.events_injected for c in self.cells)} events over "
            f"{self.duration_s:.1f} s records ({self.backend} backend) — "
            f"{verdict}"
        )


def _cell_specs(
    kind: str, rate_hz: float, duration_s: float
) -> list[FaultSpec]:
    """One pinned event (guarantees coverage at any rate) + the Poisson
    process under test."""
    profile = _KIND_PROFILES[kind]
    specs = [
        FaultSpec(
            kind,
            start_s=0.31 * duration_s,
            duration_s=profile["duration_s"],
            magnitude=profile["magnitude"],
        )
    ]
    if rate_hz > 0:
        specs.append(
            FaultSpec(
                kind,
                rate_hz=rate_hz,
                duration_s=profile["duration_s"],
                magnitude=profile["magnitude"],
            )
        )
    return specs


def _failed_cell(
    kind: str, rate_hz: float, backend: str, seed: int
) -> FaultCellResult:
    return FaultCellResult(
        kind=kind,
        rate_hz=rate_hz,
        backend=backend,
        seed=seed,
        events_injected=0,
        events_detected=0,
        corrupted_samples=0,
        flagged_corrupted_samples=0,
        silent_corruption_samples=0,
        quality_fraction=0.0,
        words=0,
        lost_samples=0,
        crc_errors=0,
        resync_bytes=0,
        frames_unaccounted=0,
        autozero_retriggers=0,
        survived=False,
    )


def _detect_events(
    injector: FaultInjector,
    bad_received: np.ndarray,
    out_rate_hz: float,
    counters_fired: int,
) -> int:
    """Count applied events the pipeline noticed.

    Window and point faults must leave at least one flagged sample near
    their scheduled position. Link faults destroy whole frames, so their
    witness is the loss accounting: every lost/CRC-failed/unaccounted
    frame counter increment credits one event (capped at the number
    injected — one event can trip several counters).
    """
    detected = 0
    usb_events = 0
    for kind, layer, start_s, end_s in injector.applied_windows():
        if layer == "usb":
            usb_events += 1
            continue
        w0 = int(start_s * out_rate_hz) - _SLACK_PRE
        w1 = int(end_s * out_rate_hz) + _SLACK_POST
        lo = max(w0, 0)
        hi = min(w1, bad_received.size)
        if lo < hi and bool(bad_received[lo:hi].any()):
            detected += 1
    detected += min(usb_events, counters_fired)
    return detected


def _fault_cell_task(
    item: tuple[str, float, float, str],
    seed: np.random.SeedSequence,
) -> FaultCellResult:
    """Run one matrix cell (module-level: executor tasks must pickle)."""
    kind, rate_hz, duration_s, backend = item
    entropy = int(seed.generate_state(1)[0])
    try:
        return _run_cell(kind, rate_hz, duration_s, backend, entropy)
    except Exception:
        # Survival is itself a metric: a fault that crashes the
        # acquisition (or breaks telemetry reconciliation) is a
        # graceful-degradation failure, not a harness error.
        return _failed_cell(kind, rate_hz, backend, entropy)


def _run_cell(
    kind: str,
    rate_hz: float,
    duration_s: float,
    backend: str,
    entropy: int,
) -> FaultCellResult:
    profile = _KIND_PROFILES[kind]
    probe = ReadoutChain(backend=backend)
    fs = float(probe.chip.params.modulator.sampling_rate_hz)
    n_elements = probe.chip.params.array.n_elements
    field = _test_field(int(duration_s * fs), fs, n_elements)

    # Clean reference from the same entropy: with no faults the chains
    # are bit-identical, so every timeline deviation is fault-caused.
    clean_chain = ReadoutChain(
        rng=np.random.default_rng(entropy), backend=backend
    )
    clean = clean_chain.record_pressure(field, element=_ELEMENT)

    chain = ReadoutChain(rng=np.random.default_rng(entropy), backend=backend)
    injector = FaultInjector(
        _cell_specs(kind, rate_hz, duration_s),
        seed=entropy,
        horizon_s=duration_s,
    )
    session = chain.session(
        element=_ELEMENT, faults=injector, quality=_harness_quality()
    )
    # Chunked feed: fault application must be chunking-invariant, so the
    # harness always exercises the chunked path.
    for chunk in np.array_split(field, max(1, int(duration_s * 2))):
        if chunk.size:
            session.feed_pressure(chunk)
    session.finish()
    rec = session.recording()
    tm = session.telemetry
    tm.reconcile()

    values, valid = session.stream.zero_filled(_ELEMENT)
    tq = timeline_quality(rec.quality, valid)
    n = min(clean.codes.size, values.size)
    diff = np.abs(values[:n].astype(float) - clean.codes[:n].astype(float))
    corrupted = valid[:n] & (diff > profile["tol"])
    flagged = corrupted & ~tq[:n]
    silent = corrupted & tq[:n]

    counters_fired = (
        session.decoder.lost_frames
        + session.decoder.crc_errors
        + tm.frames_unaccounted
    )
    detected = _detect_events(
        injector, ~rec.quality, chain.output_rate_hz, counters_fired
    )

    retriggers = 0
    if KIND_LAYERS[kind] == "sdm":
        # Recovery path: replay the degraded record through the
        # saturation-episode detector; closed episodes must re-trigger
        # the autozero sequencer. Runs after the session finished, since
        # measure() drives the chain.
        retrigger = AutoZeroRetrigger(
            AutoZeroController(chain), SaturationEpisodeDetector()
        )
        retrigger.observe(rec.codes, time_s=duration_s, final=True)
        retriggers = retrigger.retriggers

    return FaultCellResult(
        kind=kind,
        rate_hz=rate_hz,
        backend=backend,
        seed=entropy,
        events_injected=injector.events_applied,
        events_detected=detected,
        corrupted_samples=int(np.count_nonzero(corrupted)),
        flagged_corrupted_samples=int(np.count_nonzero(flagged)),
        silent_corruption_samples=int(np.count_nonzero(silent)),
        quality_fraction=rec.quality_fraction,
        words=int(rec.codes.size),
        lost_samples=int(rec.lost_samples),
        crc_errors=int(session.decoder.crc_errors),
        resync_bytes=int(session.decoder.resync_bytes),
        frames_unaccounted=int(tm.frames_unaccounted),
        autozero_retriggers=int(retriggers),
        survived=True,
    )


def run_fault_matrix(
    kinds: tuple[str, ...] | list[str] | None = None,
    rates: tuple[float, ...] = (1.0,),
    duration_s: float = 4.0,
    seed: int = 20040506,
    jobs: int = 1,
    backend: str = "fast",
) -> FaultMatrixResult:
    """Sweep fault kind × rate and score the degradation contract.

    Parameters
    ----------
    kinds:
        Fault kinds to inject (default: all of
        :data:`~repro.faults.FAULT_KINDS`).
    rates:
        Poisson event rates [Hz] to sweep per kind; each cell also pins
        one deterministic event so every cell exercises its fault even
        at low rate × duration.
    duration_s:
        Record length per cell.
    seed:
        Master seed; per-cell entropy comes from ``SeedSequence``
        children indexed by cell position, so results are reproducible
        and independent of ``jobs``.
    jobs:
        Worker processes for the cell fan-out.
    backend:
        Modulator backend for every cell.
    """
    kinds = tuple(kinds) if kinds is not None else FAULT_KINDS
    for kind in kinds:
        if kind not in KIND_LAYERS:
            raise ConfigurationError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
    if duration_s <= 0:
        raise ConfigurationError("matrix record duration must be positive")
    items = [
        (kind, float(rate), float(duration_s), backend)
        for kind in kinds
        for rate in rates
    ]
    executor = ParallelExecutor(jobs=jobs)
    cells = executor.map(_fault_cell_task, items, seed=seed)
    return FaultMatrixResult(
        cells=tuple(cells),
        duration_s=float(duration_s),
        seed=int(seed),
        backend=backend,
    )
