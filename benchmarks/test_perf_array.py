"""PERF bench: N x N array scan through the fused batch kernel.

Writes ``BENCH_array.json`` at the repo root. Two gates:

* ``test_array_scan_identity_and_speedup`` — the 64x64 fused scan must
  be bit-identical, element for element, to the sequential reference
  (snapshot-restore single sessions on a noiseless chain), and at least
  10x faster in elements/s. A scan that is fast but not bit-identical
  is wrong, not fast.
* ``test_array_frame_rates`` — host-side wall frame rate at 8x8, 16x16
  and 64x64, with a floor on the 8x8 figure, plus the *device-time*
  :class:`~repro.array.mux.ScanSchedule` timetable (shared converter vs
  one ΣΔ bank per column) for each size.
* ``test_warm_8x8_frame`` — the repeated 8x8 imaging frame on one chain
  after its first scan, split into synthesis, scan and image + localize
  (per-part medians; the frame is their sum), with the path and the
  kernel's ISA named, and an allocation gate: a warm fused scan reuses
  the staging rows the chain holds, so its tracemalloc peak must stay
  below half of those rows.
"""

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from conftest import native_provenance, print_rows

from repro import native
from repro.array.imaging import amplitude_image, localize_artery
from repro.array.scan import ScanController
from repro.batch import batch_kernel_available
from repro.batch.kernel import pad_lanes
from repro.core.chain import ReadoutChain
from repro.params import ArrayParams, NonidealityParams, SystemParams
from repro.tonometry.contact import ContactModel
from repro.tonometry.coupling import TonometricCoupling
from repro.tonometry.placement import ArrayPlacement

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_array.json"

DWELL_WORDS = 24  # 9 settle words + 15 valid, comfortably real
DECIMATION = 128
IDENTITY_SIZE = (64, 64)
FRAME_SIZES = ((8, 8), (16, 16), (64, 64))
REQUIRED_SPEEDUP = 10.0
MIN_8X8_FRAME_RATE_HZ = 5.0
WARM_FRAMES = 41  # the first is the cold bind, then 40 timed frames
SETTLE_WORDS = 9


def update_bench(section: dict) -> None:
    """Merge keys into BENCH_array.json, preserving the other test's,
    and stamp which native build produced them."""
    report = {}
    if BENCH_PATH.exists():
        try:
            report = json.loads(BENCH_PATH.read_text())
        except json.JSONDecodeError:
            report = {}
    report.update(section)
    report.update(native_provenance())
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")


def make_chain(rows: int, cols: int) -> ReadoutChain:
    base = SystemParams()
    params = base.replace(
        array=ArrayParams(rows=rows, cols=cols, membrane=base.array.membrane),
        nonideality=NonidealityParams.ideal(),
    )
    return ReadoutChain(params)


def scan_segments(n_elements: int, dwell: int) -> np.ndarray:
    """Per-element dwell pressures: a test tone with per-element phase.

    The bench measures scan throughput and bit-identity, not
    physiology, so the stimulus is a fast tone that exercises several
    output words per element rather than a cardiac-rate pulse.
    """
    t = np.arange(dwell) / 128e3
    phases = 0.03 * np.arange(n_elements)
    return 2000.0 * np.sin(
        2 * np.pi * 40.0 * t[None, :] + phases[:, None]
    )


def run_fused_scan_timed(rows: int, cols: int, segments: np.ndarray):
    """One full-array scan; returns (records, wall_s, used_fused_path)."""
    chain = make_chain(rows, cols)
    controller = ScanController(chain.chip.mux)
    start = time.perf_counter()
    records = controller.scan_records(chain, segments=segments, fused=True)
    wall = time.perf_counter() - start
    return records, wall, controller.last_scan_fused


def test_array_scan_identity_and_speedup():
    """64x64 fused scan == sequential reference, and >= 10x faster."""
    rows, cols = IDENTITY_SIZE
    n_el = rows * cols
    dwell = DWELL_WORDS * DECIMATION
    segments = scan_segments(n_el, dwell)

    # Warm-up at 2x2 amortizes kernel compile + transfer-fit caches.
    run_fused_scan_timed(2, 2, scan_segments(4, dwell))

    fused, fused_wall, used_fused = run_fused_scan_timed(
        rows, cols, segments
    )

    # Sequential reference: one single-lane session per element, each
    # restored to the pre-scan modulator state (the matched-bank
    # semantics the batched/fused scan implements). The zero field is
    # reused across elements to keep the reference allocation-light.
    chain = make_chain(rows, cols)
    saved = chain.chip.state_snapshot()
    field = np.zeros((dwell, n_el))
    columns = []
    seq_start = time.perf_counter()
    for k in range(n_el):
        chain.chip.restore_state(saved)
        session = chain.session(element=k)
        field[:, k] = segments[k]
        session.feed_pressure(field)
        field[:, k] = 0.0
        columns.append(session.recording().values)
    seq_wall = time.perf_counter() - seq_start
    n = min(c.size for c in columns)
    reference = np.column_stack([c[:n] for c in columns])

    identical = bool(np.array_equal(fused[:n], reference))
    fused_rate = n_el / fused_wall
    seq_rate = n_el / seq_wall
    speedup = fused_rate / seq_rate

    update_bench(
        {
            "kernel_available": batch_kernel_available(),
            "identity_size": f"{rows}x{cols}",
            "dwell_words": DWELL_WORDS,
            "bit_identical_64x64": identical,
            "fused_path_used": used_fused,
            "fused_elements_per_s": fused_rate,
            "sequential_elements_per_s": seq_rate,
            "speedup_vs_sequential": speedup,
        }
    )
    print_rows(
        "64x64 fused scan vs sequential reference (1 core)",
        [
            ("elements x dwell words", "-", f"{n_el} x {DWELL_WORDS}"),
            (
                "bit-identical",
                "required",
                "yes" if identical else "MISMATCH",
            ),
            ("fused rate", "-", f"{fused_rate:.0f} elements/s"),
            ("sequential rate", "-", f"{seq_rate:.0f} elements/s"),
            ("speedup", ">= 10x", f"{speedup:.1f}x"),
        ],
    )
    assert identical, "fused 64x64 scan diverged from sequential reference"
    if used_fused:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"fused scan {speedup:.1f}x sequential, need "
            f">= {REQUIRED_SPEEDUP}x"
        )


def test_array_frame_rates():
    """Wall frame rate over array sizes + the device-time timetable."""
    dwell = DWELL_WORDS * DECIMATION
    # Warm-up (kernel compile, caches).
    run_fused_scan_timed(2, 2, scan_segments(4, dwell))

    sizes = {}
    rows_out = []
    for rows, cols in FRAME_SIZES:
        n_el = rows * cols
        segments = scan_segments(n_el, dwell)
        _, wall, used_fused = run_fused_scan_timed(rows, cols, segments)
        chain = make_chain(rows, cols)
        controller = ScanController(chain.chip.mux)
        shared = controller.schedule(
            chain.fpga.filter, valid_words=DWELL_WORDS - 9
        )
        banked = controller.schedule(
            chain.fpga.filter, valid_words=DWELL_WORDS - 9, banks=cols
        )
        key = f"{rows}x{cols}"
        sizes[key] = {
            "fused_path_used": used_fused,
            "wall_seconds": wall,
            "host_frame_rate_hz": 1.0 / wall,
            "host_elements_per_s": n_el / wall,
            "device_frame_rate_hz": shared.frame_rate_hz,
            "device_frame_rate_banked_hz": banked.frame_rate_hz,
            "device_elements_per_s": shared.elements_per_s,
        }
        rows_out.append(
            (
                f"{key} host frame rate",
                "-",
                f"{1.0 / wall:.1f} Hz ({n_el / wall:.0f} elements/s)",
            )
        )
        rows_out.append(
            (
                f"{key} device frame rate",
                "timetable",
                f"{shared.frame_rate_hz:.3f} Hz shared / "
                f"{banked.frame_rate_hz:.3f} Hz per-column banks",
            )
        )
    update_bench({"sizes": sizes})
    print_rows("array scan frame rates", rows_out)
    if batch_kernel_available():
        assert sizes["8x8"]["host_frame_rate_hz"] >= MIN_8X8_FRAME_RATE_HZ, (
            f"8x8 host frame rate "
            f"{sizes['8x8']['host_frame_rate_hz']:.1f} Hz below the "
            f"{MIN_8X8_FRAME_RATE_HZ} Hz floor"
        )


def test_warm_8x8_frame():
    """The repeated 8x8 frame, warm and split, plus the allocation gate."""
    rows = cols = 8
    n_el = rows * cols
    dwell = DWELL_WORDS * DECIMATION
    chain = make_chain(rows, cols)
    controller = ScanController(chain.chip.mux)
    geometry = chain.chip.array.geometry
    contact = ContactModel(
        contact=chain.params.contact, tissue=chain.params.tissue
    )
    coupling = TonometricCoupling(
        geometry,
        contact,
        placement=ArrayPlacement(lateral_offset_m=40e-6, rotation_rad=0.03),
        contact_heterogeneity=0.0,
    )
    t = np.arange(n_el * dwell) / chain.params.modulator.sampling_rate_hz
    arterial = contact.map_pa + 2500.0 * np.sin(2 * np.pi * 40.0 * t)

    clock = time.perf_counter
    parts = {"synthesis": [], "scan": [], "image_localize": []}
    fused = []
    for _ in range(WARM_FRAMES):
        t0 = clock()
        segments = coupling.scan_pressure_segments(arterial, dwell)
        t1 = clock()
        records = controller.scan_records(
            chain, segments=segments, fused=True
        )
        t2 = clock()
        image = amplitude_image(records[SETTLE_WORDS:], rows, cols, "std")
        localize_artery(image, geometry)
        t3 = clock()
        fused.append(controller.last_scan_fused)
        for name, dt in zip(parts, (t1 - t0, t2 - t1, t3 - t2)):
            parts[name].append(dt * 1e3)
    medians = {name: float(np.median(v[1:])) for name, v in parts.items()}
    frame_ms = sum(medians.values())
    used_fused = all(fused)

    # One more warm scan under tracemalloc: the chain holds the
    # (pad_lanes(B), dwell) staging rows, so the scan allocates only
    # its record matrix and small per-scan arrays.
    staging_bytes = pad_lanes(n_el) * dwell * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        controller.scan_records(chain, segments=segments, fused=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    path = "fused" if used_fused else "bank"
    update_bench(
        {
            "warm_frame_8x8": {
                "path": path,
                "kernel_isa": native.isa(),
                "frames_timed": WARM_FRAMES - 1,
                "synthesis_ms": medians["synthesis"],
                "scan_ms": medians["scan"],
                "image_localize_ms": medians["image_localize"],
                "frame_ms": frame_ms,
                "frame_rate_hz": 1e3 / frame_ms,
                "scan_tracemalloc_peak_bytes": peak,
                "staging_bytes": staging_bytes,
            }
        }
    )
    print_rows(
        f"warm 8x8 frame ({path}, kernel {native.isa()})",
        [
            ("synthesis", "median", f"{medians['synthesis']:.3f} ms"),
            ("scan", "median", f"{medians['scan']:.3f} ms"),
            (
                "image + localize",
                "median",
                f"{medians['image_localize']:.3f} ms",
            ),
            ("frame", "sum", f"{frame_ms:.3f} ms ({1e3 / frame_ms:.0f} Hz)"),
            (
                "warm scan tracemalloc peak",
                f"< {staging_bytes // 2} B",
                f"{peak} B",
            ),
        ],
    )
    assert used_fused is batch_kernel_available()
    if used_fused:
        assert peak < staging_bytes // 2, (
            f"a warm 8x8 scan peaked at {peak} B: it allocates staging "
            f"rows again (the held rows are {staging_bytes} B)"
        )
