"""PERF bench: fast backend vs reference loop, batch vs streaming.

Two gates, both writing into ``BENCH_chain.json`` at the repo root so CI
and later sessions can track regressions:

* ``test_perf_chain`` — the full ΣΔ→CIC→FIR chain over one second of
  modulator clocks (128k samples, the paper's real-time unit of work) in
  both backends, bit-identity checked.
* ``test_perf_streaming`` — a 60 s monitoring acquisition through the
  chunked :class:`~repro.core.session.AcquisitionSession` in 0.25 s
  chunks: bit-identical to the batch ``record_pressure`` path, telemetry
  counters reconciling exactly, and tracemalloc peak memory bounded by
  the chunk size instead of the session duration.
"""

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from conftest import native_provenance, print_rows

from repro.core.chain import ReadoutChain
from repro.core.monitor import BloodPressureMonitor
from repro.params import (
    PASCAL_PER_MMHG,
    NonidealityParams,
    SystemParams,
)
from repro.physiology.patient import VirtualPatient
from repro.sdm.fastpath import kernel_available
from repro.tonometry.contact import ContactModel
from repro.tonometry.coupling import TonometricCoupling
from repro.tonometry.placement import ArrayPlacement

N_MOD = 128_000  # 1 s at the paper's 128 kS/s modulator clock
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_chain.json"


def update_bench(section: dict) -> None:
    """Merge keys into BENCH_chain.json, preserving the other tests',
    and stamp which native build ran where."""
    report = {}
    if BENCH_PATH.exists():
        try:
            report = json.loads(BENCH_PATH.read_text())
        except json.JSONDecodeError:
            report = {}
    report.update(section)
    report.update(native_provenance())
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")


def make_chain(backend: str) -> ReadoutChain:
    params = SystemParams().replace(nonideality=NonidealityParams.ideal())
    return ReadoutChain(params, rng=np.random.default_rng(77), backend=backend)


def one_second_input() -> np.ndarray:
    t = np.arange(N_MOD) / 128e3
    return 0.5 * 2.5 * np.sin(2 * np.pi * 15.625 * t)


def timed_acquisition(backend: str, v: np.ndarray):
    chain = make_chain(backend)
    start = time.perf_counter()
    rec = chain.record_voltage(v)
    elapsed = time.perf_counter() - start
    return rec, elapsed


def test_perf_chain(benchmark):
    v = one_second_input()
    # Warm-up compiles the kernel outside the timed region.
    make_chain("fast").record_voltage(v[:1280])

    rec_ref, t_ref = timed_acquisition("reference", v)
    rec_fast, t_fast = benchmark.pedantic(
        timed_acquisition, args=("fast", v), rounds=1, iterations=1
    )
    speedup = t_ref / t_fast

    assert np.array_equal(rec_ref.codes, rec_fast.codes)
    assert rec_ref.lost_frames == rec_fast.lost_frames == 0

    update_bench(
        {
            "n_modulator_samples": N_MOD,
            "kernel_available": kernel_available(),
            "reference_seconds": t_ref,
            "fast_seconds": t_fast,
            "reference_msps": N_MOD / t_ref / 1e6,
            "fast_msps": N_MOD / t_fast / 1e6,
            "speedup": speedup,
            "bit_identical": True,
        }
    )

    print_rows(
        "PERF — 1 s acquisition through the full chain",
        [
            ("reference [s]", "(cycle-accurate loop)", f"{t_ref:.3f}"),
            ("fast [s]", "(compiled kernel)", f"{t_fast:.3f}"),
            (
                "throughput [MS/s]",
                ">= 0.128 for real time",
                f"{N_MOD / t_fast / 1e6:.1f}",
            ),
            ("speedup", ">= 10x (kernel)", f"{speedup:.1f}x"),
            ("bit-identical", "yes", "yes"),
        ],
    )

    # The fast path must beat real time regardless of the kernel; the
    # 10x acceptance floor applies when a C compiler is present.
    assert t_fast < 1.0
    if kernel_available():
        assert speedup >= 10.0


STREAM_DURATION_S = 60.0
STREAM_CHUNK_S = 0.25


def make_monitor(seed: int = 101) -> BloodPressureMonitor:
    """A Fig. 9-style monitor with paper-default (noisy) non-idealities."""
    params = SystemParams()
    rng = np.random.default_rng(seed)
    chain = ReadoutChain(params, rng=rng, backend="fast")
    contact = ContactModel(
        contact=params.contact,
        tissue=params.tissue,
        mean_arterial_pressure_pa=(80 + 40 / 3) * PASCAL_PER_MMHG,
    )
    coupling = TonometricCoupling(
        chain.chip.array.geometry,
        contact,
        placement=ArrayPlacement(lateral_offset_m=0.5e-3),
        rng=rng,
    )
    return BloodPressureMonitor(chain, coupling)


def test_perf_streaming():
    """60 s acquisition, chunked vs batch: identical bits, bounded memory."""
    make_chain("fast").record_voltage(one_second_input()[:1280])  # warm up
    patient = VirtualPatient(rng=np.random.default_rng(55))
    truth = patient.record(
        duration_s=STREAM_DURATION_S + 1.0, sample_rate_hz=2000.0
    )

    # Batch path: materialize the whole 128 kHz field, convert in one go.
    monitor = make_monitor()
    tracemalloc.start()
    t0 = time.perf_counter()
    field = monitor._pressure_field(truth, 0.0, STREAM_DURATION_S)
    rec_batch = monitor.chain.record_pressure(field, element=1)
    t_batch = time.perf_counter() - t0
    peak_batch = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    field_bytes = field.nbytes
    del field

    # Streaming path: same acquisition in 0.25 s chunks, O(chunk) memory.
    monitor = make_monitor()
    tracemalloc.start()
    t0 = time.perf_counter()
    rec_stream, telemetry = monitor.record_streaming(
        truth, 0.0, STREAM_DURATION_S, element=1, chunk_s=STREAM_CHUNK_S
    )
    t_stream = time.perf_counter() - t0
    peak_stream = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    # -- acceptance: bit-identical output ------------------------------
    assert np.array_equal(rec_stream.codes, rec_batch.codes)
    assert rec_stream.lost_samples == rec_batch.lost_samples == 0

    # -- acceptance: telemetry reconciles exactly -----------------------
    telemetry.reconcile(lossless=True)
    r = telemetry.decimation_factor
    assert telemetry.bits_out == telemetry.mod_samples_in
    assert telemetry.mod_samples_in == int(STREAM_DURATION_S * 128_000)
    assert (
        telemetry.mod_samples_in
        == r * (telemetry.words_filtered - 1) + 1 + telemetry.filter_remainder
    )
    assert 0 <= telemetry.filter_remainder < r
    assert telemetry.frames_framed == (
        telemetry.frames_decoded + telemetry.lost_frames
    )
    assert telemetry.words_delivered == (
        telemetry.words_filtered - telemetry.words_suppressed
    )
    assert telemetry.chunks == int(STREAM_DURATION_S / STREAM_CHUNK_S)

    # -- acceptance: peak memory bounded by the chunk, not the duration --
    chunk_bytes = int(STREAM_CHUNK_S * 128_000) * 4 * 8
    assert telemetry.peak_chunk_bytes == chunk_bytes
    # The pipeline's per-chunk working set (capacitances, loop input,
    # noise draws, bitstream) is a small multiple of the chunk itself;
    # 48x leaves headroom while staying far below any O(duration) figure
    # (the batch field alone is ~240x the chunk).
    assert peak_stream < 48 * chunk_bytes
    assert peak_stream < peak_batch / 4

    update_bench(
        {
            "streaming": {
                "duration_s": STREAM_DURATION_S,
                "chunk_s": STREAM_CHUNK_S,
                "chunks": telemetry.chunks,
                "batch_seconds": t_batch,
                "streaming_seconds": t_stream,
                "batch_peak_bytes": peak_batch,
                "streaming_peak_bytes": peak_stream,
                "batch_field_bytes": field_bytes,
                "chunk_bytes": chunk_bytes,
                "pipeline_msps": telemetry.throughput_msps(),
                "stage_seconds": telemetry.stage_seconds,
                "bit_identical": True,
            }
        }
    )

    print_rows(
        "PERF — 60 s monitoring acquisition, batch vs 0.25 s chunks",
        [
            ("batch wall [s]", "(whole-field)", f"{t_batch:.2f}"),
            ("streaming wall [s]", "(chunked)", f"{t_stream:.2f}"),
            ("batch peak [MiB]", "O(duration)", f"{peak_batch / 2**20:.0f}"),
            (
                "streaming peak [MiB]",
                "O(chunk)",
                f"{peak_stream / 2**20:.1f}",
            ),
            (
                "pipeline throughput",
                ">= 0.128 MS/s real time",
                f"{telemetry.throughput_msps():.1f} MS/s",
            ),
            ("bit-identical", "yes", "yes"),
        ],
    )
