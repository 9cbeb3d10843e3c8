"""PERF bench: batched multi-session fused-kernel pipeline.

Writes ``BENCH_batch.json`` at the repo root. Two gates:

* ``test_batch_bit_identity`` — for batch sizes {1, 8, 128}, the
  batched session's codes and telemetry counters must equal ``B``
  independent single :class:`~repro.core.session.AcquisitionSession`
  runs sample for sample, across uneven chunk splits. This is the CI
  failure condition: a batched pipeline that is fast but not
  bit-identical is wrong, not fast.
* ``test_batch_throughput`` — one core streams 128 concurrent 1 kS/s
  sessions (128k modulator samples each, one second of device time per
  lane) through the fused chip→ΣΔ→CIC→FIR→decode kernel. The
  acceptance bar is >= 10x the single-session streaming figure
  (``BENCH_chain.json``'s ``pipeline_msps``, 3.92 Msps at seed time).
"""

import json
import time
from pathlib import Path

import numpy as np

from conftest import native_provenance, print_rows

from repro.batch import BatchAcquisitionSession, batch_kernel_available
from repro.core.chain import ReadoutChain
from repro.core.session import AcquisitionSession
from repro.params import NonidealityParams, SystemParams

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch.json"
CHAIN_BENCH_PATH = BENCH_PATH.parent / "BENCH_chain.json"

# The single-session streaming figure the tentpole is measured against;
# read live from BENCH_chain.json when present, else the seed value.
STREAM_BASELINE_MSPS = 3.92

IDENTITY_BATCHES = (1, 8, 128)
PERF_LANES = 128
PERF_CHUNK = 32_000
PERF_CHUNKS = 4  # 128k samples/lane = 1 s of device time per lane
REQUIRED_SPEEDUP = 10.0


def update_bench(section: dict) -> None:
    """Merge keys into BENCH_batch.json, preserving the other test's,
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


def stream_baseline_msps() -> float:
    if CHAIN_BENCH_PATH.exists():
        try:
            report = json.loads(CHAIN_BENCH_PATH.read_text())
            return float(report["streaming"]["pipeline_msps"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            pass
    return STREAM_BASELINE_MSPS


def make_chain(seed: int) -> ReadoutChain:
    params = SystemParams().replace(nonideality=NonidealityParams.ideal())
    return ReadoutChain(params, rng=np.random.default_rng(seed))


def pressure_field(n: int, n_elements: int) -> np.ndarray:
    """A pulse-like field, well inside the membrane operating range."""
    t = np.arange(n) / 128e3
    p = 2500.0 * np.sin(2 * np.pi * 1.2 * t) + 1500.0 * np.sin(
        2 * np.pi * 7.3 * t
    )
    return np.repeat(p[:, None], n_elements, axis=1)


def _single_codes(seed: int, field: np.ndarray, splits: tuple) -> tuple:
    chain = make_chain(seed)
    session = AcquisitionSession(chain, element=1)
    off = 0
    for n in splits:
        session.feed_pressure(field[off : off + n])
        off += n
    session.feed_pressure(field[off:])
    session.finish()
    return session.recording().codes, session.telemetry


def test_batch_bit_identity():
    """Batched == N independent single sessions, for every batch size."""
    n_total = 3_584
    identical = True
    per_batch = {}
    for B in IDENTITY_BATCHES:
        chains = [make_chain(4000 + l) for l in range(B)]
        n_el = chains[0].chip.mux.array.n_elements
        field = pressure_field(n_total, n_el)
        sess = BatchAcquisitionSession(chains, element=1)
        # Deliberately uneven chunk split, different from the singles'.
        for lo, hi in ((0, 1024), (1024, 1025), (1025, n_total)):
            sess.feed_pressure([field[lo:hi]] * B)
        sess.finish()
        ok = True
        for l in range(B):
            codes, telemetry = _single_codes(
                4000 + l, field, (512, 2048)
            )
            lane = sess.telemetries[l]
            lane.reconcile()
            ok = ok and np.array_equal(sess.codes(l), codes)
            for counter in (
                "mod_samples_in",
                "words_delivered",
                "frames_framed",
                "frames_decoded",
                "clipped_samples",
            ):
                ok = ok and getattr(lane, counter) == getattr(
                    telemetry, counter
                )
        per_batch[str(B)] = bool(ok)
        identical = identical and ok
    update_bench(
        {
            "kernel_available": batch_kernel_available(),
            "bit_identical": bool(identical),
            "bit_identical_per_batch": per_batch,
        }
    )
    assert identical, f"batched output diverged: {per_batch}"


def test_batch_throughput():
    """>= 10x the streaming pipeline figure, one core, 128 lanes."""
    B, n_chunk, n_chunks = PERF_LANES, PERF_CHUNK, PERF_CHUNKS
    chains = [make_chain(1000 + l) for l in range(B)]
    n_el = chains[0].chip.mux.array.n_elements
    sess = BatchAcquisitionSession(chains, element=1)
    field = pressure_field(n_chunk * n_chunks, n_el)
    chunks = [
        np.ascontiguousarray(field[i * n_chunk : (i + 1) * n_chunk])
        for i in range(n_chunks)
    ]

    # Warm-up: kernel compile + membrane transfer cache + buffer growth.
    warm = BatchAcquisitionSession([make_chain(1)], element=1)
    warm.feed_pressure([chunks[0][:2048]])

    start = time.perf_counter()
    for chunk in chunks:
        sess.feed_pressure([chunk] * B)
    sess.finish()
    wall = time.perf_counter() - start

    total = B * n_chunk * n_chunks
    msps = total / wall / 1e6
    baseline = stream_baseline_msps()
    aggregate = sess.aggregate_telemetry()
    for lane in sess.telemetries:
        lane.reconcile()

    update_bench(
        {
            "batch_lanes": B,
            "samples_per_lane": n_chunk * n_chunks,
            "chunk_samples": n_chunk,
            "wall_seconds": wall,
            "pipeline_msps": msps,
            "stream_baseline_msps": baseline,
            "speedup_vs_stream": msps / baseline,
            "words_delivered": aggregate.words_delivered,
            "used_kernel": sess.engine.uses_kernel,
        }
    )
    print_rows(
        "batched fused-chain pipeline (1 core)",
        [
            ("lanes x samples", "128 x 128k", f"{B} x {n_chunk * n_chunks}"),
            ("pipeline rate", ">= 39.2 MS/s", f"{msps:.1f} MS/s"),
            (
                "vs streaming figure",
                ">= 10x",
                f"{msps / baseline:.1f}x",
            ),
        ],
    )
    if sess.engine.uses_kernel:
        assert msps >= REQUIRED_SPEEDUP * baseline, (
            f"batched pipeline {msps:.1f} Msps < "
            f"{REQUIRED_SPEEDUP}x baseline {baseline:.2f} Msps"
        )
