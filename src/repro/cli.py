"""Command-line interface: run any paper experiment from the shell.

::

    python -m repro list                  # what can be run
    python -m repro run fig7              # one experiment, table output
    python -m repro run fig7 --backend reference   # Python-loop modulator
    python -m repro run all               # everything (a few minutes)
    python -m repro run --batch 8         # fused batched acquisition demo
    python -m repro run population --jobs 4   # fan out over 4 workers
    python -m repro population --jobs 4   # population + executor telemetry
    python -m repro run osr chopper --jobs 4 --telemetry   # + executor footer
    python -m repro imaging --rows 8 --cols 8   # N x N pressure imaging
    python -m repro faults --jobs 4       # fault matrix, degradation contract
    python -m repro stream                # live chunked acquisition demo
    python -m repro gateway               # serve the acquisition gateway
    python -m repro gateway --chaos 50    # fleet chaos audit (CI smoke)
    python -m repro device --id 3         # one simulated device stream
    python -m repro describe              # print the system configuration

Every experiment prints the same paper-vs-measured rows the benchmark
suite asserts on; the CLI is the no-pytest entry point for quick looks.
``stream`` drives the chunked :class:`~repro.core.session.AcquisitionSession`
pipeline with live per-stage telemetry; ``population`` and
``run ... --telemetry`` are its multi-core counterparts, printing the
:class:`~repro.parallel.ExecutorTelemetry` of the fan-out (``--jobs``
never changes the numbers — see docs/THEORY.md §8).
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
import time
from typing import Callable

from . import experiments
from .params import paper_defaults

#: Experiment registry: CLI name -> (description, runner). A runner
#: whose signature has a ``backend`` keyword is one whose wall-time is
#: dominated by the modulator loop; both backends are bit-identical, so
#: ``--backend`` only trades speed for the pure-Python reference path.
#: One with a ``jobs`` keyword fans out over the ParallelExecutor
#: (``repro run --jobs``).
EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "fig7": (
        "Fig. 7 — sigma-delta ADC tone test (SNR > 72 dB)",
        experiments.run_fig7,
    ),
    "fig9": (
        "Fig. 9 — continuous BP waveform with cuff calibration",
        experiments.run_fig9,
    ),
    "specs": ("Secs. 2-3 — specification table", experiments.run_table_specs),
    "membrane": (
        "Sec. 2.1 — membrane transducer characterization",
        experiments.run_membrane_transfer,
    ),
    "mux": (
        "Sec. 2.2 — mux settling vs converter bandwidth",
        experiments.run_mux_settling,
    ),
    "localization": (
        "Secs. 1-2 — placement tolerance and vessel localization",
        experiments.run_localization,
    ),
    "imaging": (
        "Sec. 2 scaled — N x N pressure imaging (fused scan, artery line)",
        experiments.run_imaging,
    ),
    "baselines": (
        "Sec. 1 — cuff vs tonometer vs catheter",
        experiments.run_baseline_comparison,
    ),
    "feedback": (
        "Sec. 4 — feedback-capacitor resolution knob",
        experiments.run_feedback_ablation,
    ),
    "osr": (
        "Sec. 4 — resolution vs conversion rate (OSR sweep)",
        experiments.run_osr_ablation,
    ),
    "dynamic-range": (
        "Fig. 7 companion — SNR vs input amplitude",
        experiments.run_dynamic_range,
    ),
    "noise-budget": (
        "analog noise budget behind the 72 dB",
        experiments.run_noise_budget,
    ),
    "architectures": (
        "Sec. 4 — higher-order / multi-bit modulator routes",
        experiments.run_architecture_comparison,
    ),
    "robustness": (
        "Sec. 4 — artifacts, thermal drift, hold-down servo",
        experiments.run_robustness,
    ),
    "robustness-sweep": (
        "Sec. 4 — field stressors over many seeded trials",
        experiments.run_robustness_sweep,
    ),
    "design-space": (
        "(order x OSR) ENOB grid and Pareto front",
        experiments.run_design_space,
    ),
    "pressure-linearity": (
        "transducer linearity vs converter noise",
        experiments.run_pressure_linearity,
    ),
    "population": (
        "Fig. 9 protocol over a virtual population (AAMI stats)",
        experiments.run_population,
    ),
    "chopper": (
        "chopper stabilization vs flicker noise (ABL-CHOP)",
        experiments.run_chopper_ablation,
    ),
    "faults": (
        "Sec. 4 reliability — fault-injection matrix, degradation contract",
        experiments.run_fault_matrix,
    ),
}


def _accepts(runner: Callable, keyword: str) -> bool:
    """Whether ``runner`` takes ``keyword`` (``backend`` or ``jobs``)."""
    return keyword in inspect.signature(runner).parameters


def _print_rows(title: str, rows: list[tuple[str, str, str]]) -> None:
    width_q = max(len(r[0]) for r in rows)
    width_p = max(len(r[1]) for r in rows)
    print()
    print(title)
    print("-" * min(width_q + width_p + 20, 100))
    for quantity, paper, measured in rows:
        print(f"  {quantity:<{width_q}}  {paper:<{width_p}}  {measured}")


def cmd_list() -> int:
    print("available experiments:")
    for name, (description, runner) in EXPERIMENTS.items():
        flags = "".join(
            f" [--{kw}]" for kw in ("backend", "jobs") if _accepts(runner, kw)
        )
        print(f"  {name:<17} {description}{flags}")
    print("  all               run everything")
    return 0


def _print_telemetry(result) -> None:
    """Print executor telemetry when the result carries a reconciled one."""
    telemetry = getattr(result, "telemetry", None)
    if telemetry is None:
        return
    telemetry.reconcile()
    print(telemetry.describe())
    print(
        f"{telemetry.tasks_completed} task(s) on {telemetry.workers_used} "
        f"worker(s); telemetry reconciles"
    )


def cmd_run(
    names: list[str],
    backend: str = "fast",
    jobs: int = 1,
    show_telemetry: bool = False,
) -> int:
    if "all" in names:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use `python -m repro list`", file=sys.stderr)
        return 2
    for name in names:
        description, runner = EXPERIMENTS[name]
        kwargs = {}
        for kw, value, default in (("backend", backend, "fast"),
                                   ("jobs", jobs, 1)):
            if _accepts(runner, kw):
                kwargs[kw] = value
            elif value != default:
                print(f"note: {name} ignores --{kw}", file=sys.stderr)
        print(f"running {name}: {description} ...", flush=True)
        start = time.perf_counter()
        result = runner(**kwargs)
        elapsed = time.perf_counter() - start
        _print_rows(f"{name} ({elapsed:.1f} s)", result.rows())
        if show_telemetry:
            _print_telemetry(result)
        print()
    return 0


#: Record length and chunk length of each ``run --batch`` lane [s].
_BATCH_DURATION_S = 1.0
_BATCH_CHUNK_S = 0.25


def cmd_batch(lanes: int) -> int:
    """Batched lockstep acquisition: many concurrent sessions, one pass.

    Streams ``lanes`` concurrent 1 kS/s sessions through the fused
    batch kernel (:mod:`repro.batch`), spot-checks lane 0 bit-for-bit
    against an independent single :class:`~repro.core.session.\
    AcquisitionSession`, reconciles every lane's telemetry and prints
    the aggregate pipeline rate.
    """
    import numpy as np

    from . import native
    from .batch import BatchAcquisitionSession, batch_kernel_available
    from .core.chain import ReadoutChain
    from .core.session import AcquisitionSession
    from .params import NonidealityParams, SystemParams

    if lanes < 1:
        print("--batch needs >= 1 lane", file=sys.stderr)
        return 2
    params = SystemParams().replace(nonideality=NonidealityParams.ideal())
    chains = [
        ReadoutChain(params, rng=np.random.default_rng(lane))
        for lane in range(lanes)
    ]
    fs = params.modulator.sampling_rate_hz
    n = int(_BATCH_DURATION_S * fs)
    step = max(1, int(_BATCH_CHUNK_S * fs))
    n_el = chains[0].chip.mux.array.n_elements
    t = np.arange(n) / fs
    pulse = 2500.0 * np.sin(2 * np.pi * 1.2 * t) + 1500.0 * np.sin(
        2 * np.pi * 7.3 * t
    )
    field = np.repeat(pulse[:, None], n_el, axis=1)

    print(
        f"batch: {lanes} lane(s), {_BATCH_DURATION_S:.2f} s each, "
        f"chunk {_BATCH_CHUNK_S:.2f} s ...",
        flush=True,
    )
    session = BatchAcquisitionSession(chains, element=1)
    start = time.perf_counter()
    for lo in range(0, n, step):
        session.feed_pressure([field[lo : lo + step]] * lanes)
    session.finish()
    wall = time.perf_counter() - start

    for tm in session.telemetries:
        tm.reconcile()
    reference = AcquisitionSession(
        ReadoutChain(params, rng=np.random.default_rng(0)), element=1
    )
    reference.feed_pressure(field)
    reference.finish()
    identical = bool(
        np.array_equal(session.codes(0), reference.recording().codes)
    )
    aggregate = session.aggregate_telemetry()
    msps = lanes * n / wall / 1e6 if wall > 0 else 0.0
    _print_rows(
        f"batched acquisition ({wall:.2f} s)",
        [
            ("lanes x samples", "-", f"{lanes} x {n}"),
            ("fused kernel", "compiled", "yes" if batch_kernel_available() else "no (fallback)"),
            ("native library build", "cached|compiled", native.build_status()),
            ("batch kernel ISA", "x86-64-v4|v3|baseline", native.isa()),
            (
                "staging threads",
                "1 (noiseless lanes)",
                f"{session.engine.staging_threads}",
            ),
            ("pipeline rate", "-", f"{msps:.1f} MS/s"),
            (
                "words delivered",
                "-",
                f"{aggregate.words_delivered}",
            ),
            (
                "lane 0 vs single session",
                "bit-identical",
                "bit-identical" if identical else "MISMATCH",
            ),
            ("per-lane telemetry", "reconciles", "reconciles"),
        ],
    )
    return 0 if identical else 1


def cmd_population(
    subjects: int = 10,
    duration_s: float = 10.0,
    jobs: int = 1,
    backend: str = "fast",
) -> int:
    """Population run with the executor telemetry footer.

    The multi-core counterpart of ``repro stream``: runs the Fig. 9
    protocol over N virtual subjects through the
    :class:`~repro.parallel.ParallelExecutor` and prints the executor's
    per-worker telemetry the way ``stream`` prints the pipeline's.
    """
    print(
        f"population: {subjects} subject(s), {duration_s:.0f} s each, "
        f"jobs={jobs} ...",
        flush=True,
    )
    start = time.perf_counter()
    result = experiments.run_population(
        n_subjects=subjects,
        duration_s=duration_s,
        backend=backend,
        jobs=jobs,
    )
    elapsed = time.perf_counter() - start
    _print_rows(f"population ({elapsed:.1f} s)", result.rows())
    _print_telemetry(result)
    return 0


def cmd_faults(
    kinds: list[str] | None = None,
    rate: float = 1.0,
    duration_s: float = 4.0,
    seed: int = 20040506,
    jobs: int = 1,
    backend: str = "fast",
) -> int:
    """Fault-injection matrix with the full per-cell table.

    Sweeps fault kind × rate through
    :func:`~repro.experiments.run_fault_matrix` and prints one row per
    cell: events injected/detected, corrupted vs silently corrupted
    samples, loss accounting, autozero re-triggers and survival. Exits
    nonzero if the degradation contract is violated — any silent
    corruption, an undetected event, or a record that did not survive.
    """
    print(
        f"fault matrix: kinds={'all' if not kinds else ','.join(kinds)}, "
        f"rate={rate:g} Hz, {duration_s:g} s records, jobs={jobs} ...",
        flush=True,
    )
    start = time.perf_counter()
    try:
        result = experiments.run_fault_matrix(
            kinds=kinds or None,
            rates=(rate,),
            duration_s=duration_s,
            seed=seed,
            jobs=jobs,
            backend=backend,
        )
    except Exception as exc:  # unknown kind etc.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    rows = result.matrix_rows()
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    print()
    print(f"fault matrix ({elapsed:.1f} s)")
    print("-" * (sum(widths) + 2 * len(widths)))
    for row in rows:
        print("  ".join(f"{cell:<{w}}" for cell, w in zip(row, widths)))
    print()
    print(result.describe())
    return 0 if result.contract_holds else 1


def cmd_imaging(
    rows: int = 8,
    cols: int = 8,
    offset_um: float = 200.0,
    rotation_mrad: float = 60.0,
    drift_um: float = 300.0,
) -> int:
    """N x N pressure-imaging workload with the scan-schedule footer.

    Runs :func:`~repro.experiments.run_imaging` at the requested array
    size, prints the paper-vs-measured rows, the amplitude image and the
    large-array scan timetable (shared converter vs one ΣΔ bank per
    column) that docs/THEORY.md §13 derives.
    """
    from .errors import ReproError

    print(
        f"imaging: {rows}x{cols} array, offset {offset_um:.0f} um, "
        f"rotation {rotation_mrad:.0f} mrad, drift {drift_um:.0f} um ...",
        flush=True,
    )
    start = time.perf_counter()
    try:
        result = experiments.run_imaging(
            rows=rows,
            cols=cols,
            lateral_offset_m=offset_um * 1e-6,
            rotation_rad=rotation_mrad * 1e-3,
            drift_m=drift_um * 1e-6,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    _print_rows(f"imaging ({elapsed:.1f} s)", result.rows())
    print()
    print("amplitude image (modulator FS, std over one pulse period):")
    for r in range(rows):
        print(
            "  " + "  ".join(f"{v:.4f}" for v in result.amplitude_map[r])
        )
    return 0


def cmd_stream(
    duration_s: float = 10.0,
    chunk_s: float = 0.25,
    element: int | None = None,
    backend: str = "fast",
) -> int:
    """Live chunked acquisition: the streaming pipeline, narrated.

    Runs the Fig. 9 physical setup through
    :meth:`~repro.core.monitor.BloodPressureMonitor.record_streaming`,
    printing per-chunk progress and the final per-stage telemetry.
    Ctrl-C mid-run flushes the partial acquisition and prints its
    telemetry (exit 0); a broken pipe (``repro stream | head``) exits 0
    without a traceback.
    """
    try:
        return _cmd_stream(
            duration_s=duration_s,
            chunk_s=chunk_s,
            element=element,
            backend=backend,
        )
    except BrokenPipeError:
        # Downstream closed the pipe; there is nowhere left to print.
        # Point stdout at devnull so interpreter shutdown does not try
        # to flush the dead pipe and print a spurious traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _cmd_stream(
    duration_s: float,
    chunk_s: float,
    element: int | None,
    backend: str,
) -> int:
    import numpy as np

    from .baselines.cuff import OscillometricCuff
    from .core.chain import ReadoutChain
    from .core.monitor import BloodPressureMonitor
    from .errors import ConfigurationError
    from .params import PASCAL_PER_MMHG, PatientParams
    from .physiology.patient import VirtualPatient
    from .tonometry.contact import ContactModel
    from .tonometry.coupling import TonometricCoupling
    from .tonometry.placement import ArrayPlacement

    params = paper_defaults()
    patient_params = PatientParams()
    rng = np.random.default_rng(99)
    chain = ReadoutChain(params, rng=rng, backend=backend)
    patient = VirtualPatient(patient_params, rng=rng)
    map_mmhg = (
        patient_params.diastolic_mmhg + patient_params.pulse_pressure_mmhg / 3.0
    )
    contact = ContactModel(
        contact=params.contact,
        tissue=params.tissue,
        mean_arterial_pressure_pa=map_mmhg * PASCAL_PER_MMHG,
    )
    coupling = TonometricCoupling(
        chain.chip.array.geometry,
        contact,
        placement=ArrayPlacement(lateral_offset_m=0.5e-3),
        rng=rng,
    )
    monitor = BloodPressureMonitor(chain, coupling, cuff=OscillometricCuff())

    scan_dwell_s = 0.5
    scan_total = scan_dwell_s * chain.chip.array.n_elements
    truth = patient.record(
        duration_s=scan_total + duration_s,
        sample_rate_hz=monitor.PHYSIOLOGY_RATE_HZ,
    )
    if element is None:
        selection = monitor.scan(truth, dwell_s=scan_dwell_s)
        element = selection.best_index
        print(
            f"scan: element ({selection.best_row}, {selection.best_col}) "
            f"selected, contrast {selection.contrast:.2f}"
        )
    else:
        print(f"scan: skipped, element {element} forced")

    last_session = None

    def on_chunk(session, delivered) -> None:
        nonlocal last_session
        last_session = session
        t = session.telemetry
        print(
            f"\r  chunk {t.chunks:>4d}: {t.words_delivered:>7d} words, "
            f"{t.lost_frames} lost, {t.crc_errors} CRC err, "
            f"{t.throughput_msps():5.1f} MS/s",
            end="",
            flush=True,
        )

    try:
        recording, telemetry = monitor.record_streaming(
            truth,
            scan_total,
            scan_total + duration_s,
            element=element,
            chunk_s=chunk_s,
            on_chunk=on_chunk,
        )
    except KeyboardInterrupt:
        # Flush what was acquired and report it — an interrupted watch
        # session still ends with honest books.
        print(flush=True)
        if last_session is None:
            print("interrupted before the first chunk")
            return 0
        last_session.finish()
        telemetry = last_session.telemetry
        print(telemetry.describe())
        try:
            telemetry.reconcile()
            print(
                f"interrupted: {telemetry.words_delivered} words flushed "
                f"from element {element}; telemetry reconciles"
            )
        except ConfigurationError:
            # The interrupt landed mid-stage; the counters are a torn
            # snapshot. Still honest output, just flagged as partial.
            print(
                f"interrupted mid-chunk: {telemetry.words_delivered} "
                f"words flushed from element {element}"
            )
        return 0
    print(flush=True)
    telemetry.reconcile()
    print(telemetry.describe())
    print(
        f"recorded {recording.values.size} words at "
        f"{recording.sample_rate_hz:.0f} S/s from element {element} "
        f"({recording.lost_samples} lost samples); telemetry reconciles"
    )
    return 0


def cmd_gateway(
    port: int = 9750,
    metrics_port: int | None = None,
    queue_chunks: int = 64,
    chaos: int | None = None,
    frames: int = 120,
    faulty_fraction: float = 0.5,
    seed: int = 0,
    json_path: str | None = None,
    flush_bytes: int = 64 * 1024,
    max_latency_ms: float = 2.0,
    telemetry: bool = False,
) -> int:
    """Serve the acquisition gateway — or audit it at fleet scale.

    Without ``--chaos``, binds the gateway and runs until SIGINT/SIGTERM,
    then prints the fleet metrics JSON; ``--telemetry`` additionally
    streams a one-line batch-plane summary (tick rate, occupancy,
    deadline-flush fraction) to stderr while serving. With ``--chaos N``,
    spins up N in-process simulated devices (half with independent
    seeded link faults and forced reconnects), audits every connection
    for silent corruption / unbounded memory / leaked tasks, prints the
    report and exits nonzero on any violation — the CI smoke gate.
    """
    import asyncio
    import json
    import signal

    from .gateway import GatewayServer, run_chaos

    if chaos is not None:
        if chaos < 1:
            print("need >= 1 chaos device", file=sys.stderr)
            return 2
        report = asyncio.run(
            run_chaos(
                n_devices=chaos,
                frames_per_device=frames,
                faulty_fraction=faulty_fraction,
                seed=seed,
                queue_chunks=queue_chunks,
            )
        )
        payload = json.dumps(report.as_dict(), indent=2)
        print(payload)
        if json_path:
            with open(json_path, "w") as fh:
                fh.write(payload + "\n")
        return 0 if report.ok else 1

    async def serve() -> dict:
        server = GatewayServer(
            port=port,
            metrics_port=metrics_port,
            queue_chunks=queue_chunks,
            flush_bytes=flush_bytes,
            max_latency_s=max_latency_ms / 1e3,
        )
        host, bound = await server.start()
        note = f"gateway listening on {host}:{bound}"
        if server.metrics_port is not None:
            note += f" (metrics on :{server.metrics_port})"
        print(note, flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)

        async def report_telemetry() -> None:
            while True:
                await asyncio.sleep(2.0)
                if server.plane is None:
                    continue
                m = server.plane.metrics()
                print(
                    f"batch-plane: lanes {m['lanes']}  "
                    f"ticks {m['ticks']} ({m['tick_rate_hz']:.1f}/s)  "
                    f"occupancy {m['occupancy_mean']:.1f} mean / "
                    f"{m['occupancy_max']} max  "
                    f"deadline-flush {m['deadline_flush_fraction']:.0%}  "
                    f"close-flush {m['close_flush_fraction']:.0%}  "
                    f"frames {m['frames_decoded']}  crc {m['crc_path']}",
                    file=sys.stderr,
                    flush=True,
                )

        reporter = (
            asyncio.create_task(report_telemetry()) if telemetry else None
        )
        await stop.wait()
        if reporter is not None:
            reporter.cancel()
        await server.stop()
        server.reconcile()
        return server.metrics()

    print(json.dumps(asyncio.run(serve()), indent=2))
    return 0


def cmd_device(
    host: str = "127.0.0.1",
    port: int = 9750,
    device_id: int = 0,
    frames: int = 200,
    samples_per_frame: int = 64,
    fault_kinds: list[str] | None = None,
    fault_rate: float = 0.0,
    seed: int = 0,
    drop_every: int | None = None,
    pace_s: float = 0.0,
) -> int:
    """Run one simulated device against a gateway; print its report."""
    import asyncio

    from .errors import GatewayError, ReproError
    from .gateway import DeviceClient, synthetic_payloads

    faults = None
    if fault_kinds:
        from .faults import FaultInjector, FaultSpec

        try:
            specs = [
                FaultSpec(
                    kind=kind,
                    rate_hz=fault_rate or 1.0,
                    magnitude=0.5 if kind == "frame_truncation" else 1.0,
                )
                for kind in fault_kinds
            ]
            faults = FaultInjector(
                specs, seed=seed, horizon_s=max(frames / 50.0, 1.0)
            )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    client = DeviceClient(
        host,
        port,
        device_id=device_id,
        payloads=synthetic_payloads(frames, samples_per_frame),
        faults=faults,
        drop_every=drop_every,
        pace_s=pace_s,
    )
    try:
        report = asyncio.run(client.run())
    except GatewayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"device {report.device_id}: {report.frames_sent} frames "
        f"({report.bytes_sent} B) in {report.payloads} payloads, "
        f"{report.faults_injected} fault(s) injected, "
        f"{report.reconnects} reconnect(s) "
        f"({report.frames_replayed} frames replayed), "
        f"{report.heartbeats_sent} heartbeat(s), "
        f"{report.acks_received} ack(s), bye={report.bye_sent}"
    )
    return 0


def cmd_describe() -> int:
    from .core.chain import ReadoutChain
    from .core.power import PowerModel

    params = paper_defaults()
    chain = ReadoutChain(params)
    print(chain.chip.describe())
    print(f"  power           : {PowerModel(params.chip).report().describe()}")
    print(
        f"  decimation      : sinc^{chain.fpga.filter.cic.order}"
        f"(R={params.decimation.cic_decimation}) + "
        f"{params.decimation.fir_taps}-tap FIR"
        f"(R={params.decimation.fir_decimation}), "
        f"{params.decimation.output_bits} bit out"
    )
    return 0


def _argument_type(convert: Callable, accept: Callable, expected: str):
    """argparse type: ``convert(text)``, refused unless ``accept`` holds."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}"
            )
        return value

    return parse


_positive_int = _argument_type(int, lambda v: v >= 1, "an integer >= 1")
_positive_float = _argument_type(
    float, lambda v: 0 < v < math.inf, "a positive finite number"
)
_nonnegative_float = _argument_type(
    float, lambda v: 0 <= v < math.inf, "a finite number >= 0"
)
_finite_float = _argument_type(float, math.isfinite, "a finite number")
_fraction = _argument_type(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
_device_id = _argument_type(
    int, lambda v: 0 <= v <= 0xFFFFFFFF, "an integer in [0, 2**32)"
)
_subject_count = _argument_type(int, lambda v: v >= 3, "an integer >= 3")
_n_elements = paper_defaults().array.n_elements
_element_index = _argument_type(
    int, lambda v: 0 <= v < _n_elements, f"an integer in [0, {_n_elements})"
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Kirstein et al., 'A CMOS-Based Tactile Sensor "
            "for Continuous Blood Pressure Monitoring' (DATE 2004)"
        ),
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "names", nargs="*", default=[],
        help="experiment names, or 'all' (optional with --batch)",
    )
    run_parser.add_argument(
        "--backend",
        choices=["fast", "reference"],
        default="fast",
        help="modulator backend for experiments that support it "
        "(bit-identical; 'reference' is the slow pure-Python loop)",
    )
    run_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for experiments that fan out over the "
        "parallel executor (bit-identical for any value)",
    )
    run_parser.add_argument(
        "--telemetry",
        action="store_true",
        help="print the executor telemetry footer after each experiment",
    )
    run_parser.add_argument(
        "--batch",
        type=int,
        default=0,
        metavar="LANES",
        help="run LANES concurrent acquisition sessions through the "
        "fused batch kernel and spot-check bit-identity against a "
        "single session (ignores experiment names)",
    )
    stream_parser = sub.add_parser(
        "stream", help="live chunked acquisition with per-stage telemetry"
    )
    stream_parser.add_argument(
        "--duration", type=_positive_float, default=10.0,
        help="record length [s]",
    )
    stream_parser.add_argument(
        "--chunk", type=_positive_float, default=0.25,
        help="chunk duration [s]",
    )
    stream_parser.add_argument(
        "--element", type=_element_index, default=None,
        help="element index (default: scan and auto-select)",
    )
    stream_parser.add_argument(
        "--backend", choices=["fast", "reference"], default="fast",
        help="modulator backend",
    )
    population_parser = sub.add_parser(
        "population",
        help="population run over the parallel executor, with telemetry",
    )
    population_parser.add_argument(
        "--subjects", type=_subject_count, default=10,
        help="virtual subject count",
    )
    population_parser.add_argument(
        "--duration", type=_positive_float, default=10.0,
        help="record length per subject [s]",
    )
    population_parser.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes"
    )
    population_parser.add_argument(
        "--backend", choices=["fast", "reference"], default="fast",
        help="modulator backend",
    )
    imaging_parser = sub.add_parser(
        "imaging",
        help="N x N pressure-imaging workload (fused scan, artery line, "
        "fusion, drift registration)",
    )
    imaging_parser.add_argument(
        "--rows", type=int, default=8, help="array rows"
    )
    imaging_parser.add_argument(
        "--cols", type=int, default=8, help="array cols"
    )
    imaging_parser.add_argument(
        "--offset-um", type=_finite_float, default=200.0,
        help="artery lateral offset [um]",
    )
    imaging_parser.add_argument(
        "--rotation-mrad", type=_finite_float, default=60.0,
        help="array rotation vs artery axis [mrad]",
    )
    imaging_parser.add_argument(
        "--drift-um", type=_finite_float, default=300.0,
        help="inter-frame placement drift to register [um]",
    )
    faults_parser = sub.add_parser(
        "faults",
        help="fault-injection matrix: inject faults at every pipeline "
        "layer and verify detection/recovery (nonzero exit on silent "
        "corruption)",
    )
    faults_parser.add_argument(
        "kinds", nargs="*",
        help="fault kinds to inject (default: all)",
    )
    faults_parser.add_argument(
        "--rate", type=_nonnegative_float, default=1.0,
        help="Poisson event rate per kind [Hz]",
    )
    faults_parser.add_argument(
        "--duration", type=_positive_float, default=4.0,
        help="record length per matrix cell [s]",
    )
    faults_parser.add_argument(
        "--seed", type=int, default=20040506,
        help="master seed for the fault schedules",
    )
    faults_parser.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes"
    )
    faults_parser.add_argument(
        "--backend", choices=["fast", "reference"], default="fast",
        help="modulator backend",
    )
    gateway_parser = sub.add_parser(
        "gateway",
        help="serve the acquisition gateway (or --chaos N for the "
        "fleet chaos audit)",
    )
    gateway_parser.add_argument(
        "--port", type=int, default=9750, help="data port (0 = ephemeral)"
    )
    gateway_parser.add_argument(
        "--metrics-port", type=int, default=None,
        help="also serve the metrics JSON on this port",
    )
    gateway_parser.add_argument(
        "--queue-chunks", type=_positive_int, default=64,
        help="per-connection ingest queue bound [chunks]",
    )
    gateway_parser.add_argument(
        "--chaos", type=int, default=None, metavar="N",
        help="run the in-process chaos audit with N devices and exit",
    )
    gateway_parser.add_argument(
        "--frames", type=_positive_int, default=120,
        help="frames per chaos device",
    )
    gateway_parser.add_argument(
        "--faulty-fraction", type=_fraction, default=0.5,
        help="fraction of chaos devices carrying link faults",
    )
    gateway_parser.add_argument(
        "--seed", type=int, default=0, help="chaos fault-schedule seed"
    )
    gateway_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the chaos report JSON here",
    )
    gateway_parser.add_argument(
        "--flush-bytes", type=int, default=64 * 1024,
        help="batch-plane occupancy target [bytes] before a tick fires",
    )
    gateway_parser.add_argument(
        "--max-latency-ms", type=_positive_float, default=2.0,
        help="batch-plane deadline: max decode delay under light load",
    )
    gateway_parser.add_argument(
        "--telemetry", action="store_true",
        help="stream a batch-plane telemetry line to stderr while serving",
    )
    device_parser = sub.add_parser(
        "device", help="run one simulated device against a gateway"
    )
    device_parser.add_argument(
        "--host", default="127.0.0.1", help="gateway host"
    )
    device_parser.add_argument(
        "--port", type=int, default=9750, help="gateway data port"
    )
    device_parser.add_argument(
        "--id", type=_device_id, default=0, dest="device_id",
        help="device id",
    )
    device_parser.add_argument(
        "--frames", type=int, default=200, help="frames to stream"
    )
    device_parser.add_argument(
        "--samples-per-frame", type=int, default=64,
        help="samples per frame",
    )
    device_parser.add_argument(
        "--fault", action="append", default=None, dest="fault_kinds",
        metavar="KIND",
        help="inject a usb-layer fault process (repeatable): "
        "frame_drop, frame_truncation, frame_bitflip, frame_reorder",
    )
    device_parser.add_argument(
        "--fault-rate", type=_nonnegative_float, default=1.0,
        help="Poisson rate per fault process [Hz]",
    )
    device_parser.add_argument(
        "--seed", type=int, default=0, help="fault-schedule seed"
    )
    device_parser.add_argument(
        "--drop-every", type=_positive_int, default=None, metavar="N",
        help="hard-drop and resume the connection every N payloads",
    )
    device_parser.add_argument(
        "--pace", type=_nonnegative_float, default=0.0,
        help="sleep between payloads [s]",
    )
    sub.add_parser("describe", help="print the paper-default configuration")

    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        if args.batch:
            return cmd_batch(args.batch)
        if not args.names:
            run_parser.error("names are required unless --batch is given")
        return cmd_run(
            args.names,
            backend=args.backend,
            jobs=args.jobs,
            show_telemetry=args.telemetry,
        )
    if args.command == "population":
        return cmd_population(
            subjects=args.subjects,
            duration_s=args.duration,
            jobs=args.jobs,
            backend=args.backend,
        )
    if args.command == "imaging":
        return cmd_imaging(
            rows=args.rows,
            cols=args.cols,
            offset_um=args.offset_um,
            rotation_mrad=args.rotation_mrad,
            drift_um=args.drift_um,
        )
    if args.command == "faults":
        return cmd_faults(
            kinds=args.kinds,
            rate=args.rate,
            duration_s=args.duration,
            seed=args.seed,
            jobs=args.jobs,
            backend=args.backend,
        )
    if args.command == "stream":
        return cmd_stream(
            duration_s=args.duration,
            chunk_s=args.chunk,
            element=args.element,
            backend=args.backend,
        )
    if args.command == "gateway":
        return cmd_gateway(
            port=args.port,
            metrics_port=args.metrics_port,
            queue_chunks=args.queue_chunks,
            chaos=args.chaos,
            frames=args.frames,
            faulty_fraction=args.faulty_fraction,
            seed=args.seed,
            json_path=args.json,
            flush_bytes=args.flush_bytes,
            max_latency_ms=args.max_latency_ms,
            telemetry=args.telemetry,
        )
    if args.command == "device":
        return cmd_device(
            host=args.host,
            port=args.port,
            device_id=args.device_id,
            frames=args.frames,
            samples_per_frame=args.samples_per_frame,
            fault_kinds=args.fault_kinds,
            fault_rate=args.fault_rate,
            seed=args.seed,
            drop_every=args.drop_every,
            pace_s=args.pace,
        )
    if args.command == "describe":
        return cmd_describe()
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
