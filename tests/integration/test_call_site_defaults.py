"""Every defaulted parameter of the library is passed by some call site.

A parameter with a default that no caller ever passes is a setting
nobody can reach except by editing a call: it only adds a branch or a
name to read. This static check parses every function defined in
``src/repro`` (outside ``experiments/``, whose runner parameters the CLI
forwards through ``**kwargs``) and requires each defaulted parameter,
other than the ``clock`` test seam, to be passed somewhere in ``src/``,
``tests/``, ``benchmarks/``, ``examples/`` or ``perfbench/``: by
keyword, by position or through ``**``.

A second check ratchets the parameters that only ``tests/`` passes:
they must be exactly the ones listed in :data:`TEST_ONLY`, each under
the reason it may stay. A new one fails the check, and so does a listed
one that is gone or that a program caller now passes (drop it from the
list).

Call sites are matched by callee name (``f(...)`` and ``obj.f(...)``;
a class name stands for its ``__init__``). A name defined more than once
in ``src/repro`` is skipped, since a call cannot be told apart by name.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
PROGRAM_DIRS = ("src", "benchmarks", "examples", "perfbench")
CALLER_DIRS = PROGRAM_DIRS + ("tests",)
EXEMPT = {"clock"}

#: Defaulted parameters only tests pass (paths relative to
#: ``src/repro``), grouped by why each may stay settable.
TEST_ONLY = {
    "oracle constructor: the spec of a model (ROADMAP item 12)": {
        "baselines/catheter.py ArterialLineReference(duration_s=)",
        "baselines/catheter.py CatheterReference(damping_ratio=)",
        "baselines/catheter.py CatheterReference(natural_frequency_hz=)",
        "baselines/catheter.py CatheterReference(noise_mmhg=)",
        "baselines/ideal_adc.py IdealADC(bits=)",
        "baselines/ideal_adc.py IdealADC(full_scale=)",
        "baselines/ideal_adc.py IdealADC(noise_sigma=)",
        "baselines/ideal_adc.py convert_to_values(rng=)",
        "baselines/ideal_adc.py ideal_snr_db(amplitude=)",
        "daq/usb.py crc16_ccitt(seed=)",
        "physiology/windkessel.py WindkesselModel(compliance_ml_per_mmhg=)",
        "physiology/windkessel.py WindkesselModel(ejection_fraction_of_beat=)",
        "physiology/windkessel.py WindkesselModel(resistance_mmhg_s_per_ml=)",
        "sdm/chopper.py ChoppedSecondOrderSDM(chop_divider=)",
        "sdm/higher_order.py HigherOrderSDM(gains=)",
        "sdm/linear.py LinearLoopModel(coefficients=)",
        "sdm/linear.py predicted_sqnr_db(amplitude=)",
        "sdm/linear.py sqnr_slope_db_per_octave(osr_high=)",
        "sdm/linear.py sqnr_slope_db_per_octave(osr_low=)",
        "sdm/nonidealities.py FlickerNoiseGenerator(n_sources=)",
        "sdm/nonidealities.py integrator_noise_sigma_v(opamp_excess_factor=)",
        "sdm/nonidealities.py kt_over_c_sigma_v(phases=)",
    },
    "test seam: argv, compiler flags, gateway timers and backoff": {
        "cli.py main(argv=)",
        "gateway/backoff.py ExponentialBackoff(jitter=)",
        "gateway/backoff.py ExponentialBackoff(multiplier=)",
        "gateway/chaos.py run_chaos(fault_rate_hz=)",
        "gateway/chaos.py run_chaos(reconnect_every=)",
        "gateway/chaos.py run_chaos(samples_per_frame=)",
        "gateway/client.py DeviceClient(backoff=)",
        "gateway/client.py DeviceClient(max_retries=)",
        "gateway/client.py chain_payloads(element=)",
        "gateway/server.py GatewayServer(hello_timeout_s=)",
        "gateway/server.py GatewayServer(host=)",
        "gateway/server.py GatewayServer(output_rate_hz=)",
        "gateway/server.py GatewayServer(samples_per_frame=)",
        "gateway/server.py GatewayServer(tick_s=)",
        "gateway/server.py GatewayServer(watchdog_config=)",
        "native.py _build(flags=)",
    },
    "physics parameter a test sweeps or validates": {
        "array/mux.py AnalogMultiplexer(charge_injection_c=)",
        "array/mux.py AnalogMultiplexer(switch_resistance_ohm=)",
        "baselines/cuff.py OscillometricCuff(deflation_rate_mmhg_per_s=)",
        "baselines/cuff.py OscillometricCuff(width_above_map_mmhg=)",
        "baselines/cuff.py OscillometricCuff(width_below_map_mmhg=)",
        "baselines/cuff.py measurement_interval_s(rest_s=)",
        "calibration/artifacts.py ArtifactDetector(slew_factor=)",
        "calibration/drift.py RecalibrationPolicy(min_interval_s=)",
        "calibration/drift.py estimate(window=)",
        "core/autozero.py AutoZeroController(burst_words=)",
        "core/autozero.py AutoZeroController(flush_words=)",
        "core/power.py PowerModel(static_fraction=)",
        "core/power.py report(sampling_rate_hz=)",
        "core/power.py report(supply_v=)",
        "daq/fpga.py FPGAFilterBank(flush_words_on_switch=)",
        "daq/fpga.py FPGAFilterBank(samples_per_frame=)",
        "faults/recovery.py SaturationEpisodeDetector(clear_run=)",
        "faults/recovery.py SaturationEpisodeDetector(min_run=)",
        "faults/recovery.py SaturationEpisodeDetector(rail_level=)",
        "mems/capacitor.py DeflectedPlateCapacitor(fringe_factor=)",
        "mems/capacitor.py DeflectedPlateCapacitor(grid_points=)",
        "mems/capacitor.py DeflectedPlateCapacitor(parasitic_f=)",
        "mems/membrane.py MembraneSensor(interpolant_degree=)",
        "mems/membrane.py MembraneSensor(laminate=)",
        "mems/membrane.py MembraneSensor(operating_range_pa=)",
        "physiology/artifacts.py MotionArtifactGenerator(creep_mmhg_per_min=)",
        "physiology/artifacts.py contaminated_mask(guard_s=)",
        "physiology/heart.py BeatScheduler(rsa_fraction=)",
        "physiology/pulse.py RadialPulseTemplate(grid_points=)",
        "physiology/respiration.py RespirationModel(phase_rad=)",
        "physiology/respiration.py RespirationModel(wander_corner_hz=)",
        "physiology/respiration.py RespirationModel(wander_mmhg=)",
        "sdm/feedback.py FeedbackDAC(reference_error=)",
        "sdm/integrator.py SCIntegrator(swing_limit=)",
        "sdm/modulator.py SecondOrderSDM(coefficients=)",
        "tonometry/coupling.py element_pressures_pa(hold_down_pa=)",
        "tonometry/coupling.py scan_pressure_segments(hold_down_pa=)",
        "tonometry/placement.py perturbed(delta_rotation_rad=)",
        "tonometry/servo.py HoldDownServo(coarse_points=)",
        "tonometry/servo.py HoldDownServo(max_pa=)",
        "tonometry/servo.py HoldDownServo(min_pa=)",
        "tonometry/servo.py HoldDownServo(min_peak_amplitude=)",
        "tonometry/servo.py HoldDownServo(refine_tolerance_pa=)",
    },
    "fault seam: a test injects faults into one record": {
        "core/chain.py record_pressure(faults=)",
        "core/monitor.py record_streaming(faults=)",
    },
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions():
    """(name, path, lineno, positional params, defaulted params) per def.

    ``name`` is the name a caller uses: the class name for ``__init__``.
    Other dunder methods are never called by name and are left out.
    """
    defs = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = _parse(path)
        parents = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            parent = parents.get(node)
            is_method = isinstance(parent, ast.ClassDef)
            if name == "__init__" and is_method:
                name = parent.name
            elif name.startswith("__") and name.endswith("__"):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list
            )
            if is_method and not static and positional:
                positional = positional[1:]  # self / cls
            ordered = args.posonlyargs + args.args
            defaulted = [a.arg for a in ordered[len(ordered) - len(args.defaults):]]
            defaulted += [
                a.arg
                for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
            defs.append((name, path, node.lineno, positional, defaulted))
    return defs


def _call_sites(caller_dirs):
    """callee name -> list of (n positional args, keywords, open-ended)."""
    calls = defaultdict(list)
    for top in caller_dirs:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                else:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                spread = any(k.arg is None for k in node.keywords)
                calls[name].append(
                    (
                        len(node.args),
                        {k.arg for k in node.keywords if k.arg is not None},
                        starred,
                        spread,
                    )
                )
    return calls


def _never_passed(caller_dirs):
    """(path in the package, line, "name(param=)") of every defaulted
    parameter that no call in ``caller_dirs`` passes."""
    defs = _definitions()
    counts = defaultdict(int)
    for name, *_ in defs:
        counts[name] += 1
    calls = _call_sites(caller_dirs)
    missing = []
    for name, path, lineno, positional, defaulted in defs:
        if counts[name] > 1 or "experiments" in path.relative_to(PACKAGE).parts:
            continue
        for param in defaulted:
            if param in EXEMPT:
                continue
            index = positional.index(param) if param in positional else None
            passed = any(
                spread
                or param in keywords
                or (index is not None and (starred or n_pos > index))
                for n_pos, keywords, starred, spread in calls.get(name, ())
            )
            if not passed:
                rel = path.relative_to(PACKAGE).as_posix()
                missing.append((rel, lineno, f"{name}({param}=)"))
    return missing


def test_every_defaulted_parameter_has_a_caller():
    missing = [
        f"src/repro/{rel}:{lineno} {call}"
        for rel, lineno, call in _never_passed(CALLER_DIRS)
    ]
    assert not missing, (
        "parameters with a default that no call site passes (make them "
        "constants, or pass them):\n  " + "\n  ".join(missing)
    )


def test_test_only_parameters_are_the_listed_ones():
    found = {f"{rel} {call}" for rel, _, call in _never_passed(PROGRAM_DIRS)}
    listed = set().union(*TEST_ONLY.values())
    new, stale = sorted(found - listed), sorted(listed - found)
    assert not new and not stale, (
        "defaulted parameters only tests pass, not listed in TEST_ONLY "
        "(make them constants):\n  " + "\n  ".join(new)
        + "\nlisted in TEST_ONLY but deleted or passed by a program "
        "caller (drop them from the list):\n  " + "\n  ".join(stale)
    )
