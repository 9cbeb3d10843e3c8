"""The native library's machine-level contract: one verified cache entry per
key, no leftovers, loud failure, and ISA variants that agree bit for bit.

The cache tests run fresh interpreters with their own ``XDG_CACHE_HOME``
and ``TMPDIR``, because a process loads the library once and keeps it.
"""

import hashlib
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import native
from repro.batch.kernel import (
    ChainKernel,
    FrontendKernel,
    run_batch_chunk,
    run_bits,
    run_frontend_chunk,
)
from repro.core.chain import ReadoutChain
from repro.mems.membrane import MembraneSensor
from repro.params import NonidealityParams
from repro.sdm import SecondOrderSDM, kernel_available

SRC = str(Path(repro.__file__).resolve().parents[1])

# Prints: sdm kernel?, batch kernel?, build status, compiler runs,
# fast == reference bitstream.
FAST_CHUNK = """
import subprocess

compiles = []
_run = subprocess.run
subprocess.run = lambda *a, **k: compiles.append(a) or _run(*a, **k)

import numpy as np
from repro import native
from repro.batch import batch_kernel_available
from repro.params import NonidealityParams
from repro.sdm import SecondOrderSDM, kernel_available

print(kernel_available(), batch_kernel_available(), native.build_status())
print(len(compiles))
u = 0.5 * np.sin(2 * np.pi * 0.013 * np.arange(2000))
bits = [
    SecondOrderSDM(
        nonideality=NonidealityParams(),
        rng=np.random.default_rng(3),
        backend=backend,
    ).simulate(u).bitstream
    for backend in ("fast", "reference")
]
print(np.array_equal(*bits))
"""

needs_cc = pytest.mark.skipif(not kernel_available(), reason="no C compiler")


def _env(root, **overrides):
    env = {
        **os.environ,
        "PYTHONPATH": SRC,
        "TMPDIR": str(root / "tmp"),
        "XDG_CACHE_HOME": str(root / "xdg"),
    }
    env.update(overrides)
    env.pop("REPRO_CC", None)
    (root / "tmp").mkdir(exist_ok=True)
    return env


def spawn(root, **overrides):
    return subprocess.Popen(
        [sys.executable, "-W", "always", "-c", FAST_CHUNK],
        env=_env(root, **overrides),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def run_fast_chunk(root, **overrides):
    proc = spawn(root, **overrides)
    out, err = proc.communicate(timeout=180)
    assert proc.returncode == 0, err
    return out.split(), err


def cache_dir(root) -> Path:
    return root / "xdg" / "repro-native"


def entries(root) -> list[Path]:
    return sorted(cache_dir(root).glob("native-*.so"))


def listing(root) -> list[str]:
    """Everything in the cache directory, by name."""
    return sorted(p.name for p in cache_dir(root).iterdir())


def assert_valid_entry(path: Path) -> None:
    """Digest trailer intact and the file's own name key embedded."""
    data = path.read_bytes()
    assert hashlib.sha256(data[:-32]).digest() == data[-32:]
    assert path.name[len("native-"):-len(".so")].encode() in data


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """One cold build into an empty cache: (root, stdout words, stderr)."""
    root = tmp_path_factory.mktemp("warm")
    words, err = run_fast_chunk(root)
    return root, words, err


def copy_of(warm, tmp_path) -> Path:
    shutil.copytree(warm[0] / "xdg", tmp_path / "xdg")
    return tmp_path


@needs_cc
def test_build_leaves_no_directory_behind(warm):
    root, words, err = warm
    assert words[:3] == ["True", "True", "compiled"]
    assert words[-1] == "True"
    assert "RuntimeWarning" not in err
    assert list((root / "tmp").iterdir()) == []
    (entry,) = entries(root)
    assert listing(root) == [entry.name]
    assert_valid_entry(entry)


def test_failed_build_warns_once_and_falls_back(tmp_path):
    words, err = run_fast_chunk(tmp_path, PATH="/nonexistent")
    assert words == ["False", "False", "failed", "0", "True"]
    assert err.count("RuntimeWarning") == 1, err
    assert "cc, gcc, clang" in err
    assert list((tmp_path / "tmp").iterdir()) == []


@needs_cc
def test_warm_cache_loads_without_compiling(warm, tmp_path):
    root = copy_of(warm, tmp_path)
    # No compiler means no key: the warm entry is never used without one.
    words, err = run_fast_chunk(root, PATH="/nonexistent")
    assert words == ["False", "False", "failed", "0", "True"]
    assert err.count("RuntimeWarning") == 1, err

    words, err = run_fast_chunk(root)
    assert words == ["True", "True", "cached", "0", "True"]
    assert "RuntimeWarning" not in err
    assert listing(root) == listing(warm[0])
    assert list((root / "tmp").iterdir()) == []


def _wrong_key(data: bytes, key: str) -> bytes:
    body = data[:-32].replace(key.encode(), b"0" * len(key))
    return body + hashlib.sha256(body).digest()


@needs_cc
@pytest.mark.parametrize("damage", ["corrupt", "truncated", "wrong_key"])
def test_damaged_entry_is_rebuilt_not_used(warm, tmp_path, damage):
    root = copy_of(warm, tmp_path)
    (entry,) = entries(root)
    data = entry.read_bytes()
    key = entry.name[len("native-"):-len(".so")]
    entry.write_bytes({
        "corrupt": bytes(len(data)),
        "truncated": data[: len(data) * 9 // 10],
        "wrong_key": _wrong_key(data, key),
    }[damage])

    words, err = run_fast_chunk(root)
    assert words == ["True", "True", "compiled", "1", "True"]
    assert "RuntimeWarning" not in err
    assert listing(root) == [entry.name]
    assert entry.read_bytes() == data


@needs_cc
def test_group_writable_cache_is_refused(warm, tmp_path):
    root = copy_of(warm, tmp_path)
    cache_dir(root).chmod(0o775)
    words, err = run_fast_chunk(root)
    assert words == ["True", "True", "compiled", "1", "True"]
    assert "RuntimeWarning" not in err
    assert listing(root) == listing(warm[0])
    assert list((root / "tmp").iterdir()) == []


@needs_cc
def test_concurrent_cold_builds_publish_one_entry(tmp_path):
    procs = [spawn(tmp_path) for _ in range(4)]
    for proc in procs:
        out, err = proc.communicate(timeout=180)
        assert proc.returncode == 0, err
        words = out.split()
        assert words[:2] == ["True", "True"] and words[-1] == "True"
        assert words[2] in ("compiled", "cached")
    (entry,) = entries(tmp_path)
    assert_valid_entry(entry)
    assert listing(tmp_path) == [entry.name]
    assert list((tmp_path / "tmp").iterdir()) == []


def test_isa_label_names_the_path(no_native):
    assert native.isa() == "none"
    assert native.compiler() is None


@needs_cc
def test_isa_label_is_known():
    assert native.isa() in ("x86-64-v4", "x86-64-v3", "baseline")
    assert os.path.isabs(native.compiler())


# --- ISA variants -----------------------------------------------------------
#
# The dispatched library runs the batch kernels' clone for the host's
# x86-64 level. Each level this host can run is also built on its own,
# with dispatch compiled out, into a temporary directory outside the
# cache; every variant must reproduce the dispatched library's words,
# states and staged loop inputs bit for bit.

LEVELS = ("baseline", "x86-64-v3", "x86-64-v4")


def host_levels() -> list[str]:
    """The x86-64 levels this host runs, up to the dispatcher's choice."""
    if platform.machine() != "x86_64":
        pytest.skip("ISA variants are x86-64 levels; this host is "
                    f"{platform.machine()}")
    if not kernel_available():
        pytest.skip("no C compiler")
    return list(LEVELS[: LEVELS.index(native.isa()) + 1])


@pytest.fixture(scope="module")
def variants():
    """{level: single-variant CDLL} for every level the host runs."""
    libs = {}
    for level in host_levels():
        march = "x86-64" if level == "baseline" else level
        lib = native._build(
            native.compiler(), f"variant-{level}",
            flags=("-DREPRO_NO_DISPATCH", f"-march={march}"),
        )
        assert lib is not None, f"{level} build failed"
        assert lib.repro_native_isa() == b"baseline"
        libs[level] = lib
    return libs


def bits(a: np.ndarray) -> bytes:
    """Exact bytes of an array: -0.0 and NaN payloads compare too."""
    return np.ascontiguousarray(a).tobytes()


def chain_case(B: int, kind: str, seed: int):
    """Inputs for two consecutive calls of a :class:`ChainKernel` over B
    lanes: ``(n, coefficient columns, input rows, state, filter)``.

    The first lane block keeps the stock coefficients of a noisy chain;
    the others are perturbed. ``kind`` adds clipping lanes (a swing the
    integrators overrun), offset/hysteresis comparators, per-lane DAC
    noise, or ``-0.0`` loop inputs and states; "shared" feeds noise and
    DAC noise through one stride-0 zero row.
    """
    rng = np.random.default_rng(seed)
    chain = ReadoutChain(rng=np.random.default_rng(seed))
    m, filt = chain.chip.modulator, chain.fpga.filter
    s1, s2 = m.stage1, m.stage2

    def lanes(v, spread=0.0):
        out = np.full(B, float(v))
        out[8:] *= 1.0 + spread * rng.standard_normal(max(B - 8, 0))
        return out

    n = 2 * 1531
    c = {
        "dac_gain": lanes(1.0 + m.dac.reference_error, 1e-3),
        "p1": lanes(s1.leak), "b1": lanes(s1.feedback_gain * s1.gain_error, 1e-3),
        "p2": lanes(s2.leak), "a2": lanes(s2.signal_gain * s2.gain_error, 1e-3),
        "b2": lanes(s2.feedback_gain * s2.gain_error, 1e-3),
        "swing": lanes(s1.swing_limit),
        "comp_offset": np.zeros(B), "comp_hysteresis": np.zeros(B),
    }
    au = 0.45 * np.sin(np.arange(n) * 2e-3 + rng.uniform(0, 6, B)[:, None])
    au *= lanes(s1.signal_gain * s1.gain_error)[:, None]
    noise = 1e-4 * rng.standard_normal((B, n))
    dacn = np.zeros((B, n))
    x1 = rng.uniform(-0.5, 0.5, B)
    x2 = rng.uniform(-0.5, 0.5, B)
    if kind == "clipping":
        c["swing"][::3] = 0.05
    elif kind == "comparator":
        c["comp_offset"] = rng.uniform(-0.02, 0.02, B)
        c["comp_hysteresis"] = rng.uniform(0.0, 0.03, B)
    elif kind == "dac_noise":
        dacn = 2e-3 * rng.standard_normal((B, n))
    elif kind == "negzero":
        au[::2, ::5] = -0.0
        x1[::2] = -0.0
        x2[1::2] = -0.0
    R, M = filt.cic.decimation, filt.fir.decimation
    taps = filt.fir.taps
    half = 1 << (filt.cic.register_bits - 1)
    state = {
        "x1": x1, "x2": x2,
        "comp_previous": rng.choice([-1, 1], B).astype(np.int64),
        "integ": rng.integers(-half, half, (3, B)),
        "comb": rng.integers(-half, half, (3, B)),
        "cic_phase": int(rng.integers(R)),
        "hist": rng.integers(-4096, 4096, (B, taps - 1)),
        "fir_phase": int(rng.integers(M)),
    }
    shared = kind == "shared"
    inputs = {
        "au": au, "noise": np.zeros(n) if shared else noise,
        "dacn": np.zeros(n) if shared or kind != "dac_noise" else dacn,
    }
    return n, c, inputs, state, filt


def calls(n):
    """The two consecutive sample ranges every chain case runs as."""
    return (0, n // 2 - 7), (n // 2 - 7, n)


def run_chain_case(case, lanes=None) -> list[bytes]:
    """Both calls of one case through a kernel bound from its
    coefficient rows and filter, on whichever library is loaded.

    ``lanes`` keeps only the first lanes of every per-lane output.
    """
    n, c, inputs, state, filt = case
    k = ChainKernel(np.column_stack(list(c.values())), filt)
    B = c["swing"].size
    assert k.lanes == B  # every case is a whole number of blocks
    k.x1[:], k.x2[:] = state["x1"], state["x2"]
    k.comp_previous[:] = state["comp_previous"]
    k.integ[:], k.comb[:] = state["integ"], state["comb"]
    k.cic_phase, k.fir_phase = state["cic_phase"], state["fir_phase"]
    k.hist[:] = state["hist"]
    keep = slice(lanes)
    out = []
    for lo, hi in calls(n):
        def lane_rows(a):
            if a.ndim == 1:  # stride-0 shared row
                return np.ascontiguousarray(a[lo:hi]), 0
            return np.ascontiguousarray(a[:, lo:hi]), hi - lo
        rows = [lane_rows(inputs[x]) for x in ("au", "noise", "dacn")]
        # The kernel reads each history ring oldest column first.
        k.hist[:] = k.ordered_history()
        nw = run_batch_chunk(
            k, hi - lo, *(v for a, s in rows for v in (a.ctypes.data, s))
        )
        out += [bits(k.words[keep, :nw]), bits(k.clipped[keep])]
    out += [bits(a[keep]) for a in
            (k.x1, k.x2, k.comp_previous, k.ordered_history())]
    out += [bits(a[:, keep]) for a in (k.wrapped_integrators(), k.comb)]
    return out + [bits(np.array([k.cic_phase, k.fir_phase]))]


def lane0_rows(inputs, lo, hi):
    """Lane 0's au, noise and DAC noise (None when all zero) for a call."""
    au, noise, dacn = (a[lo:hi] if a.ndim == 1 else a[0, lo:hi]
                       for a in (inputs["au"], inputs["noise"], inputs["dacn"]))
    return au, noise, dacn if dacn.any() else None


def run_bits_case(case) -> list[bytes]:
    """Lane 0 of a case through the bitstream instantiation, in the same
    two calls as :func:`run_chain_case`: [bits, clipped] per call, then
    the final x1, x2 and comparator memory (indices line up with
    :func:`run_chain_case`'s words, clip counts and states)."""
    n, c, inputs, state, _ = case
    coeffs = tuple(float(v[0]) for v in c.values())
    x1, x2 = float(state["x1"][0]), float(state["x2"][0])
    prev = int(state["comp_previous"][0])
    out = []
    for lo, hi in calls(n):
        b, clipped, x1, x2, prev = run_bits(
            *lane0_rows(inputs, lo, hi), coeffs, x1, x2, prev
        )
        out += [bits(b), bits(np.int64(clipped))]
    return out + [bits(np.float64(x1)), bits(np.float64(x2)),
                  bits(np.int64(prev))]


def reference_bits_case(case) -> list[bytes]:
    """:func:`run_bits_case` through the modulator's reference loop."""
    n, c, inputs, state, _ = case
    m = SecondOrderSDM(nonideality=NonidealityParams.ideal())
    s1, s2, comp = m.stage1, m.stage2, m.comparator
    # a1 = 1: the loop's a1 * u[i] is then the staged au[i] exactly.
    s1.signal_gain = s1.gain_error = s2.gain_error = 1.0
    (s1.leak, s1.feedback_gain, s2.leak, s2.signal_gain, s2.feedback_gain,
     s1.swing_limit, comp.offset_v, comp.hysteresis_v) = (
        float(c[k][0]) for k in ("p1", "b1", "p2", "a2", "b2", "swing",
                                 "comp_offset", "comp_hysteresis"))
    s1.state, s2.state = float(state["x1"][0]), float(state["x2"][0])
    comp._previous = int(state["comp_previous"][0])
    out = []
    for lo, hi in calls(n):
        res = m._simulate_reference(
            *lane0_rows(inputs, lo, hi), float(c["dac_gain"][0])
        )
        out += [bits(res.bitstream), bits(np.int64(res.clipped_samples))]
    # The ideal comparator keeps no memory: its last decision stands in.
    prev = comp.previous_decision if not comp.is_ideal() else res.bitstream[-1]
    return out + [bits(np.float64(s1.state)), bits(np.float64(s2.state)),
                  bits(np.int64(prev))]


def frontend_case(B: int, kind: str, seed: int):
    """A :class:`FrontendKernel` over B lanes of one field, its per-call
    inputs written in place, and the field (kept alive with it).

    Lane l reads column l % n_el of a strided (n, n_el) pressure field.
    "negzero" writes ``-0.0`` pressures; "reject" puts one lane out of
    range and another on NaN, so every variant must refuse the chunk.
    """
    rng = np.random.default_rng(seed)
    sensor = MembraneSensor()
    p_min, p_max = sensor.pressure_range_pa
    n, n_el = 2053, 5
    field = rng.uniform(0.6 * p_min, 0.6 * p_max, (n, 2 * n_el))[:, ::2]
    if kind == "negzero":
        field[::3] = -0.0
    elif kind == "reject":
        field[700, B % n_el] = 1.01 * p_max
        field[1500, (B + 1) % n_el] = np.nan
    col = np.arange(B) % n_el
    rest = sensor.rest_capacitance_f
    injection = np.where(np.arange(B) % 2, 0.002 * rest, 0.0)
    k = FrontendKernel(
        sensor._fit, p_min, p_max,
        cap_scale=1.0 + 0.01 * rng.standard_normal(B),
        cap_offset=0.01 * rest * rng.standard_normal(B),
        switch_injection=injection, ref_cap=rest, fb_cap=2.0 * rest,
        excitation=0.5, a1=rng.uniform(0.2, 0.6, B),
    )
    k.pbase[:] = field.ctypes.data + col * field.strides[1]
    k.pstep[:] = field.strides[0] // 8
    k.injection[:] = injection
    return n, k, field


def run_frontend_case(case) -> list[bytes]:
    n, k, _ = case
    au = np.full((k.pbase.size, n), 7.0)
    k.u_last[:] = 7.0
    ok = run_frontend_chunk(k, n, au.ctypes.data, au.shape[1])
    return [bytes([ok]), bits(au), bits(k.u_last)]


@pytest.mark.parametrize("B", [1, 8, 16, 64])
@pytest.mark.parametrize(
    "kind", ["stock", "clipping", "comparator", "dac_noise", "shared",
             "negzero"],
)
def test_chain_variants_match_dispatched(variants, monkeypatch, B, kind):
    """Every variant's words and states, and lane 0's bitstream, clip
    counts and final x1/x2/prev, equal the dispatched build's; the
    bitstream run also equals the reference loop."""
    case = chain_case(B, kind, seed=B)
    expected = run_chain_case(case)
    expected_bits = run_bits_case(case)
    assert expected_bits == reference_bits_case(case)
    for level, lib in variants.items():
        monkeypatch.setattr(native, "_lib", lib)
        assert run_chain_case(case) == expected, level
        assert run_bits_case(case) == expected_bits, level


def pad_case(case, Bp: int):
    """One lane's case padded to ``Bp`` lanes: its coefficient row plus
    inert rows (zero gains, unit swing), the layout the engine used for
    a lone lane before the one-lane instantiation."""
    n, c, inputs, state, filt = case

    def pad(a, fill=0.0):
        out = np.full((Bp,) + a.shape[1:], fill, dtype=a.dtype)
        out[:1] = a
        return out

    c = {k: pad(v, 1.0 if k == "swing" else 0.0) for k, v in c.items()}
    inputs = {k: v if v.ndim == 1 else pad(v) for k, v in inputs.items()}
    state = {
        k: v if np.ndim(v) == 0
        else pad(v.T).T.copy() if k in ("integ", "comb")
        else pad(v, 1 if k == "comp_previous" else 0)
        for k, v in state.items()
    }
    return n, c, inputs, state, filt


@needs_cc
@pytest.mark.parametrize(
    "kind", ["stock", "clipping", "comparator", "dac_noise", "shared",
             "negzero"],
)
def test_lone_lane_matches_padded_block(kind):
    """The one-lane instantiation of batch_chain_run returns lane 0 of a
    padded block, bit for bit: codes, clip counts and every state. The
    bitstream instantiation runs the same recurrence: the reference
    loop's bits, and the words body's clip counts and x1/x2/prev."""
    case = chain_case(1, kind, seed=5)
    padded = pad_case(case, native.LANE_BLOCK)
    lone = run_chain_case(case)
    assert lone == run_chain_case(padded, lanes=1)
    got = run_bits_case(case)
    assert got == reference_bits_case(case)
    same = (1, 3, 4, 5, 6)  # clip counts of both calls, x1, x2, prev
    assert [got[i] for i in same] == [lone[i] for i in same]


@pytest.mark.parametrize("B", [8, 16, 64])
@pytest.mark.parametrize("kind", ["stock", "negzero", "reject"])
def test_frontend_variants_match_dispatched(variants, monkeypatch, B, kind):
    case = frontend_case(B, kind, seed=B)
    expected = run_frontend_case(case)
    assert expected[0] == bytes([kind != "reject"])
    for level, lib in variants.items():
        monkeypatch.setattr(native, "_lib", lib)
        assert run_frontend_case(case) == expected, level
