"""The native library's machine-level contract: one verified cache entry per
key, no leftovers, loud failure.

Every test runs fresh interpreters with their own ``XDG_CACHE_HOME`` and
``TMPDIR``, because a process loads the library once and keeps it.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.sdm import kernel_available

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
