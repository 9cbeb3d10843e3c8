"""The native library's process-level contract: no leftovers, loud failure.

Both tests run a fresh interpreter, because the library is built once per
process and cached.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.sdm import kernel_available

SRC = str(Path(repro.__file__).resolve().parents[1])

FAST_CHUNK = """
import numpy as np
from repro.batch import batch_kernel_available
from repro.params import NonidealityParams
from repro.sdm import SecondOrderSDM, kernel_available

print(kernel_available(), batch_kernel_available(), kernel_available())
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


def run_fast_chunk(tmp_path, **env_overrides):
    env = {**os.environ, "PYTHONPATH": SRC, "TMPDIR": str(tmp_path)}
    env.update(env_overrides)
    env.pop("REPRO_CC", None)
    return subprocess.run(
        [sys.executable, "-W", "always", "-c", FAST_CHUNK],
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.skipif(not kernel_available(), reason="no C compiler")
def test_build_leaves_no_directory_behind(tmp_path):
    result = run_fast_chunk(tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "True", "True", "True"]
    assert "RuntimeWarning" not in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_failed_build_warns_once_and_falls_back(tmp_path):
    result = run_fast_chunk(tmp_path, PATH="/nonexistent")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False", "False", "True"]
    assert result.stderr.count("RuntimeWarning") == 1, result.stderr
    assert "cc, gcc, clang" in result.stderr
    assert list(tmp_path.iterdir()) == []
