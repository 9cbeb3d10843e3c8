"""Pinned SHA-256 digests of seeded array-scan outputs.

Every bit-identity suite compares a fast path with its reference in the
same process, so a change to code both share (a rounding helper, a
coupling formula, a NumPy release that changes a seeded stream) moves
both sides together. These digests pin the outputs themselves:

* two consecutive seeded 8x8 fused scans on one chain (the second
  reuses the chain's bound kernels), as the imaging frame runs them;
* a sequential visit-loop scan of a 3x3 array from a full field;
* the artery estimate of the first 8x8 frame.

Each runs with the native library and without it (``no_native``), and
both must hit the same digest. A digest may change only in a change
that says why; to re-pin, run this file as a script with
``PYTHONPATH=src python tests/array/test_pinned_digests.py`` and copy
the printed table and NumPy version over ``DIGESTS`` and
``PINNED_NUMPY``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.array.imaging import amplitude_image, localize_artery
from repro.array.scan import ScanController
from repro.batch import batch_kernel_available
from repro.core.chain import ReadoutChain
from repro.params import ArrayParams, NonidealityParams, SystemParams
from repro.tonometry.contact import ContactModel
from repro.tonometry.coupling import TonometricCoupling
from repro.tonometry.placement import ArrayPlacement

#: The NumPy release the digests were taken under.
PINNED_NUMPY = "2.4.6"

DIGESTS = {
    "fused_8x8": "cdd68ca0f369e37bfcee0324ff1177ab469257631a65e27a286ffa2117be3b1d",
    "artery_8x8": "14e03b387acddabde4336d4a1cce0585a36577c7b12496c9614f81ca7a15dc49",
    "visit_loop_3x3": "c47fd31bee9353a93599ff50390b82056bf2a2b5c015d526b3352168ff5ddb56",
}

SEED = 2604
PITCH_M = 0.6e-3
PULSE_HZ = 40.0
PULSE_PA = 5000.0


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def params(rows: int, cols: int) -> SystemParams:
    base = SystemParams()
    membrane = dataclasses.replace(base.array.membrane, pitch_m=PITCH_M)
    return base.replace(
        array=ArrayParams(rows=rows, cols=cols, membrane=membrane),
        nonideality=NonidealityParams.ideal(),
    )


def coupling_for(chain, rng) -> TonometricCoupling:
    p = chain.params
    contact = ContactModel(contact=p.contact, tissue=p.tissue)
    return TonometricCoupling(
        chain.chip.array.geometry,
        contact,
        placement=ArrayPlacement(
            lateral_offset_m=float(rng.uniform(-0.3e-3, 0.3e-3)),
            rotation_rad=float(rng.uniform(0.0, 0.08)),
        ),
        contact_heterogeneity=0.1,
        rng=rng,
    )


def arterial(chain, coupling, n_samples: int, rng) -> np.ndarray:
    fs = chain.params.modulator.sampling_rate_hz
    t = np.arange(n_samples) / fs
    phase = float(rng.uniform(0.0, 2 * np.pi))
    return (
        coupling.contact.map_pa
        + 0.5 * PULSE_PA * np.sin(2 * np.pi * PULSE_HZ * t + phase)
        + 0.15 * PULSE_PA * np.sin(4 * np.pi * PULSE_HZ * t + phase)
    )


def imaging_outputs() -> dict[str, str]:
    """Two 8x8 fused frames on one chain, and the first's artery line."""
    rng = np.random.default_rng(SEED)
    chain = ReadoutChain(params(8, 8))
    controller = ScanController(chain.chip.mux)
    period = int(round(chain.output_rate_hz / PULSE_HZ))
    schedule = controller.schedule(chain.fpga.filter, valid_words=period)
    dwell = schedule.words_per_visit * chain.params.decimation.total_decimation
    coupling = coupling_for(chain, rng)
    frames = []
    for _ in range(2):
        pulse = arterial(chain, coupling, 64 * dwell, rng)
        segments = coupling.scan_pressure_segments(pulse, dwell)
        frames.append(
            controller.scan_records(chain, segments=segments, fused=True)
        )
        assert controller.last_scan_fused is batch_kernel_available()
    settled = frames[0][schedule.settle_words:][:period]
    image = amplitude_image(settled, 8, 8, metric="std")
    est = localize_artery(image, chain.chip.array.geometry)
    line = np.array([est.transverse_m, est.angle_rad, est.n_rows_used])
    return {
        "fused_8x8": digest(*frames),
        "artery_8x8": digest(line, est.row_positions_m),
    }


def visit_loop_output() -> str:
    """A sequential 3x3 scan: every visit from the previous state."""
    rng = np.random.default_rng(SEED + 1)
    chain = ReadoutChain(params(3, 3))
    coupling = coupling_for(chain, rng)
    dwell_s = 0.05
    fs = chain.params.modulator.sampling_rate_hz
    dwell = int(dwell_s * fs)
    pulse = arterial(chain, coupling, 9 * dwell, rng)
    segments = coupling.scan_pressure_segments(pulse, dwell)
    records = ScanController(chain.chip.mux).scan_records(chain, segments)
    return digest(records)


def outputs() -> dict[str, str]:
    return {**imaging_outputs(), "visit_loop_3x3": visit_loop_output()}


@pytest.fixture(params=["native", "no_native"])
def library(request):
    if request.param == "no_native":
        request.getfixturevalue("no_native")
    return request.param


def check(name: str, value: str) -> None:
    if np.__version__ != PINNED_NUMPY:
        pytest.fail(
            f"digests were pinned under NumPy {PINNED_NUMPY}, this is "
            f"NumPy {np.__version__}: a release can change seeded streams "
            "and rounding. Re-pin: run `PYTHONPATH=src python "
            "tests/array/test_pinned_digests.py`, check the change is "
            "expected, and copy its output over DIGESTS and PINNED_NUMPY."
        )
    assert value == DIGESTS[name], (
        f"{name} moved: {value} != pinned {DIGESTS[name]}"
    )


def test_imaging_digests(library):
    got = imaging_outputs()
    for name in ("fused_8x8", "artery_8x8"):
        check(name, got[name])


def test_visit_loop_digest(library):
    check("visit_loop_3x3", visit_loop_output())


if __name__ == "__main__":
    print(f'PINNED_NUMPY = "{np.__version__}"')
    for name, value in outputs().items():
        print(f'    "{name}": "{value}",')
