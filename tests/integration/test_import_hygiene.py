"""The data path from ``import repro`` to mmHg loads no SciPy.

SciPy costs over a second and some 76 MB to import; only analysis code
(the catheter baseline, NTF analysis, flicker noise), experiments and
tests use it, and they import it on first use. A fresh interpreter runs
one chunk of every acquisition surface (solo session, batch session,
fused scan, gateway session), a seeded monitor measurement, the
artifact detector on its record and a 4-lane batch session calibrated
to mmHg, and must finish without ``scipy`` in ``sys.modules``: the low-pass, peak
picker and error function are the package's own
(``tests/dsp/test_scipy_parity.py``). It runs once with the native
library and once with it marked unavailable, so the Python biquad
cascade is on the path too.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

DATA_PATH = """
import asyncio
import sys

import numpy as np

import repro
from repro import native

if sys.argv[1] == "reference":
    native._lib = False

from repro.array.scan import ScanController
from repro.batch import BatchAcquisitionSession
from repro.core.chain import ReadoutChain
from repro.core.session import AcquisitionSession
from repro.gateway.client import DeviceClient, synthetic_payloads
from repro.gateway.server import GatewayServer
from repro.params import ArrayParams, NonidealityParams, SystemParams

n = 2048
field = np.full((n, 4), 1200.0)
solo = AcquisitionSession(ReadoutChain(rng=np.random.default_rng(1)), element=1)
solo.feed_pressure(field)
solo.finish()

chains = [ReadoutChain(rng=np.random.default_rng(s)) for s in (2, 3)]
batch = BatchAcquisitionSession(chains, element=1)
batch.feed_pressure([field, field])
batch.finish()

base = SystemParams()
params = base.replace(
    array=ArrayParams(rows=3, cols=3, membrane=base.array.membrane),
    nonideality=NonidealityParams.ideal(),
)
scan_chain = ReadoutChain(params)
segments = np.full((9, 12 * 128), 1500.0)
ScanController(scan_chain.chip.mux).scan_records(
    scan_chain, segments=segments, fused=True
)


async def gateway_session():
    server = GatewayServer()
    await server.start()
    try:
        client = DeviceClient(
            server.host, server.port, device_id=1,
            payloads=synthetic_payloads(8, 16),
        )
        await client.run()
        assert await server.drain()
    finally:
        await server.stop()


asyncio.run(gateway_session())

from repro.baselines.cuff import OscillometricCuff
from repro.calibration.artifacts import ArtifactDetector
from repro.calibration.features import detect_beats, lowpass_cardiac
from repro.calibration.twopoint import TwoPointCalibration
from repro.core.monitor import BloodPressureMonitor
from repro.params import PASCAL_PER_MMHG
from repro.physiology.patient import VirtualPatient
from repro.tonometry.contact import ContactModel
from repro.tonometry.coupling import TonometricCoupling

contact = ContactModel(
    contact=base.contact,
    tissue=base.tissue,
    mean_arterial_pressure_pa=(80 + 40 / 3) * PASCAL_PER_MMHG,
)
chain = ReadoutChain(base, rng=np.random.default_rng(5))
coupling = TonometricCoupling(chain.chip.array.geometry, contact)
monitor = BloodPressureMonitor(chain, coupling)
result = monitor.measure(
    VirtualPatient(rng=np.random.default_rng(6)), duration_s=5.0,
    scan_dwell_s=0.05,
)
assert result.features.n_beats >= 2
ArtifactDetector().detect(result.recording.values, result.recording.sample_rate_hz)

fs = base.modulator.sampling_rate_hz
t = np.arange(int(5.0 * fs)) / fs
patients = [VirtualPatient(rng=np.random.default_rng(10 + s)) for s in range(4)]
fields = [
    coupling.element_pressures_pa(p.record(5.0, 2000.0).interp_pressure_pa(t))
    for p in patients
]
lanes = [ReadoutChain(base, rng=np.random.default_rng(s)) for s in range(4)]
batch = BatchAcquisitionSession(lanes, element=result.selection.best_index)
batch.feed_pressure(fields)
batch.finish()
for recording, patient in zip(batch.recordings(), patients):
    raw = lowpass_cardiac(recording.values, recording.sample_rate_hz)
    beats = detect_beats(
        recording.values, recording.sample_rate_hz,
        expected_rate_bpm=patient.params.heart_rate_bpm,
    )
    cuff = OscillometricCuff().measure(patient, rng=np.random.default_rng(3))
    calibration = TwoPointCalibration.from_features(
        beats, cuff.systolic_mmhg, cuff.diastolic_mmhg
    )
    assert np.all(np.isfinite(calibration.apply(raw)))
print(native.available(), "scipy" in sys.modules)
"""


def run_data_path(path: str) -> list[str]:
    """Run the script with the native library (``"native"``) or with it
    marked unavailable (``"reference"``); return what it printed."""
    result = subprocess.run(
        [sys.executable, "-c", DATA_PATH, path],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.split()


def test_data_path_does_not_import_scipy():
    _, has_scipy = run_data_path("native")
    assert has_scipy == "False"


def test_reference_data_path_does_not_import_scipy():
    has_native, has_scipy = run_data_path("reference")
    assert (has_native, has_scipy) == ("False", "False")
