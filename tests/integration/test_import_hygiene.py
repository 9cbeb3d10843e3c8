"""The data path from ``import repro`` to the first input loads no SciPy.

SciPy costs over a second to import; only calibration, baselines,
experiments and tests use it, and they import it on first use. A fresh
interpreter runs one chunk of every acquisition surface (solo session,
batch session, fused scan, gateway session) and must finish without
``scipy`` in ``sys.modules``; the calibration calls afterwards prove the
lazy imports still resolve.
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
print("scipy" in sys.modules)

from repro.calibration.features import detect_beats, lowpass_cardiac

t = np.arange(8000) / 1000.0
pulse = (0.5 + 0.5 * np.sin(2 * np.pi * 1.2 * t)) ** 4
smooth = lowpass_cardiac(pulse, 1000.0)
beats = detect_beats(pulse, 1000.0, expected_rate_bpm=72.0)
print("scipy" in sys.modules, smooth.shape == pulse.shape, beats.n_beats > 5)
"""


def test_data_path_does_not_import_scipy():
    result = subprocess.run(
        [sys.executable, "-c", DATA_PATH],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    data_path, after_calibration = result.stdout.strip().splitlines()
    assert data_path == "False"
    assert after_calibration == "True True True"
