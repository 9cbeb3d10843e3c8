"""One call form per compiled kernel.

Every program path that runs the fused chain kernel or the compiled
front end goes through :func:`repro.batch.kernel.run_batch_chunk` and
:func:`repro.batch.kernel.run_frontend_chunk`, looked up on the module at
call time, so a wrapper installed there sees every call: the solo
session, the batch session and the fused array scan alike. A chain
pinned to the reference loop reaches neither.
"""

import numpy as np
import pytest

from repro import native
from repro.array.scan import ScanController
from repro.batch import BatchAcquisitionSession
from repro.batch import kernel as batch_kernel
from repro.core.chain import ReadoutChain
from repro.core.session import AcquisitionSession
from repro.params import ArrayParams, NonidealityParams, SystemParams

CALLS = ("run_batch_chunk", "run_frontend_chunk")


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls to the two call forms, by name."""
    counts = dict.fromkeys(CALLS, 0)
    for name in CALLS:
        original = getattr(batch_kernel, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(batch_kernel, name, counted)
    return counts


def make_chain(seed=0, backend="fast", rows=2, cols=2):
    base = SystemParams()
    params = base.replace(
        array=ArrayParams(rows=rows, cols=cols, membrane=base.array.membrane),
        nonideality=NonidealityParams.ideal(),
    )
    return ReadoutChain(
        params, rng=np.random.default_rng(seed), backend=backend
    )


def field(n_elements, n=6400):
    p = 2000.0 * np.sin(2 * np.pi * 1.2 * np.arange(n) / 128e3)
    return np.repeat(p[:, None], n_elements, axis=1)


def solo(backend):
    chain = make_chain(backend=backend)
    session = AcquisitionSession(chain, element=1)
    session.feed_pressure(field(chain.chip.array.n_elements))


def batch(backend):
    chains = [make_chain(seed=l, backend=backend) for l in range(3)]
    session = BatchAcquisitionSession(chains, element=1)
    f = field(chains[0].chip.array.n_elements)
    session.feed_pressure([f] * len(chains))


def fused_scan(backend):
    chain = make_chain(backend=backend)
    controller = ScanController(chain.chip.mux)
    segments = field(4, n=12 * 128).T.copy()
    controller.scan_records(chain, segments=segments, fused=True)
    return controller.last_scan_fused


PATHS = {"solo": solo, "batch": batch, "fused_scan": fused_scan}


@pytest.mark.skipif(not native.available(), reason="no C compiler")
@pytest.mark.parametrize("path", PATHS)
def test_compiled_paths_call_both_forms(calls, path):
    result = PATHS[path]("fast")
    if path == "fused_scan":
        assert result
    assert calls["run_batch_chunk"] >= 1
    assert calls["run_frontend_chunk"] >= 1


@pytest.mark.parametrize("path", PATHS)
def test_reference_pinned_chain_calls_neither(calls, path):
    PATHS[path]("reference")
    assert calls == dict.fromkeys(CALLS, 0)
