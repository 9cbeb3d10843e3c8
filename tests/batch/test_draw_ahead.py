"""Solo draw-ahead: the next chunk's normals drawn on the staging pool.

With two or more CPUs, :meth:`~repro.batch.engine.BatchChainEngine.\
run_prepared` has the pool draw a solo noisy lane's next chunk while the
kernel runs the current one
(:meth:`~repro.sdm.modulator.SecondOrderSDM._draw_ahead`). The cache is
always safe to drop: a term generator moves past drawn-ahead values only
when they are taken. So every path (taken, dropped for another length,
copied, pickled or forked mid-draw, never made on one CPU) must read
exactly what inline staging reads, chain state included.
"""

import copy
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.batch import BatchChainEngine
from repro.batch import engine as engine_mod
from repro.batch.engine import STAGE_SAMPLES
from repro.core.monitor import BloodPressureMonitor
from repro.physiology.patient import VirtualPatient

from ..core.test_monitor import build_monitor
from .test_threaded_staging import chain_state, fields_for, make_chains

needs_native = pytest.mark.skipif(
    not native.available(), reason="the draw-ahead rides the kernel path"
)

#: Equal chunks (taken), a length change (dropped), a chunk longer than
#: one staging slice (drawn inline) and a short tail.
SPLITS = [6400, 6400, 6400, 1000, 1000, STAGE_SAMPLES + 1000, 640, 640, 300]


def feed(monkeypatch, cpus, kind, splits=SPLITS):
    """Feed ``splits`` through a solo engine staging on ``cpus`` CPUs."""
    monkeypatch.setattr(engine_mod, "staging_cpus", lambda: cpus)
    engine = BatchChainEngine(make_chains(1, kind))
    n_el = engine.chains[0].chip.mux.array.n_elements
    outs, offset = [], 0
    for n in splits:
        codes, clipped = engine.feed_pressure(fields_for(1, n, n_el, offset))
        outs.append((codes.tolist(), clipped.tolist()))
        offset += n
    return engine, outs


class GatedPool:
    """The staging pool, with every call held until ``gate`` is set."""

    def __init__(self, pool):
        self.pool = pool
        self.gate = threading.Event()
        self.calls = 0

    def submit(self, fn, *args):
        self.calls += 1

        def held():
            self.gate.wait()
            fn(*args)

        return self.pool.submit(held)


@needs_native
class TestDrawAheadEqualsInline:
    @pytest.mark.parametrize("kind", ["jitter", "ktc", "dac", "flicker"])
    def test_codes_and_state(self, monkeypatch, kind):
        inline_engine, inline = feed(monkeypatch, 1, kind)
        ahead_engine, ahead = feed(monkeypatch, 2, kind)
        assert ahead == inline
        (inline_chain,), (ahead_chain,) = (
            inline_engine.chains, ahead_engine.chains
        )
        assert chain_state(ahead_chain) == chain_state(inline_chain)
        m = ahead_chain.chip.modulator
        # Taken: chunks 2, 3, 5 and 8. Dropped: chunks 4, 6 and 9 (another
        # length). The two-slice chunk 6 draws nothing ahead.
        assert (m.draws_taken, m.draws_dropped) == (4, 3)
        assert inline_chain.chip.modulator.draws_taken == 0

    def test_one_cpu_submits_nothing(self, monkeypatch):
        def no_pool():
            raise AssertionError("a one-CPU session used the pool")

        monkeypatch.setattr(engine_mod, "_staging_pool", no_pool)
        engine, _ = feed(monkeypatch, 1, "ktc")
        m = engine.chains[0].chip.modulator
        assert m._ahead is None
        assert (m.draws_taken, m.draws_dropped) == (0, 0)

    def test_this_hosts_cpus_decide(self):
        """Unpatched: a second usable CPU draws ahead, one (``taskset -c
        0``) draws inline."""
        engine = BatchChainEngine(make_chains(1, "ktc"))
        n_el = engine.chains[0].chip.mux.array.n_elements
        for i in range(3):
            engine.feed_pressure(fields_for(1, 6400, n_el, 6400 * i))
        taken = engine.chains[0].chip.modulator.draws_taken
        assert taken == (2 if engine_mod.staging_cpus() > 1 else 0)


@needs_native
class TestInFlightCopies:
    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
        ids=["deepcopy", "pickle"],
    )
    def test_copy_continues_bit_exactly(self, monkeypatch, clone):
        _, want = feed(monkeypatch, 1, "jitter", [6400, 6400])
        pool = GatedPool(engine_mod._staging_pool())
        monkeypatch.setattr(engine_mod, "_staging_pool", lambda: pool)
        monkeypatch.setattr(engine_mod, "staging_cpus", lambda: 2)
        engine = BatchChainEngine(make_chains(1, "jitter"))
        (chain,) = engine.chains
        n_el = chain.chip.mux.array.n_elements
        try:
            first = engine.feed_pressure(fields_for(1, 6400, n_el))
            assert pool.calls == 1  # held: the draw is in flight
            before = chain_state(chain)
            twin = clone(chain)
            assert twin.chip.modulator._ahead is None
            assert chain.chip.modulator._ahead.future is not None
            assert chain_state(chain) == before == chain_state(twin)
        finally:
            # Free the shared pool's worker for whatever runs next.
            pool.gate.set()
        second = fields_for(1, 6400, n_el, 6400)
        got = engine.feed_pressure(second)
        got_twin = BatchChainEngine([twin]).feed_pressure(second)
        for codes, clipped in (got, got_twin):
            assert [
                (first[0].tolist(), first[1].tolist()),
                (codes.tolist(), clipped.tolist()),
            ] == want
        assert chain.chip.modulator.draws_taken == 1
        assert chain_state(chain) == chain_state(twin)


def record(monkeypatch, cpus, stop_s):
    monkeypatch.setattr(engine_mod, "staging_cpus", lambda: cpus)
    monitor: BloodPressureMonitor = build_monitor(seed=73)
    truth = VirtualPatient(rng=np.random.default_rng(74)).record(
        duration_s=2.0, sample_rate_hz=2000.0
    )
    return monitor.record_streaming(
        truth, 0.0, stop_s, element=1, chunk_s=0.05
    )


class TestTelemetryCounts:
    """Fixed monitor records: 20 chunks of 6400 samples, then a 2560-
    sample tail. The session's end drops the draw its last chunk made."""

    @needs_native
    @pytest.mark.parametrize(
        "stop_s, taken, dropped", [(1.0, 19, 1), (1.02, 19, 2)]
    )
    def test_native_counts(self, monkeypatch, stop_s, taken, dropped):
        inline, inline_tm = record(monkeypatch, 1, stop_s)
        ahead, tm = record(monkeypatch, 2, stop_s)
        assert np.array_equal(ahead.codes, inline.codes)
        assert (tm.chunks_drawn_ahead, tm.draws_ahead_dropped) == (
            taken, dropped
        )
        assert inline_tm.chunks_drawn_ahead == 0
        assert inline_tm.draws_ahead_dropped == 0
        assert f"{taken} chunks from the cache, {dropped} dropped" in (
            tm.describe()
        )

    def test_no_native_counts_nothing(self, monkeypatch, no_native):
        _, tm = record(monkeypatch, 2, 1.02)
        assert (tm.chunks_drawn_ahead, tm.draws_ahead_dropped) == (0, 0)


FORK_SCRIPT = textwrap.dedent(
    """
    import json
    import os

    from repro.batch import BatchChainEngine
    from repro.batch import engine as engine_mod
    from tests.batch.test_draw_ahead import GatedPool
    from tests.batch.test_threaded_staging import (
        chain_state, fields_for, make_chains,
    )

    # Two usable CPUs whatever the host (or taskset) allows.
    os.sched_getaffinity = lambda pid: {0, 1}

    def first_chunk():
        engine = BatchChainEngine(make_chains(1, "ktc"))
        n_el = engine.chains[0].chip.mux.array.n_elements
        engine.feed_pressure(fields_for(1, 6400, n_el))
        return engine, fields_for(1, 6400, n_el, 6400)

    # The unforked run: its second chunk takes the drawn-ahead normals.
    engine, second = first_chunk()
    codes, _ = engine.feed_pressure(second)
    want = [codes.tolist(), repr(chain_state(engine.chains[0]))]
    assert engine.chains[0].chip.modulator.draws_taken == 1

    # Hold the next draw on the pool, then fork with it in flight.
    pool = GatedPool(engine_mod._staging_pool())
    engine_mod._staging_pool = lambda: pool
    engine, second = first_chunk()
    m = engine.chains[0].chip.modulator
    assert pool.calls == 1 and m._ahead.future is not None
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        codes, _ = engine.feed_pressure(second)
        got = [codes.tolist(), repr(chain_state(engine.chains[0])),
               m.draws_taken, m.draws_dropped]
        os.write(w, json.dumps(got).encode())
        os._exit(0)
    os.close(w)
    with os.fdopen(r) as f:
        got = json.loads(f.read())
    os.waitpid(pid, 0)
    pool.gate.set()
    assert got[:2] == want, "the forked child differs from the unforked run"
    assert got[2:] == [0, 1]
    print("FORK-OK")
    """
)


@needs_native
class TestFork:
    def test_forked_child_drops_the_parents_draw(self):
        """A child forked while a draw is in flight drops it (the fork
        generation changed) instead of waiting on a call no thread of
        its own will finish, and reads what an unforked run reads."""
        root = Path(__file__).resolve().parents[2]
        proc = subprocess.Popen(
            [sys.executable, "-c", FORK_SCRIPT],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root}"),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the forked child waited on its parent's draw")
        assert proc.returncode == 0, err
        assert "FORK-OK" in out
