"""Noisy-lane staging split across threads equals inline staging.

:meth:`~repro.batch.engine.BatchChainEngine.run_prepared` spreads the
noisy lanes' staging (each modulator's ``_prepare_inputs`` writing into
the engine's rows) over the usable CPUs. A lane touches only its own
modulator, RNG streams and rows, so the split must not change a value.
These tests force the CPU count and compare a sharded run against an
inline one (one CPU), bit for bit: codes, clip counts and every piece of
chain state a later chunk reads.
"""

import os
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
from repro.core.chain import ReadoutChain
from repro.params import NonidealityParams, SystemParams

pytestmark = pytest.mark.skipif(
    not native.available(), reason="threaded staging runs the fused kernel"
)

NOISE = {
    "jitter": NonidealityParams(
        sampling_cap_f=float("inf"), clock_jitter_s=50e-12
    ),
    "ktc": NonidealityParams(),
    "dac": NonidealityParams(),
    "flicker": NonidealityParams(flicker_corner_hz=1000.0),
}

#: Chunk sizes: single samples, a decimation-crossing run (R = 128) and
#: one chunk longer than the engine's staging slice.
SPLITS = [1, 1, 126, 1, 300, 129, STAGE_SAMPLES + 1000, 640]


def make_chains(B, kind, seed=50):
    ni = NonidealityParams.ideal() if kind == "ideal" else NOISE[kind]
    params = SystemParams().replace(nonideality=ni)
    chains = []
    for l in range(B):
        chain = ReadoutChain(params, rng=np.random.default_rng(seed + l))
        if kind == "dac":
            chain.chip.modulator.dac.reference_noise_sigma = 1e-4
        chain.chip.select_element(1)
        chain.fpga.select_element(1)
        chains.append(chain)
    return chains


def fields_for(B, n, n_el, offset=0):
    t = (np.arange(n) + offset) / 128e3
    return [
        np.repeat(
            (2200.0 * np.sin(2 * np.pi * (1.1 + 0.3 * l) * t) + 1200.0)[
                :, None
            ],
            n_el,
            axis=1,
        )
        for l in range(B)
    ]


def chain_state(chain):
    """Everything the next chunk reads from a lane's chain."""
    m = chain.chip.modulator
    filt = chain.fpga.filter
    flicker = m._flicker
    return (
        m.stage1.state,
        m.stage2.state,
        m.comparator._previous,
        m._last_input,
        [
            g.bit_generator.state
            for g in (m.rng, m._jitter_rng, m._noise_rng, m._dac_rng)
        ],
        None
        if flicker is None
        else (flicker._rng.bit_generator.state, flicker._state.tolist()),
        filt.cic._integrators.tolist(),
        filt.cic._combs.tolist(),
        filt.cic._phase,
        filt.fir._history.tolist(),
        filt.fir._phase,
    )


def run(monkeypatch, cpus, B, kind, splits=SPLITS):
    """Feed ``splits`` through one engine staging on ``cpus`` CPUs.

    Returns the per-chunk outputs, the per-chunk ``staging_threads``
    and the chains' final states.
    """
    monkeypatch.setattr(engine_mod, "staging_cpus", lambda: cpus)
    engine = BatchChainEngine(make_chains(B, kind))
    n_el = engine.chains[0].chip.mux.array.n_elements
    outs, threads, offset = [], [], 0
    for n in splits:
        fields = fields_for(engine.lanes, n, n_el, offset)
        codes, clipped = engine.feed_pressure(fields)
        outs.append((codes.copy(), clipped.copy()))
        threads.append(engine.staging_threads)
        offset += n
    return outs, threads, [chain_state(c) for c in engine.chains]


def assert_same(a, b):
    outs_a, _, state_a = a
    outs_b, _, state_b = b
    assert len(outs_a) == len(outs_b)
    for (ca, ka), (cb, kb) in zip(outs_a, outs_b):
        assert np.array_equal(ca, cb)
        assert np.array_equal(ka, kb)
    assert state_a == state_b


class TestShardedEqualsInline:
    @pytest.mark.parametrize("kind", sorted(NOISE))
    @pytest.mark.parametrize("B", [2, 3, 9, 16])
    def test_codes_and_state(self, monkeypatch, B, kind):
        inline = run(monkeypatch, 1, B, kind)
        assert set(inline[1]) == {1}
        for cpus in (2, 4):
            sharded = run(monkeypatch, cpus, B, kind)
            assert set(sharded[1]) == {min(cpus, B)}
            assert_same(inline, sharded)

    def test_inline_when_fewer_than_two_lanes_are_noisy(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "staging_cpus", lambda: 4)
        chains = make_chains(1, "ktc") + make_chains(3, "ideal", seed=7)
        engine = BatchChainEngine(chains)
        assert [c.chip.modulator.is_deterministic() for c in chains] == [
            False, True, True, True
        ]
        n_el = chains[0].chip.mux.array.n_elements
        engine.feed_pressure(fields_for(4, 512, n_el))
        assert engine.staging_threads == 1

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "staging_cpus", lambda: 2)
        engine = BatchChainEngine(make_chains(2, "ktc"))
        n_el = engine.chains[0].chip.mux.array.n_elements

        def broken(u, out=None):
            raise RuntimeError("lane staging failed")

        engine.chains[1].chip.modulator._prepare_inputs = broken
        with pytest.raises(RuntimeError, match="lane staging failed"):
            engine.feed_pressure(fields_for(2, 256, n_el))

    def test_concurrent_engines_share_the_pool(self, monkeypatch):
        """Several client threads, each staging its own engine on the
        shared pool (more shares than cores, a short switch interval),
        read exactly what each engine reads alone."""
        splits = [700, 129, 2048]
        want = [
            run(monkeypatch, 1, 3, kind, splits)
            for kind in ("ktc", "flicker", "dac", "jitter")
        ]
        monkeypatch.setattr(engine_mod, "staging_cpus", lambda: 4)
        got = [None] * len(want)

        def client(i, kind):
            engine = BatchChainEngine(make_chains(3, kind))
            n_el = engine.chains[0].chip.mux.array.n_elements
            outs, offset = [], 0
            for n in splits:
                codes, clipped = engine.feed_pressure(
                    fields_for(3, n, n_el, offset)
                )
                outs.append((codes.copy(), clipped.copy()))
                offset += n
            got[i] = (outs, None, [chain_state(c) for c in engine.chains])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(i, kind))
                for i, kind in enumerate(("ktc", "flicker", "dac", "jitter"))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for w, g in zip(want, got):
            assert_same(w, g)


FORK_SCRIPT = textwrap.dedent(
    """
    import os

    import numpy as np
    from repro.batch import BatchAcquisitionSession
    from repro.batch import engine as engine_mod
    from repro.core.chain import ReadoutChain
    from repro.parallel import ParallelExecutor
    from repro.params import SystemParams

    # Two usable CPUs whatever the host (or taskset) allows, for the
    # staging pool and for the executor's core clamp alike.
    os.sched_getaffinity = lambda pid: {0, 1}
    os.cpu_count = lambda: 2

    # One noisy 4-lane batch session per item; per lane (codes, threads).
    def batch(item, seed):
        chains = [
            ReadoutChain(SystemParams(), rng=np.random.default_rng(s))
            for s in seed.spawn(4)
        ]
        session = BatchAcquisitionSession(chains, element=1)
        n_el = chains[0].chip.mux.array.n_elements
        t = np.arange(2560) / 128e3
        field = np.repeat(
            (2000.0 * np.sin(2 * np.pi * 1.3 * t) + 1200.0)[:, None],
            n_el, axis=1,
        )
        session.feed_pressure([field] * len(chains))
        session.finish()
        threads = session.engine.staging_threads
        return [(session.codes(l).tolist(), threads) for l in range(len(chains))]

    # The parent stages on the pool first, so the pool exists at fork.
    first = batch(None, np.random.SeedSequence(0))
    assert {t for _, t in first} == {2}
    assert engine_mod._pool is not None
    serial = ParallelExecutor(jobs=1).map(batch, range(2), seed=3)
    forked = ParallelExecutor(jobs=2).map(batch, range(2), seed=3)
    serial = [lane for lanes in serial for lane in lanes]
    forked = [lane for lanes in forked for lane in lanes]
    assert [c for c, _ in forked] == [c for c, _ in serial]
    assert {t for _, t in serial} == {2}
    # Forked children stage inline.
    assert {t for _, t in forked} == {1}
    print("FORK-OK")
    """
)


class TestFork:
    def test_forked_children_finish_and_match_serial(self):
        """A forked executor child must not wait on the parent's pool.

        Without the engine's at-fork hook the child inherits the pool
        object but none of its threads, and its first noisy chunk waits
        forever; the deadline turns that into a failure.
        """
        src = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", FORK_SCRIPT],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            # Take the hung executor children down with their parent.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("forked executor children hung on the staging pool")
        assert proc.returncode == 0, err
        assert "FORK-OK" in out
