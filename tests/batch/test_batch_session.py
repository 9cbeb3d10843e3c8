"""Batched acquisition correctness: bit-identity, rails, validation.

The contract under test: a :class:`~repro.batch.BatchAcquisitionSession`
over ``B`` chains produces, per lane, exactly the codes and telemetry a
single :class:`~repro.core.session.AcquisitionSession` produces for the
same input — for any batch size, any chunk split, kernel or fallback.
"""

import numpy as np
import pytest

from repro import native
from repro.batch import BatchAcquisitionSession, BatchChainEngine
from repro.core.chain import ReadoutChain
from repro.core.session import AcquisitionSession
from repro.errors import ConfigurationError
from repro.params import DecimationParams, NonidealityParams, SystemParams

TELEMETRY_COUNTERS = (
    "mod_samples_in",
    "bits_out",
    "clipped_samples",
    "words_filtered",
    "words_suppressed",
    "words_delivered",
    "frames_framed",
    "frames_decoded",
)


def make_chain(seed: int, ideal: bool = True) -> ReadoutChain:
    params = SystemParams()
    if ideal:
        params = params.replace(nonideality=NonidealityParams.ideal())
    return ReadoutChain(params, rng=np.random.default_rng(seed))


def pressure_field(n: int, n_elements: int, seed: int = 0) -> np.ndarray:
    t = np.arange(n) / 128e3
    p = 2200.0 * np.sin(2 * np.pi * (1.1 + 0.1 * seed) * t) + 1200.0
    return np.repeat(p[:, None], n_elements, axis=1)


def run_single(seed, field, splits, ideal=True, word_hook=None):
    chain = make_chain(seed, ideal=ideal)
    session = AcquisitionSession(chain, element=1)
    if word_hook is not None:
        chain.fpga.word_hook = word_hook
    off = 0
    for n in splits:
        session.feed_pressure(field[off : off + n])
        off += n
    session.feed_pressure(field[off:])
    session.finish()
    return session


class TestBitIdentity:
    @pytest.mark.parametrize("ideal", [True, False])
    def test_batched_equals_singles(self, ideal):
        """Same codes and counters as B independent sessions."""
        B, n = 3, 1_920
        chains = [make_chain(70 + l, ideal=ideal) for l in range(B)]
        n_el = chains[0].chip.mux.array.n_elements
        fields = [pressure_field(n, n_el, seed=l) for l in range(B)]
        sess = BatchAcquisitionSession(chains, element=1)
        for lo, hi in ((0, 511), (511, 512), (512, n)):
            sess.feed_pressure([f[lo:hi] for f in fields])
        sess.finish()
        for l in range(B):
            ref = run_single(70 + l, fields[l], (640, 640), ideal=ideal)
            assert np.array_equal(sess.codes(l), ref.recording().codes)
            lane = sess.telemetries[l]
            lane.reconcile()
            for counter in TELEMETRY_COUNTERS:
                assert getattr(lane, counter) == getattr(
                    ref.telemetry, counter
                ), counter

    def test_kernel_matches_fallback(self, request):
        """The kernel and the no-native fallback agree bit-for-bit."""
        B, n = 2, 1_280
        n_el = make_chain(0).chip.mux.array.n_elements
        fields = [pressure_field(n, n_el, seed=l) for l in range(B)]

        def run():
            chains = [make_chain(40 + l) for l in range(B)]
            sess = BatchAcquisitionSession(chains, element=1)
            sess.feed_pressure(fields)
            sess.finish()
            return sess.engine.uses_kernel, [sess.codes(l) for l in range(B)]

        used_kernel, kernel_codes = run()
        assert used_kernel == native.available()
        request.getfixturevalue("no_native")
        used_kernel, fallback_codes = run()
        assert not used_kernel
        for got, want in zip(kernel_codes, fallback_codes):
            assert np.array_equal(got, want)

    def test_voltage_path(self):
        """Batched voltage feed equals per-lane single sessions."""
        B, n = 2, 1_280
        t = np.arange(n) / 128e3
        u = np.stack(
            [0.3 * np.sin(2 * np.pi * (50 + 10 * l) * t) for l in range(B)],
            axis=1,
        )
        chains = [make_chain(20 + l) for l in range(B)]
        sess = BatchAcquisitionSession(chains)
        sess.feed_voltage(u[:640])
        sess.feed_voltage(u[640:])
        sess.finish()
        for l in range(B):
            chain = make_chain(20 + l)
            ref = AcquisitionSession(chain)
            ref.feed_voltage(u[:, l])
            ref.finish()
            assert np.array_equal(sess.codes(l), ref.recording().codes)

    def test_lane_hands_back_to_single_session(self):
        """A lane resumes bit-exactly on the single path mid-stream."""
        n = 1_536
        n_el = make_chain(0).chip.mux.array.n_elements
        field = pressure_field(n, n_el)
        ref = run_single(9, field, (n // 2,))

        chain = make_chain(9)
        sess = BatchAcquisitionSession([chain], element=1)
        first = sess.feed_pressure([field[: n // 2]])[0]
        # Hand the chain back: the chain objects hold all cascade state.
        single = AcquisitionSession(chain, element=1)
        single.feed_pressure(field[n // 2 :])
        single.finish()
        combined = np.concatenate([first, single.recording().codes])
        assert np.array_equal(combined, ref.recording().codes)


class TestWordRails:
    def test_word_hook_saturates_to_i16_not_wrap(self):
        """Hook output beyond the i16 rails clamps, exactly like the FPGA."""
        n = 1_280
        n_el = make_chain(0).chip.mux.array.n_elements
        field = pressure_field(n, n_el)

        def hot_hook(codes):
            return codes + 40_000

        chain = make_chain(5)
        chain.fpga.word_hook = hot_hook
        sess = BatchAcquisitionSession([chain], element=1)
        sess.feed_pressure([field])
        sess.finish()
        got = sess.codes(0)
        ref = run_single(5, field, (n // 2,), word_hook=hot_hook)
        assert np.array_equal(got, ref.recording().codes)
        # 12-bit codes + 40000 all exceed the +32767 rail: saturation,
        # never two's-complement wraparound into negative territory.
        assert got.size > 0
        assert np.all(got == 32_767)


class TestValidation:
    def test_shared_chain_object_rejected(self):
        chain = make_chain(0)
        with pytest.raises(ConfigurationError, match="distinct chain"):
            BatchChainEngine([chain, chain])

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            BatchChainEngine([])

    def test_mismatched_decimation_architecture_rejected(self):
        a = make_chain(0)
        b = ReadoutChain(
            SystemParams().replace(
                nonideality=NonidealityParams.ideal(),
                decimation=DecimationParams(fir_taps=16),
            ),
            rng=np.random.default_rng(1),
        )
        with pytest.raises(ConfigurationError, match="decimation arch"):
            BatchChainEngine([a, b])

    def test_mixed_feed_kinds_rejected(self):
        n_el = make_chain(0).chip.mux.array.n_elements
        sess = BatchAcquisitionSession([make_chain(0)], element=1)
        sess.feed_pressure([pressure_field(256, n_el)])
        with pytest.raises(ConfigurationError, match="mix"):
            sess.feed_voltage(np.zeros((256, 1)))

    def test_feed_after_finish_rejected(self):
        sess = BatchAcquisitionSession([make_chain(0)], element=1)
        sess.finish()
        with pytest.raises(ConfigurationError, match="finished"):
            sess.feed_voltage(np.zeros((8, 1)))

    def test_lane_count_and_shape_checked(self):
        n_el = make_chain(0).chip.mux.array.n_elements
        sess = BatchAcquisitionSession(
            [make_chain(0), make_chain(1)], element=1
        )
        with pytest.raises(ConfigurationError, match="expected 2"):
            sess.feed_pressure([pressure_field(64, n_el)])
        with pytest.raises(ConfigurationError, match="same number"):
            sess.feed_pressure(
                [pressure_field(64, n_el), pressure_field(32, n_el)]
            )
        with pytest.raises(ConfigurationError, match="n_samples, n_lanes"):
            sess.feed_voltage(np.zeros(64))

    @pytest.mark.parametrize("bad", [np.float64(1.0), np.zeros(64)])
    def test_field_rank_checked_before_length(self, bad):
        n_el = make_chain(0).chip.mux.array.n_elements
        sess = BatchAcquisitionSession(
            [make_chain(0), make_chain(1)], element=1
        )
        with pytest.raises(ConfigurationError, match="n_samples, n_elements"):
            sess.feed_pressure([bad, pressure_field(64, n_el)])

    def test_out_of_range_pressure_raises_like_single(self):
        """The fused front end defers to the exact per-lane error."""
        from repro.errors import SimulationError

        n_el = make_chain(0).chip.mux.array.n_elements
        field = pressure_field(64, n_el)
        field[10, :] = 1e9  # far beyond the membrane's fitted range
        sess = BatchAcquisitionSession([make_chain(0)], element=1)
        with pytest.raises(SimulationError):
            sess.feed_pressure([field])

    @pytest.mark.parametrize("lane", [0, 5])
    def test_nan_pressure_raises_like_single(self, lane):
        """NaN fails the range check in the fused front end and the
        per-lane replay alike, so it never reaches the modulator."""
        from repro.errors import SimulationError

        n_el = make_chain(0).chip.mux.array.n_elements
        field = pressure_field(12_800, n_el)
        bad = field.copy()
        bad[6000:6100, :] = np.nan
        fields = [bad if l == lane else field for l in range(8)]
        sess = BatchAcquisitionSession(
            [make_chain(l) for l in range(8)], element=1
        )
        with pytest.raises(SimulationError, match="outside transducer range"):
            sess.feed_pressure(fields)


class TestRejectedFeed:
    def test_rejected_feed_leaves_every_lane_as_it_was(self):
        """A feed that a later lane rejects changes no earlier lane.

        Both lanes have just switched to element 1, so each owes its
        first routed sample the charge-injection glitch. A wrong field
        width and a NaN in lane 1 are rejected after lane 0 was routed;
        the retried good feed must still equal two solo sessions.
        """
        from repro.errors import SimulationError

        n = 1_920
        n_el = make_chain(0).chip.mux.array.n_elements
        fields = [pressure_field(n, n_el, seed=l) for l in range(2)]
        chains = [make_chain(80 + l) for l in range(2)]
        sess = BatchAcquisitionSession(chains, element=1)

        def flags():
            return [c.chip.mux._just_switched for c in chains]

        assert flags() == [True, True]
        with pytest.raises(ConfigurationError, match="n_samples, n_elements"):
            sess.feed_pressure([fields[0][:64], fields[1][:64, :-1]])
        assert flags() == [True, True]
        bad = fields[1][:64].copy()
        bad[10] = np.nan
        with pytest.raises(SimulationError, match="outside transducer range"):
            sess.feed_pressure([fields[0][:64], bad])
        assert flags() == [True, True]

        sess.feed_pressure(fields)
        sess.finish()
        for l in range(2):
            ref = run_single(80 + l, fields[l], ())
            assert np.array_equal(sess.codes(l), ref.recording().codes)


def chip_codes(chain, field, element=1):
    """Delivered words of one chunk on the chip -> bitstream -> FPGA path."""
    chain.chip.select_element(element)
    chain.fpga.select_element(element)
    bits = chain.chip.acquire_pressure(field).bitstream
    codes = chain.fpga.filter.process(bits).codes
    return chain.fpga.tail(codes, field.shape[0])


class TestReferencePinned:
    def test_reference_lanes_never_run_a_kernel(self, monkeypatch):
        """backend="reference" holds in a batch: no fused kernel and no
        compiled modulator loop, and the codes equal the chip path's
        reference loop."""
        from repro.batch import kernel as batch_kernel

        def forbidden(*args, **kwargs):
            raise AssertionError("a reference-pinned lane ran compiled code")

        monkeypatch.setattr(batch_kernel, "run_batch_chunk", forbidden)
        monkeypatch.setattr(batch_kernel, "run_bits", forbidden)

        def chains():
            return [
                ReadoutChain(rng=np.random.default_rng(60 + l),
                             backend="reference")
                for l in range(2)
            ]

        n_el = make_chain(0).chip.mux.array.n_elements
        fields = [pressure_field(2_000, n_el, seed=l) for l in range(2)]
        sess = BatchAcquisitionSession(chains(), element=1)
        assert not sess.engine.uses_kernel
        sess.feed_pressure(fields)
        for l, chain in enumerate(chains()):
            assert np.array_equal(sess.codes(l), chip_codes(chain, fields[l]))


class TestBoundedStaging:
    @pytest.mark.skipif(not native.available(), reason="no C compiler")
    @pytest.mark.parametrize("lanes", [1, 2])
    def test_staging_does_not_grow_with_chunk_length(self, lanes):
        """Chunks longer than STAGE_SAMPLES run as slices, so the staging
        rows stop at STAGE_SAMPLES for a solo and a batch session."""
        from repro.batch.engine import STAGE_SAMPLES
        from repro.batch.kernel import pad_lanes

        chains = [make_chain(l, ideal=False) for l in range(lanes)]
        n_el = chains[0].chip.mux.array.n_elements
        if lanes == 1:
            session = AcquisitionSession(chains[0], element=1)
            engine = session.engine

            def feed(field):
                session.feed_pressure(field)
        else:
            session = BatchAcquisitionSession(chains, element=1)
            engine = session.engine

            def feed(field):
                session.feed_pressure([field] * lanes)

        feed(pressure_field(128_000, n_el))
        one_second = engine.staging_nbytes
        feed(pressure_field(512_000, n_el))
        assert engine.staging_nbytes == one_second
        # au and noise rows (no DAC noise here), the shared zero row and
        # two jitter scratch rows per staging thread.
        rows = 2 * pad_lanes(lanes) + 1 + 2 * engine.staging_threads
        assert one_second == rows * STAGE_SAMPLES * 8
