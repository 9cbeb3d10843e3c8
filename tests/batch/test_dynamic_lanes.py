"""Dynamic lane membership: devices join and leave a running batch.

The gateway-facing lifecycle the batch plane needs: a fleet is already
streaming when a new device connects (attach at a shared decimation
boundary) or an existing one drops (detach at any chunk boundary). The
contract is the same bit-identity the static batch guarantees — every
lane's codes match a solo :class:`~repro.core.session.AcquisitionSession`
fed the same samples over the lane's membership window, and a detached
chain resumes solo processing (or rejoins) bit-exactly.
"""

import numpy as np
import pytest

from repro.batch import BatchAcquisitionSession, BatchChainEngine
from repro.core.chain import ReadoutChain
from repro.core.session import AcquisitionSession
from repro.errors import ConfigurationError
from repro.params import NonidealityParams, SystemParams


def make_chain(seed: int) -> ReadoutChain:
    params = SystemParams().replace(nonideality=NonidealityParams.ideal())
    return ReadoutChain(params, rng=np.random.default_rng(seed))


def lane_voltage(n: int, lane: int, offset: int = 0) -> np.ndarray:
    t = (np.arange(n) + offset) / 128e3
    return 0.25 * np.sin(2 * np.pi * (40.0 + 17.0 * lane) * t) + 0.01 * lane


def solo_codes(lane: int, u: np.ndarray) -> np.ndarray:
    ref = AcquisitionSession(make_chain(lane))
    ref.feed_voltage(u)
    ref.finish()
    return ref.recording().codes


class TestAttach:
    def test_join_mid_stream_is_bit_identical(self):
        D = make_chain(0).fpga.filter.params.total_decimation
        n1, n2 = 4 * D, 3 * D
        sess = BatchAcquisitionSession([make_chain(0), make_chain(1)])
        sess.feed_voltage(
            np.stack([lane_voltage(n1, l) for l in range(2)], axis=1)
        )
        # The batch sits at a decimation boundary: a fresh chain joins.
        lane = sess.attach_lane(make_chain(2))
        assert lane == 2
        u2 = np.stack(
            [lane_voltage(n2, 0, n1), lane_voltage(n2, 1, n1),
             lane_voltage(n2, 2)],
            axis=1,
        )
        sess.feed_voltage(u2)
        sess.finish()

        for l in range(2):
            full = np.concatenate(
                [lane_voltage(n1, l), lane_voltage(n2, l, n1)]
            )
            assert np.array_equal(sess.codes(l), solo_codes(l, full))
        assert np.array_equal(sess.codes(2), solo_codes(2, lane_voltage(n2, 2)))
        for tm in sess.telemetries:
            tm.reconcile()

    def test_join_off_phase_is_rejected(self):
        sess = BatchAcquisitionSession([make_chain(0)])
        D = sess.chains[0].fpga.filter.params.total_decimation
        sess.feed_voltage(lane_voltage(D + 1, 0).reshape(-1, 1))
        with pytest.raises(ConfigurationError, match="decimation phase"):
            sess.attach_lane(make_chain(1))

    def test_duplicate_chain_is_rejected(self):
        chain = make_chain(0)
        engine = BatchChainEngine([chain])
        with pytest.raises(ConfigurationError, match="already a lane"):
            engine.attach_lane(chain)


class TestDetach:
    def test_detached_chain_continues_solo_bit_exactly(self):
        D = make_chain(0).fpga.filter.params.total_decimation
        n1, n2 = 5 * D, 4 * D
        sess = BatchAcquisitionSession(
            [make_chain(0), make_chain(1), make_chain(2)]
        )
        sess.feed_voltage(
            np.stack([lane_voltage(n1, l) for l in range(3)], axis=1)
        )
        chain, rec = sess.detach_lane(1)
        # The departed lane's books are closed at the boundary...
        assert np.array_equal(rec.codes, solo_codes(1, lane_voltage(n1, 1)))
        # ...and its chain keeps running solo, bit-exactly.
        solo = AcquisitionSession(chain)
        solo.feed_voltage(lane_voltage(n2, 1, n1))
        solo.finish()
        full = np.concatenate(
            [lane_voltage(n1, 1), lane_voltage(n2, 1, n1)]
        )
        assert np.array_equal(
            np.concatenate([rec.codes, solo.recording().codes]),
            solo_codes(1, full),
        )
        # The survivors never notice.
        sess.feed_voltage(
            np.stack(
                [lane_voltage(n2, 0, n1), lane_voltage(n2, 2, n1)], axis=1
            )
        )
        sess.finish()
        for lane, l in ((0, 0), (1, 2)):
            full = np.concatenate(
                [lane_voltage(n1, l), lane_voltage(n2, l, n1)]
            )
            assert np.array_equal(sess.codes(lane), solo_codes(l, full))

    def test_detached_lane_stays_in_aggregate(self):
        """A departed lane's words and frames still count fleet-wide,
        and its books are reconciled when it leaves."""
        n = 12_817
        sess = BatchAcquisitionSession(
            [make_chain(0), make_chain(1), make_chain(2)]
        )
        sess.feed_voltage(
            np.stack([lane_voltage(n, l) for l in range(3)], axis=1)
        )
        _, rec = sess.detach_lane(1)
        sess.finish()
        total = sess.aggregate_telemetry()
        sizes = [rec.codes.size] + [
            sess.codes(l).size for l in range(sess.lanes)
        ]
        assert total.words_delivered == sum(sizes)
        assert total.mod_samples_in == 3 * n
        # Every lane's last, partial frame is counted, the departed
        # lane's at its detach.
        frames = sum(-(-size // 64) for size in sizes)
        assert total.frames_framed == total.frames_decoded == frames

    def test_detach_after_element_switch(self):
        """Lanes switched mid-session close their books at detach: the
        residue identity follows the filter reset."""
        chains = [make_chain(0), make_chain(1)]
        sess = BatchAcquisitionSession(chains, element=0)
        field = np.full((129, 4), 2500.0)
        sess.feed_pressure([field, field])
        for c in chains:
            c.chip.select_element(3)
            c.fpga.select_element(3)
        sess.feed_pressure([field, field])
        chain, rec = sess.detach_lane(0)
        assert chain is chains[0]
        # Two words per run; the second run's fall in the post-switch
        # suppression window.
        assert rec.codes.size == 2
        sess.finish()
        sess.telemetries[0].reconcile(lossless=True)

    def test_rejoin_after_detach(self):
        D = make_chain(0).fpga.filter.params.total_decimation
        n = 3 * D
        sess = BatchAcquisitionSession([make_chain(0), make_chain(1)])
        sess.feed_voltage(
            np.stack([lane_voltage(n, l) for l in range(2)], axis=1)
        )
        chain, _ = sess.detach_lane(1)
        sess.feed_voltage(lane_voltage(n, 0, n).reshape(-1, 1))
        lane = sess.attach_lane(chain)
        sess.feed_voltage(
            np.stack(
                [lane_voltage(n, 0, 2 * n), lane_voltage(n, 1, n)], axis=1
            )
        )
        sess.finish()
        full0 = np.concatenate(
            [lane_voltage(n, 0), lane_voltage(n, 0, n),
             lane_voltage(n, 0, 2 * n)]
        )
        assert np.array_equal(sess.codes(0), solo_codes(0, full0))
        # The rejoined lane's second stint continues its own cascade
        # state, so compare against one solo run over both stints.
        ref = AcquisitionSession(make_chain(1))
        ref.feed_voltage(lane_voltage(n, 1))
        ref.feed_voltage(lane_voltage(n, 1, n))
        ref.finish()
        whole = ref.recording().codes
        stint2 = sess.codes(lane)
        assert np.array_equal(stint2, whole[len(whole) - len(stint2):])

    def test_last_lane_cannot_detach(self):
        engine = BatchChainEngine([make_chain(0)])
        with pytest.raises(ConfigurationError, match="last lane"):
            engine.detach_lane(0)

    def test_bad_lane_index(self):
        engine = BatchChainEngine([make_chain(0), make_chain(1)])
        with pytest.raises(ConfigurationError, match="no lane"):
            engine.detach_lane(5)
