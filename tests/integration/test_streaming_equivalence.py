"""Streaming invariants across the full digital path.

The second half is the PR's core equivalence property: an
:class:`~repro.core.session.AcquisitionSession` fed any random chunking
of a record produces output bit-identical to the one-shot batch path,
for the pressure, voltage and bank-scan acquisitions, on both
modulator backends (noise, jitter and mismatch all enabled).
"""

import numpy as np
import pytest

from repro.core.chain import ReadoutChain
from repro.daq.fpga import FPGAFilterBank
from repro.daq.stream import SampleStream
from repro.daq.usb import FrameDecoder
from repro.dsp.decimator import DecimationFilter
from repro.faults import FAULT_KINDS, FaultInjector, FaultSpec
from repro.params import NonidealityParams, SystemParams
from tests.helpers import field_segments


def random_bits(n, seed=0):
    return np.random.default_rng(seed).choice([-1, 1], size=n).astype(np.int64)


def random_splits(n, seed, min_first=2):
    """Random chunk sizes summing to n, first chunk >= ``min_first``.

    The first chunk must hold >= 2 samples so the stream's first jitter
    slope is defined the same way as in the batch path (slope[0] is
    copied from slope[1] at a stream start).
    """
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(min_first, n), size=5, replace=False))
    edges = np.concatenate([[0], cuts, [n]])
    return np.diff(edges)


def make_chain(backend, seed=11):
    return ReadoutChain(rng=np.random.default_rng(seed), backend=backend)


def sine_field(n, n_elements=4):
    """Membrane-pressure field: DC hold-down + pulsatile sines."""
    t = np.arange(n) / 128000.0
    phases = np.linspace(0.0, np.pi, n_elements)
    return 2500.0 + 600.0 * np.sin(
        2 * np.pi * 8.0 * t[:, None] + phases[None, :]
    )


class TestFilterStreaming:
    @pytest.mark.parametrize("chunks", [[8192], [100, 8092], [1, 127, 8064]])
    def test_decimator_chunking_invariant(self, chunks):
        bits = random_bits(8192, seed=5)
        whole = DecimationFilter().process(bits).codes
        filt = DecimationFilter()
        out = []
        start = 0
        for c in chunks:
            out.append(filt.process(bits[start : start + c]).codes)
            start += c
        assert np.array_equal(np.concatenate(out), whole)


class TestFPGAToHost:
    def test_full_digital_path_preserves_codes(self):
        """FPGA filter -> frames -> decoder -> stream reproduces exactly
        the codes the bare filter computes."""
        bits = random_bits(128 * 200, seed=6)
        bare = DecimationFilter().process(bits).codes

        fpga = FPGAFilterBank(samples_per_frame=32, flush_words_on_switch=0)
        payload = b""
        for i in range(0, bits.size, 1000):
            payload += fpga.process(bits[i : i + 1000])
        payload += fpga.flush()
        decoder = FrameDecoder()
        stream = SampleStream()
        stream.ingest(decoder.feed(payload))
        got = stream.samples(0).astype(np.int64)
        assert np.array_equal(got, bare)
        assert decoder.lost_frames == 0
        assert decoder.crc_errors == 0

    def test_path_survives_fragmented_delivery(self):
        bits = random_bits(128 * 50, seed=7)
        fpga = FPGAFilterBank(samples_per_frame=16, flush_words_on_switch=0)
        payload = fpga.process(bits) + fpga.flush()
        decoder = FrameDecoder()
        stream = SampleStream()
        rng = np.random.default_rng(8)
        i = 0
        while i < len(payload):
            step = int(rng.integers(1, 17))
            stream.ingest(decoder.feed(payload[i : i + step]))
            i += step
        assert stream.sample_count(0) == 50


@pytest.mark.parametrize("backend", ["fast", "reference"])
class TestSessionChunkingEquivalence:
    """Chunked sessions == batch path, bit for bit, both backends.

    Noise, clock jitter and DAC mismatch are all left at the paper
    defaults: the per-term RNG streams make every stochastic draw a
    function of the cumulative sample index, not of the chunking.
    """

    N = 128 * 50  # 50 output words per acquisition

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pressure_chunked_matches_batch(self, backend, seed):
        field = sine_field(self.N)
        batch = make_chain(backend).record_pressure(field, element=2)

        session = make_chain(backend).session(element=2)
        start = 0
        for size in random_splits(self.N, seed):
            session.feed_pressure(field[start : start + size])
            start += size
        chunked = session.recording()
        assert np.array_equal(chunked.codes, batch.codes)
        session.telemetry.reconcile(lossless=True)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_voltage_chunked_matches_batch(self, backend, seed):
        t = np.arange(self.N) / 128000.0
        stimulus = 0.3 * np.sin(2 * np.pi * 15.625 * t)
        batch = make_chain(backend).record_voltage(stimulus)

        session = make_chain(backend).session()
        start = 0
        for size in random_splits(self.N, seed):
            session.feed_voltage(stimulus[start : start + size])
            start += size
        chunked = session.recording()
        assert np.array_equal(chunked.codes, batch.codes)
        session.telemetry.reconcile(lossless=True)

    @pytest.mark.parametrize("start", [0, 2])
    @pytest.mark.parametrize("ideal", [False, True], ids=["noisy", "ideal"])
    def test_batched_scan_matches_chunked_sessions(
        self, backend, ideal, start
    ):
        """The bank scan == the chip/FPGA reference, visit by visit.

        ``scan_records(batched=True)`` converts every element's dwell
        window from the pre-scan modulator state. Replaying that through
        :func:`chip_path` — restore the snapshot, select the element,
        convert its window in random chunks, decode — must give the same
        words and leave the chain in the same state.
        """
        from repro.array.scan import ScanController

        dwell = 128 * 16
        n_el = 4
        field = sine_field(dwell * n_el)
        params = SystemParams()
        if ideal:
            params = params.replace(nonideality=NonidealityParams.ideal())
        scanned, ref = (
            ReadoutChain(params, rng=np.random.default_rng(11), backend=backend)
            for _ in range(2)
        )
        for c in (scanned, ref):
            # A prefix on the start element leaves the modulator, RNG
            # streams, filter and framer mid-stream.
            c.record_pressure(sine_field(1000), element=start)

        records = ScanController(scanned.chip.mux).scan_records(
            scanned, field_segments(field, dwell), batched=True
        )

        saved = ref.chip.state_snapshot()
        columns = []
        for k in range(n_el):
            ref.chip.restore_state(saved)
            window = field[k * dwell : (k + 1) * dwell]
            chunks = split(window, random_splits(dwell, start + k))
            stream, _ = chip_path(ref, chunks, "pressure", switches={0: k})
            columns.append(stream.samples(k).astype(float) / 2048.0)
        ref.chip.restore_state(saved)
        n = min(c.size for c in columns)
        assert records.shape == (n, n_el)
        assert np.array_equal(
            records, np.column_stack([c[:n] for c in columns])
        )
        assert chain_state(scanned) == chain_state(ref)


def chip_path(chain, chunks, kind, switches=None, faults=None):
    """The solo data path without the fused chain: chip -> bitstream ->
    ``FPGAFilterBank.process`` -> frames -> decoder -> stream.

    ``switches`` maps a chunk index to the element selected before it.
    ``faults`` is a :class:`~repro.faults.FaultInjector` whose hooks are
    applied here by hand, each at its own layer. Returns the host stream
    (every element's samples) and the decoder.
    """
    if faults is not None:
        faults.bind(chain)
        chain.chip.loop_input_hook = faults.apply_loop_input
        chain.fpga.word_hook = faults.apply_words
    wire = faults.apply_payload if faults is not None else (lambda p: p)
    payload = b""
    for i, chunk in enumerate(chunks):
        if switches and i in switches:
            chain.chip.select_element(switches[i])
            chain.fpga.select_element(switches[i])
        if kind == "pressure":
            if faults is not None:
                chunk = faults.apply_array(chunk)
            out = chain.chip.acquire_pressure(chunk)
        else:
            out = chain.chip.acquire_voltage(chunk)
        bits = out.bitstream
        if faults is not None:
            bits = faults.apply_bitstream(bits)
        payload += wire(chain.fpga.process(bits.astype(np.int64)))
    payload += wire(chain.fpga.flush())
    if faults is not None:
        chain.chip.loop_input_hook = chain.fpga.word_hook = None
    decoder = FrameDecoder()
    stream = SampleStream(
        sample_rate_hz=chain.output_rate_hz,
        samples_per_frame=chain.fpga.encoder.samples_per_frame,
    )
    stream.ingest(decoder.feed(payload) + decoder.finalize())
    return stream, decoder


def engine_path(chain, chunks, kind, switches=None):
    """The same chunks through an :class:`AcquisitionSession`."""
    session = chain.session()
    assert session.engine is not None
    for i, chunk in enumerate(chunks):
        if switches and i in switches:
            chain.chip.select_element(switches[i])
            chain.fpga.select_element(switches[i])
        if kind == "pressure":
            session.feed_pressure(chunk)
        else:
            session.feed_voltage(chunk)
    session.finish()
    session.telemetry.reconcile(lossless=True)
    return session


def chain_state(chain):
    """Everything a later chunk (solo or batched) reads from the chain."""
    m = chain.chip.modulator
    fpga = chain.fpga
    filt = fpga.filter
    return {
        "x": (m.stage1.state, m.stage2.state),
        "comparator": m.comparator._previous,
        "last_input": m._last_input,
        "rng": [
            g.bit_generator.state
            for g in (m.rng, m._jitter_rng, m._noise_rng, m._dac_rng)
        ],
        "cic": (
            filt.cic._integrators.tolist(),
            filt.cic._combs.tolist(),
            filt.cic._phase,
        ),
        "fir": (filt.fir._history.tolist(), filt.fir._phase),
        "fpga": (
            fpga.samples_in,
            fpga.words_filtered,
            fpga.words_suppressed,
            fpga.filter_resets,
            fpga._suppress,
            fpga.selected_element,
        ),
        "encoder": (
            fpga.encoder.frames_emitted,
            fpga.encoder.pending_samples,
        ),
        "mux": (chain.chip.mux._selected, chain.chip.mux._just_switched),
    }


def split(data, sizes):
    """Consecutive chunks of ``data`` with the given sizes (remainder last)."""
    edges = np.cumsum([0] + list(sizes))
    chunks = [data[a:b] for a, b in zip(edges[:-1], edges[1:])]
    if edges[-1] < len(data):
        chunks.append(data[edges[-1]:])
    return chunks


#: Chunk splits: single samples, chunks crossing several decimation
#: boundaries (R = 128), and one longer than the engine's staging slice.
SPLITS = {
    "single-samples": [1, 1, 1, 125, 1, 127],
    "decimation-crossing": [300, 129, 1000, 2047],
    "beyond-staging": [17, 40_000],
}


class TestSoloEnginePath:
    """A solo session's fused one-lane chain == the chip/FPGA path.

    Codes for every element and the whole chain state afterwards
    (modulator, RNG streams, CIC/FIR, FPGA counters, framer, mux) must
    agree, so the chain can continue on ``chip.acquire_pressure`` or
    join a batch lane bit-exactly.
    """

    N = 128 * 400

    def chains(self, nonideality=None, seed=21, backend="fast"):
        params = SystemParams()
        if nonideality is not None:
            params = params.replace(nonideality=nonideality)
        return [
            ReadoutChain(
                params, rng=np.random.default_rng(seed), backend=backend
            )
            for _ in range(2)
        ]

    def check(self, a, b, chunks, kind, switches=None, elements=(1,)):
        for c in (a, b):
            c.chip.select_element(elements[0])
            c.fpga.select_element(elements[0])
        stream, _ = chip_path(a, chunks, kind, switches)
        session = engine_path(b, chunks, kind, switches)
        for e in elements:
            assert np.array_equal(stream.samples(e), session.stream.samples(e))
        assert stream.samples(elements[0]).size > 0
        assert chain_state(a) == chain_state(b)
        # Both chains continue bit-exactly on the chip path.
        more = sine_field(3000)
        ca = a.chip.acquire_pressure(more).bitstream
        cb = b.chip.acquire_pressure(more).bitstream
        assert np.array_equal(ca, cb)
        return session

    @pytest.mark.parametrize("splits", list(SPLITS), ids=list(SPLITS))
    @pytest.mark.parametrize("ideal", [False, True], ids=["noisy", "ideal"])
    def test_chunk_splits(self, splits, ideal):
        nonideality = NonidealityParams.ideal() if ideal else None
        a, b = self.chains(nonideality)
        chunks = split(sine_field(self.N), SPLITS[splits])
        self.check(a, b, chunks, "pressure")

    def test_comparator_offset_and_hysteresis(self):
        a, b = self.chains(
            NonidealityParams(
                comparator_offset_v=3e-3, comparator_hysteresis_v=5e-3
            )
        )
        chunks = split(sine_field(self.N), [5000, 777])
        self.check(a, b, chunks, "pressure")

    def test_element_switch_mid_stream(self):
        """Charge injection on the new element's first sample and the
        FPGA's post-switch suppression window, on both paths."""
        a, b = self.chains()
        chunks = split(sine_field(self.N), [4000, 2500, 130, 9000])
        self.check(
            a, b, chunks, "pressure", switches={2: 3, 4: 0},
            elements=(1, 3, 0),
        )

    def test_word_and_loop_input_hooks(self):
        """A loop-input hook forces the NumPy front end; the word hook
        runs in the FPGA tail and its output is saturated to i16."""
        a, b = self.chains()
        for c in (a, b):
            c.chip.loop_input_hook = lambda u: 0.9 * u
            c.fpga.word_hook = lambda w: w * 40
        chunks = split(sine_field(self.N), [3000, 6000])
        self.check(a, b, chunks, "pressure")

    @pytest.mark.parametrize("ideal", [False, True], ids=["noisy", "ideal"])
    def test_voltage_path(self, ideal):
        a, b = self.chains(NonidealityParams.ideal() if ideal else None)
        t = np.arange(self.N) / 128000.0
        v = 0.3 * np.sin(2 * np.pi * 15.625 * t)
        self.check(a, b, split(v, [1, 4095, 20_000]), "voltage")

    def test_reference_backend_fallback(self):
        a, b = self.chains(backend="reference")
        chunks = split(sine_field(128 * 60), [1000, 3000])
        session = self.check(a, b, chunks, "pressure")
        assert not session.engine.uses_kernel

    def test_no_compiler(self, no_native):
        a, b = self.chains()
        chunks = split(sine_field(128 * 60), [1, 2000, 3000])
        session = self.check(a, b, chunks, "pressure")
        assert not session.engine.uses_kernel


#: A fault magnitude per kind that visibly degrades the record.
FAULT_MAGNITUDES = {
    "capacitance_drift": 30_000.0,
    "sdm_saturation": 1.5,
    "word_corruption": 1024.0,
    "frame_truncation": 0.5,
}


def injector(kind, duration_s):
    """One pinned event plus a Poisson process of ``kind``."""
    magnitude = FAULT_MAGNITUDES.get(kind, 1.0)
    return FaultInjector(
        [
            FaultSpec(kind, start_s=0.08, duration_s=0.05, magnitude=magnitude),
            FaultSpec(kind, rate_hz=8.0, duration_s=0.03, magnitude=magnitude),
        ],
        seed=9,
        horizon_s=duration_s,
    )


class TestFaultedSessionPath:
    """A faulted session == the chip/FPGA path with the injector's hooks
    applied by hand, for every fault kind, chunk split and backend.

    The session runs its faults on the engine path (array faults before
    the engine, loop-input and bitstream taps inside it, word faults in
    the FPGA tail, link faults on the USB link); the reference is the
    chip -> bitstream -> ``FPGAFilterBank.process`` path.
    """

    DURATION_S = 0.3

    def run_both(self, kind, backend, n_chunks, element=1):
        field = sine_field(int(self.DURATION_S * 128_000))
        chunks = np.array_split(field, n_chunks)
        a, b = (make_chain(backend, seed=31) for _ in range(2))
        for c in (a, b):
            c.chip.select_element(element)
            c.fpga.select_element(element)
        ref_faults = injector(kind, self.DURATION_S)
        stream, decoder = chip_path(a, chunks, "pressure", faults=ref_faults)
        faults = injector(kind, self.DURATION_S)
        session = b.session(faults=faults)
        for chunk in chunks:
            session.feed_pressure(chunk)
        rec = session.recording()
        return a, b, stream, decoder, ref_faults, session, rec

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    @pytest.mark.parametrize("n_chunks", [1, 5, 13])
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_matches_chip_path(self, kind, n_chunks, backend):
        a, b, stream, decoder, ref_faults, session, rec = self.run_both(
            kind, backend, n_chunks
        )
        assert session.faults.events_applied > 0
        assert session.faults.applied == ref_faults.applied
        assert np.array_equal(rec.codes, stream.samples(1))
        assert rec.lost_frames == decoder.lost_frames
        assert rec.crc_errors == decoder.crc_errors
        assert rec.lost_samples == stream.lost_samples(1)
        assert session.stream.gaps(1) == stream.gaps(1)
        assert session.decoder.stale_frames == decoder.stale_frames
        assert session.decoder.resync_bytes == decoder.resync_bytes
        assert chain_state(a) == chain_state(b)
        session.telemetry.reconcile()
        assert b.chip.loop_input_hook is None
        assert b.chip.bitstream_hook is None
        assert b.fpga.word_hook is None

    def test_no_chip_or_fpga_process_calls(self, monkeypatch):
        """Faulted solo sessions never call the chip's acquisition paths
        or ``FPGAFilterBank.process``: they run the engine."""
        from repro.core.chip import SensorChip

        expected = {}
        for kind in ("stuck_comparator", "element_dropout", "frame_drop"):
            stream = self.run_both(kind, "fast", 5)[2]
            expected[kind] = stream.samples(1)
        t = np.arange(128 * 200) / 128000.0
        v = 0.3 * np.sin(2 * np.pi * 15.625 * t)
        ref_v, _ = chip_path(
            make_chain("fast"), [v], "voltage",
            faults=injector("stuck_comparator", 0.2),
        )

        def boom(*args, **kwargs):
            raise AssertionError("faulted session left the engine path")

        monkeypatch.setattr(SensorChip, "acquire_pressure", boom)
        monkeypatch.setattr(SensorChip, "acquire_voltage", boom)
        monkeypatch.setattr(FPGAFilterBank, "process", boom)
        for kind, codes in expected.items():
            field = sine_field(int(self.DURATION_S * 128_000))
            chain = make_chain("fast", seed=31)
            session = chain.session(
                element=1, faults=injector(kind, self.DURATION_S)
            )
            for chunk in np.array_split(field, 5):
                session.feed_pressure(chunk)
            assert np.array_equal(session.recording().codes, codes)
        session = make_chain("fast").session(
            faults=injector("stuck_comparator", 0.2)
        )
        session.feed_voltage(v)
        assert np.array_equal(
            session.recording().codes, ref_v.samples(session.element)
        )
