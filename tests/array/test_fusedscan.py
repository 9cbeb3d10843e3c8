"""Fused N x N scan: bit-identity, fallback, and scan orientation."""

import numpy as np
import pytest

from repro.array.imaging import amplitude_image
from repro.array.scan import ScanController
from repro.batch import batch_kernel_available
from repro.core.chain import ReadoutChain
from repro.params import ArrayParams, NonidealityParams, SystemParams

DECIMATION = 128
DWELL_WORDS = 12
# Scan records are post-suppression for switched elements (the FPGA
# discards 8 words after each mux switch), but element 0 starts from
# reset and keeps its whole dwell — its CIC startup transient sits in
# the first words of the record matrix.  Drop the full 9-word settling
# budget so every column is clean.
SETTLE_EXTRA = 9
ORIENT_DWELL_WORDS = 24


def make_chain(rows, cols, ideal=True):
    base = SystemParams()
    nonideality = NonidealityParams.ideal() if ideal else base.nonideality
    params = base.replace(
        array=ArrayParams(rows=rows, cols=cols, membrane=base.array.membrane),
        nonideality=nonideality,
    )
    return ReadoutChain(params)


def tone_segments(n_elements, dwell, amplitudes=None):
    """Per-element dwell pressure: one tone, optionally amplitude-coded."""
    t = np.arange(dwell) / 128e3
    if amplitudes is None:
        amplitudes = np.full(n_elements, 2000.0)
    phases = 0.05 * np.arange(n_elements)
    return np.asarray(amplitudes)[:, None] * np.sin(
        2 * np.pi * 40.0 * t[None, :] + phases[:, None]
    )


def fused_records(rows, cols, segments):
    chain = make_chain(rows, cols)
    controller = ScanController(chain.chip.mux)
    records = controller.scan_records(chain, segments=segments, fused=True)
    return records, controller


class TestBitIdentity:
    def test_fused_equals_batched(self):
        """The fused kernel pass must replay the batched scan exactly."""
        rows, cols = 3, 3
        segments = tone_segments(rows * cols, DWELL_WORDS * DECIMATION)
        fused, controller = fused_records(rows, cols, segments)

        chain = make_chain(rows, cols)
        ref_controller = ScanController(chain.chip.mux)
        batched = ref_controller.scan_records(
            chain, segments=segments, batched=True
        )
        n = min(fused.shape[0], batched.shape[0])
        assert np.array_equal(fused[:n], batched[:n])
        if batch_kernel_available():
            assert controller.last_scan_fused

    def test_fused_without_native_equals_batched(self, no_native):
        """No native library: the fused request replays the batched scan."""
        rows, cols = 3, 3
        segments = tone_segments(rows * cols, DWELL_WORDS * DECIMATION)
        fused, controller = fused_records(rows, cols, segments)
        assert controller.last_scan_fused is False

        chain = make_chain(rows, cols)
        batched = ScanController(chain.chip.mux).scan_records(
            chain, segments=segments, batched=True
        )
        assert np.array_equal(fused, batched)

    def test_fused_equals_sequential_sessions(self):
        """Matched-bank semantics: each element from the pre-scan state."""
        rows, cols = 2, 2
        n_el = rows * cols
        dwell = DWELL_WORDS * DECIMATION
        segments = tone_segments(n_el, dwell)
        fused, _ = fused_records(rows, cols, segments)

        chain = make_chain(rows, cols)
        saved = chain.chip.state_snapshot()
        field = np.zeros((dwell, n_el))
        columns = []
        for k in range(n_el):
            chain.chip.restore_state(saved)
            session = chain.session(element=k)
            field[:, k] = segments[k]
            session.feed_pressure(field)
            field[:, k] = 0.0
            columns.append(session.recording().values)
        n = min(fused.shape[0], min(c.size for c in columns))
        reference = np.column_stack([c[:n] for c in columns])
        assert np.array_equal(fused[:n], reference)


class TestDomain:
    @pytest.mark.parametrize("fused", [True, False])
    def test_nan_pressure_raises(self, fused):
        """A NaN sample fails the range check on the fused and the
        batched scan alike instead of pinning an element at -2048."""
        from repro.errors import SimulationError

        rows, cols = 3, 3
        segments = tone_segments(rows * cols, DWELL_WORDS * DECIMATION)
        segments[4, 100:200] = np.nan
        chain = make_chain(rows, cols)
        controller = ScanController(chain.chip.mux)
        with pytest.raises(SimulationError, match="outside transducer range"):
            controller.scan_records(
                chain, segments=segments, batched=not fused, fused=fused
            )


class TestFallback:
    def test_noisy_chain_falls_back_to_batched(self):
        """Outside the kernel envelope the scan still completes."""
        chain = make_chain(2, 2, ideal=False)
        controller = ScanController(chain.chip.mux)
        segments = tone_segments(4, DWELL_WORDS * DECIMATION)
        records = controller.scan_records(chain, segments=segments, fused=True)
        assert not controller.last_scan_fused
        assert records.ndim == 2 and records.shape[1] == 4

    def test_reference_pinned_chain_runs_no_compiled_code(self, monkeypatch):
        """backend="reference" holds in a fused scan request: the scan
        declines the fused kernel and replays the batched reference scan."""
        from repro.array import fused_scan_supported
        from repro.batch import kernel as batch_kernel

        def forbidden(*args, **kwargs):
            raise AssertionError("a reference-pinned scan ran compiled code")

        monkeypatch.setattr(batch_kernel, "run_batch_chunk", forbidden)

        def pinned():
            base = make_chain(2, 2)
            return ReadoutChain(base.params, backend="reference")

        segments = tone_segments(4, DWELL_WORDS * DECIMATION)
        chain = pinned()
        assert not fused_scan_supported(chain)
        controller = ScanController(chain.chip.mux)
        fused = controller.scan_records(chain, segments=segments, fused=True)
        assert not controller.last_scan_fused

        chain = pinned()
        batched = ScanController(chain.chip.mux).scan_records(
            chain, segments=segments, batched=True
        )
        assert np.array_equal(fused, batched)

    @pytest.mark.parametrize("hook", ["loop_input", "bitstream"])
    def test_chip_hooks_decline_the_fused_kernel(self, hook):
        """The kernel stages neither chip hook, so a hooked chain runs
        the bank scan, which honours it."""
        hooks = {
            "loop_input": lambda u: u + 0.3,
            "bitstream": lambda bits: np.ones_like(bits),
        }

        def hooked():
            chain = make_chain(2, 2)
            setattr(chain.chip, f"{hook}_hook", hooks[hook])
            return chain

        segments = tone_segments(4, 4096)
        chain = hooked()
        controller = ScanController(chain.chip.mux)
        fused = controller.scan_records(chain, segments=segments, fused=True)
        assert not controller.last_scan_fused

        chain = hooked()
        batched = ScanController(chain.chip.mux).scan_records(
            chain, segments=segments, batched=True
        )
        assert np.array_equal(fused, batched)


class TestNonSquareOrientation:
    """Row-major orientation pinned through scan -> select -> image."""

    @pytest.mark.parametrize("rows,cols", [(2, 3), (8, 4)])
    def test_hot_element_lands_at_rowcol(self, rows, cols):
        n_el = rows * cols
        hot_row, hot_col = rows - 1, 1
        hot = hot_row * cols + hot_col
        amplitudes = np.full(n_el, 200.0)
        amplitudes[hot] = 3000.0
        segments = tone_segments(
            n_el, ORIENT_DWELL_WORDS * DECIMATION, amplitudes
        )
        records, controller = fused_records(rows, cols, segments)
        settled = records[SETTLE_EXTRA:]

        selection = controller.select_strongest(settled, metric="std")
        assert selection.best_index == hot
        assert (selection.best_row, selection.best_col) == (hot_row, hot_col)
        assert selection.amplitude_map.shape == (rows, cols)
        amp_map = amplitude_image(settled, rows, cols, metric="std")
        assert np.unravel_index(np.argmax(amp_map), amp_map.shape) == (
            hot_row,
            hot_col,
        )

    def test_peak_to_peak_picks_hot_quadrant(self):
        rows, cols = 2, 3
        n_el = rows * cols
        amplitudes = np.full(n_el, 200.0)
        amplitudes[1 * cols + 2] = 3000.0  # last row, +x column
        segments = tone_segments(
            n_el, ORIENT_DWELL_WORDS * DECIMATION, amplitudes
        )
        records, controller = fused_records(rows, cols, segments)
        selection = controller.select_strongest(records[SETTLE_EXTRA:])
        assert (selection.best_row, selection.best_col) == (1, 2)
        # Row index grows toward +y in array coordinates.
        x, y = controller.array.geometry.element_centers_m()[
            selection.best_index
        ]
        assert x > 0 and y > 0


def scan(chain, segments, fused):
    """One scan of ``chain``: fused, or the bank scan it must equal."""
    controller = ScanController(chain.chip.mux)
    records = controller.scan_records(
        chain, segments=segments, batched=not fused, fused=fused
    )
    return records, controller.last_scan_fused


def frame(k, n_elements=9, dwell=DWELL_WORDS * DECIMATION):
    """Scan k's segments: a different stimulus on every frame."""
    amplitudes = 800.0 + 400.0 * ((np.arange(n_elements) + k) % 5)
    return tone_segments(n_elements, dwell, amplitudes)


def replace_element(chain, index, **changes):
    import dataclasses

    elements = chain.chip.array.elements
    elements[index] = dataclasses.replace(elements[index], **changes)


def replace_mux(chain):
    from repro.array.mux import AnalogMultiplexer

    old = chain.chip.mux
    mux = AnalogMultiplexer(
        old.array, charge_injection_c=2.0 * old.charge_injection_c
    )
    mux._selected, mux._just_switched = old._selected, old._just_switched
    chain.chip.mux = mux


def replace_frontend(chain):
    from repro.sdm.frontend import CapacitiveFrontEnd

    fe = chain.chip.frontend
    chain.chip.frontend = CapacitiveFrontEnd(
        reference_cap_f=fe.reference_cap_f,
        feedback_cap_f=1.05 * fe.feedback_cap_f,
        excitation_fraction=fe.excitation_fraction,
    )


def set_reference_error(chain):
    chain.chip.modulator.dac.reference_error = 0.004


needs_kernel = pytest.mark.skipif(
    not batch_kernel_available(), reason="the fused path needs the library"
)


@needs_kernel
class TestBindingLifetime:
    """The chain keeps its bound kernels and staging rows across scans."""

    @pytest.mark.parametrize("start", [0, 4])
    def test_repeated_scans_equal_bank_scans(self, start):
        fused_chain, bank_chain = make_chain(3, 3), make_chain(3, 3)
        if start:
            # Both chains first record one element, so the first scan
            # starts on element ``start`` with a carried filter state.
            field = np.full((700, 9), 300.0)
            for chain in (fused_chain, bank_chain):
                chain.record_pressure(field, element=start)
        binding = None
        for k in range(4):
            segments = frame(k)
            fused, ran = scan(fused_chain, segments, fused=True)
            bank, _ = scan(bank_chain, segments, fused=False)
            assert ran
            assert np.array_equal(fused, bank)
            assert fused_chain.fpga.filter_resets == (
                bank_chain.fpga.filter_resets
            )
            assert fused_chain.fpga.words_suppressed == (
                bank_chain.fpga.words_suppressed
            )
            if binding is not None:
                assert fused_chain._fused_scan is binding
            binding = fused_chain._fused_scan

    @pytest.mark.parametrize(
        "change",
        [
            lambda c: replace_element(c, 4, capacitance_scale=1.03),
            lambda c: replace_element(c, 0, offset_cap_f=2e-15),
            replace_mux,
            lambda c: setattr(c.chip.mux, "charge_injection_c", 3e-14),
            replace_frontend,
            lambda c: setattr(c.chip.frontend, "reference_cap_f", 1.2e-12),
            set_reference_error,
        ],
        ids=[
            "element-scale", "element-offset", "mux", "mux-charge",
            "frontend", "frontend-reference", "dac-reference-error",
        ],
    )
    def test_rebinds_after_a_change(self, change):
        fused_chain, bank_chain = make_chain(3, 3), make_chain(3, 3)
        for chain in (fused_chain, bank_chain):
            scan(chain, frame(0), fused=chain is fused_chain)
        before = fused_chain._fused_scan
        for chain in (fused_chain, bank_chain):
            change(chain)
        fused, ran = scan(fused_chain, frame(1), fused=True)
        bank, _ = scan(bank_chain, frame(1), fused=False)
        assert ran
        assert fused_chain._fused_scan is not before
        assert np.array_equal(fused, bank)

    def test_rebinds_after_a_dwell_change(self):
        fused_chain, bank_chain = make_chain(3, 3), make_chain(3, 3)
        for dwell_words in (DWELL_WORDS, DWELL_WORDS + 5, DWELL_WORDS):
            segments = frame(dwell_words, dwell=dwell_words * DECIMATION)
            fused, ran = scan(fused_chain, segments, fused=True)
            bank, _ = scan(bank_chain, segments, fused=False)
            assert ran
            assert fused_chain._fused_scan.au.shape[1] == segments.shape[1]
            assert np.array_equal(fused, bank)

    def test_declined_scan_is_retried(self):
        """A hook declines the fused scan; once cleared, it runs again."""
        fused_chain, bank_chain = make_chain(3, 3), make_chain(3, 3)
        for k, hook in enumerate([None, lambda u: u + 0.1, None]):
            for chain in (fused_chain, bank_chain):
                chain.chip.loop_input_hook = hook
            fused, ran = scan(fused_chain, frame(k), fused=True)
            bank, _ = scan(bank_chain, frame(k), fused=False)
            assert ran is (hook is None)
            assert np.array_equal(fused, bank)

    def test_declined_bind_is_not_kept(self):
        """A front end outside the compiled composition declines the
        bind, which is not cached: restoring the element binds again."""
        from repro.array.element import ArrayElement

        class CustomElement(ArrayElement):
            pass

        fused_chain, bank_chain = make_chain(3, 3), make_chain(3, 3)
        stock = fused_chain.chip.array.elements[2]
        custom = CustomElement(**{
            f: getattr(stock, f) for f in stock.__dataclass_fields__
        })
        for k, element in enumerate([stock, custom, stock]):
            fused_chain.chip.array.elements[2] = element
            fused, ran = scan(fused_chain, frame(k), fused=True)
            bank, _ = scan(bank_chain, frame(k), fused=False)
            assert ran is (element is stock)
            assert (fused_chain._fused_scan is None) is (element is custom)
            assert np.array_equal(fused, bank)

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copy_carries_no_addresses(self, how):
        """The bound kernels hold raw addresses; a copied chain must bind
        its own instead of writing into the original's buffers."""
        import copy
        import pickle

        chain = make_chain(3, 3)
        scan(chain, frame(0), fused=True)
        twin = (
            copy.deepcopy(chain) if how == "deepcopy"
            else pickle.loads(pickle.dumps(chain))
        )
        assert twin._fused_scan is None
        held = chain._fused_scan
        k = held.kernel
        buffers = {
            "au": held.au, "words": k.words, "x1": k.x1, "x2": k.x2,
            "integ": k.integ, "comb": k.comb, "hist": k.hist,
            "u_last": held.front.u_last,
        }
        saved = {name: a.copy() for name, a in buffers.items()}
        twin_records, ran = scan(twin, frame(1), fused=True)
        assert ran
        assert twin._fused_scan is not held
        for name, a in buffers.items():
            assert np.array_equal(a, saved[name]), name
        records, _ = scan(chain, frame(1), fused=True)
        assert np.array_equal(twin_records, records)
