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

    def test_segments_require_batched_or_fused(self):
        from repro.errors import ConfigurationError

        chain = make_chain(2, 2)
        controller = ScanController(chain.chip.mux)
        segments = tone_segments(4, 256)
        with pytest.raises(ConfigurationError):
            controller.scan_records(
                chain, segments=segments, batched=False, fused=False
            )


class TestNonSquareOrientation:
    """Row-major orientation pinned through scan -> select -> localize."""

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

    def test_centroid_pulls_toward_hot_quadrant(self):
        rows, cols = 2, 3
        n_el = rows * cols
        amplitudes = np.full(n_el, 200.0)
        amplitudes[1 * cols + 2] = 3000.0  # last row, +x column
        segments = tone_segments(
            n_el, ORIENT_DWELL_WORDS * DECIMATION, amplitudes
        )
        records, controller = fused_records(rows, cols, segments)
        x, y = controller.localize_source(records[SETTLE_EXTRA:])
        assert x > 0  # +x column
        assert y > 0  # row index grows toward +y in array coordinates
