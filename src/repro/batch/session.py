"""Batched streaming acquisition: many concurrent sessions, one pass.

:class:`BatchAcquisitionSession` is the ``B``-lane
:class:`~repro.core.session.LaneSession`: ``B`` independent readout
chains (one per concurrent subject/element) advance in lockstep through
the fused kernel of :mod:`repro.batch.kernel`, staged by the same
:class:`~repro.batch.engine.BatchChainEngine` a solo
:class:`~repro.core.session.AcquisitionSession` runs with one lane, and
every lane keeps its own :class:`~repro.core.session.PipelineTelemetry`
whose counters reconcile exactly.

The one difference from the solo session is the link. Every lane has a
:class:`~repro.core.session.CountedLink`: words go from the FPGA's
post-filter tail (counters, post-switch suppression, ``word_hook``, i16
saturation) straight to the lane's buffer, and the frame counters are
synthesized from the encoder's grouping. A counted link has no wire, so
fault injection and degraded-link studies run on the solo session.

Everything else matches bit-for-bit: any chunk split, any batch size,
and the per-lane fallback (no native library) all produce the same codes a
single :class:`~repro.core.session.AcquisitionSession` produces per
lane.
"""

from __future__ import annotations

import numpy as np

from ..core.chain import ChainRecording
from ..core.session import CountedLink, LaneSession, PipelineTelemetry
from ..errors import ConfigurationError


class BatchAcquisitionSession(LaneSession):
    """Lockstep streaming acquisition across ``B`` readout chains.

    Recordings carry quality masks under the default detector thresholds.

    Parameters
    ----------
    chains:
        Distinct :class:`~repro.core.chain.ReadoutChain` objects, one
        per lane (see :class:`~repro.batch.engine.BatchChainEngine` for
        the compatibility requirements).
    element:
        Element to select on every lane before the first chunk
        (default: keep each chain's current selection).
    """

    def __init__(self, chains, element: int | None = None):
        super().__init__(chains, element, None)

    def _open_link(self, chain) -> CountedLink:
        return CountedLink(chain, chain.chip.selected_element)

    # -- feeding -----------------------------------------------------------

    def feed_pressure(self, element_pressure_fields) -> list[np.ndarray]:
        """Convert one membrane-pressure chunk per lane.

        ``element_pressure_fields`` is a sequence of ``B``
        ``(n_samples, n_elements)`` arrays, one field per lane/subject.
        Every lane must receive the same number of samples. Returns the
        list of words each lane's cascade completed this chunk.
        """
        fields = [np.asarray(f, dtype=float) for f in element_pressure_fields]
        if len(fields) != self.lanes:
            raise ConfigurationError(
                f"expected {self.lanes} pressure fields, got {len(fields)}"
            )
        if any(f.ndim != 2 for f in fields):
            raise ConfigurationError(
                "each lane's field must be (n_samples, n_elements)"
            )
        if len({f.shape[0] for f in fields}) != 1:
            raise ConfigurationError(
                "all lanes must receive the same number of samples"
            )
        return self._feed("pressure", fields)

    def feed_voltage(self, differential_voltages_v) -> list[np.ndarray]:
        """Convert one test-voltage chunk per lane (``(n, B)`` array)."""
        u = np.asarray(differential_voltages_v, dtype=float)
        if u.ndim != 2 or u.shape[1] != self.lanes:
            raise ConfigurationError(
                "batched voltage input must be (n_samples, n_lanes)"
            )
        return self._feed("voltage", [u[:, l] for l in range(self.lanes)])

    # -- completion --------------------------------------------------------

    def finish(self) -> None:
        """Close the session: count each lane's final partial frame.

        Idempotent. No new words appear (the decimation cascades keep
        their in-flight residue, exactly like the hardware), so unlike
        :meth:`AcquisitionSession.finish` there is nothing to return.
        """
        self._finish()

    def codes(self, lane: int) -> np.ndarray:
        """All words delivered for one lane so far."""
        return self.links[lane].codes()

    def recording(self, lane: int) -> ChainRecording:
        """Finish (if needed) and assemble one lane's recording.

        Bit-identical to the recording a single
        :class:`~repro.core.session.AcquisitionSession` produces for
        the same lane input, regardless of batch size or chunk split.
        """
        self.finish()
        return self.links[lane].recording()

    def recordings(self) -> list[ChainRecording]:
        """Recordings for every lane, in lane order."""
        return [self.recording(l) for l in range(self.lanes)]

    def aggregate_telemetry(self) -> PipelineTelemetry:
        """Fleet-wide counter view over every lane (reconcile the lanes
        individually)."""
        return PipelineTelemetry.aggregate(self.telemetries)
