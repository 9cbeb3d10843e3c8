"""The full readout chain: chip -> FPGA decimation -> USB -> host stream.

Fig. 3's block diagram end to end. One call converts a membrane-pressure
field (or a test voltage) into decimated 12-bit words exactly as the PC
behind the USB cable would receive them — including framing, so the
acquisition-path integrity machinery is exercised on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..daq.fpga import FPGAFilterBank
from ..errors import ConfigurationError
from ..params import SystemParams
from .chip import SensorChip


@dataclass(frozen=True)
class ChainRecording:
    """Decimated output of one acquisition."""

    codes: np.ndarray  # int 12-bit codes
    sample_rate_hz: float
    element: int
    lost_frames: int
    crc_errors: int
    #: Samples the host stream's sequence-gap accounting says were lost
    #: for this element (``SampleStream.lost_samples``) — the per-element
    #: view behind the decoder-level ``lost_frames``.
    lost_samples: int = 0
    #: Per-sample quality mask (True = good); built by
    #: :func:`~repro.faults.quality_mask` from rail/gap/spike detection
    #: so degraded stretches are flagged instead of silently calibrated.
    #: ``None`` only on records built before the mask existed.
    quality: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray:
        """Codes scaled to modulator-input units (FS = 1)."""
        return self.codes.astype(float) / 2048.0

    @property
    def quality_fraction(self) -> float:
        """Fraction of received samples the quality mask calls good."""
        if self.quality is None or self.quality.size == 0:
            return 1.0
        return float(np.count_nonzero(self.quality)) / self.quality.size

    @property
    def times_s(self) -> np.ndarray:
        return np.arange(self.codes.size) / self.sample_rate_hz

    @property
    def duration_s(self) -> float:
        return self.codes.size / self.sample_rate_hz


class ReadoutChain:
    """Chip + FPGA + USB, streaming.

    Parameters
    ----------
    params:
        System parameters; the FPGA filter and modulator rates are wired
        consistently from them.
    backend:
        Modulator simulation backend, ``"fast"`` (default) or
        ``"reference"``.
    """

    def __init__(
        self,
        params: SystemParams | None = None,
        rng: np.random.Generator | None = None,
        backend: str = "fast",
    ):
        self.params = params or SystemParams()
        self.chip = SensorChip(self.params, rng=rng, backend=backend)
        self.fpga = FPGAFilterBank(
            params=self.params.decimation,
            input_rate_hz=self.params.modulator.sampling_rate_hz,
        )
        #: The fused array scan's bound kernels and staging rows, kept
        #: across scans (:func:`~repro.array.fusedscan.run_fused_scan`);
        #: None until the first fused scan, and in a copy of the chain.
        self._fused_scan = None

    @property
    def output_rate_hz(self) -> float:
        return self.fpga.output_rate_hz

    def session(
        self, element: int | None = None, faults=None, quality=None
    ):
        """Open a streaming :class:`~repro.core.session.AcquisitionSession`.

        The chunked-first entry point: feed bounded chunks, read words
        incrementally, inspect per-stage telemetry. The batch record
        methods below are thin wrappers over exactly this. ``faults``
        wires a :class:`~repro.faults.FaultInjector` through every
        pipeline layer; ``quality`` tunes the recording's quality-mask
        detectors.
        """
        from .session import AcquisitionSession

        return AcquisitionSession(
            self, element=element, faults=faults, quality=quality
        )

    def record_pressure(
        self,
        element_pressures_pa: np.ndarray,
        element: int | None = None,
        faults=None,
    ) -> ChainRecording:
        """Acquire one element's record from a membrane-pressure field.

        A one-chunk streaming session: output is bit-identical to
        feeding the same field through :meth:`session` in any chunking.

        Parameters
        ----------
        element_pressures_pa:
            (n_mod_samples, n_elements) field at the modulator clock.
        element:
            Element to select first (default: keep current selection).
        faults:
            Optional :class:`~repro.faults.FaultInjector` applied for
            the duration of this record.
        """
        session = self.session(element=element, faults=faults)
        session.feed_pressure(element_pressures_pa)
        return session.recording()

    def record_voltage(
        self, differential_voltage_v: np.ndarray
    ) -> ChainRecording:
        """Acquire through the voltage test input (Fig. 7 path)."""
        v = np.asarray(differential_voltage_v, dtype=float)
        if v.ndim != 1:
            raise ConfigurationError("voltage record must be 1-D")
        session = self.session()
        session.feed_voltage(v)
        return session.recording()
