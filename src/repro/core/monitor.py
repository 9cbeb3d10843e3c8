"""The complete application: continuous blood-pressure monitoring.

Implements the measurement protocol of Sec. 3.2 / Fig. 9 against a
virtual patient:

1. **Scan** — visit every array element briefly and pick the one with the
   strongest pulsatile signal (Sec. 2's placement-tolerance mechanism).
2. **Record** — stream the selected element continuously at 1 kS/s.
3. **Extract** — low-pass to the cardiac band, detect beats, read the raw
   systolic/diastolic feature levels.
4. **Calibrate** — take one oscillometric cuff reading and anchor the raw
   levels to mmHg with the two-point calibration.

Because the patient is synthetic, the result also carries ground-truth
errors — the numbers Fig. 9 could only show qualitatively.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..array.scan import ElementSelection, ScanController
from ..baselines.cuff import CuffReading, OscillometricCuff
from ..calibration.features import BeatFeatures, find_beats, lowpass_cardiac
from ..calibration.quality import SignalQualityReport, assess_quality
from ..calibration.twopoint import TwoPointCalibration
from ..errors import ConfigurationError
from ..physiology.patient import PatientRecording, VirtualPatient
from ..tonometry.coupling import TonometricCoupling
from .chain import ChainRecording, ReadoutChain
from .session import AcquisitionSession, PipelineTelemetry


@dataclass(frozen=True)
class MonitorResult:
    """Everything one monitoring session produces."""

    selection: ElementSelection
    recording: ChainRecording
    raw_waveform: np.ndarray  # cardiac-band-filtered raw values
    features: BeatFeatures
    quality: SignalQualityReport
    cuff: CuffReading
    calibration: TwoPointCalibration
    calibrated_mmhg: np.ndarray
    ground_truth: PatientRecording
    #: Pipeline telemetry of the record step.
    telemetry: PipelineTelemetry

    # -- derived accuracy metrics -------------------------------------------

    @property
    def times_s(self) -> np.ndarray:
        return self.recording.times_s

    @property
    def measured_systolic_mmhg(self) -> float:
        return float(self.calibration.apply(self.features.mean_systolic_raw))

    @property
    def measured_diastolic_mmhg(self) -> float:
        return float(self.calibration.apply(self.features.mean_diastolic_raw))

    @property
    def systolic_error_mmhg(self) -> float:
        return self.measured_systolic_mmhg - self.ground_truth.systolic_mmhg

    @property
    def diastolic_error_mmhg(self) -> float:
        return self.measured_diastolic_mmhg - self.ground_truth.diastolic_mmhg

    def waveform_rms_error_mmhg(self) -> float:
        """RMS error of the calibrated waveform against ground truth.

        The ground-truth record is resampled onto the measurement grid and
        both are compared after discarding the filter's settling edges.
        """
        t = self.times_s
        truth = np.interp(
            t, self.ground_truth.times_s, self.ground_truth.pressure_mmhg
        )
        skip = min(200, t.size // 10)
        a = self.calibrated_mmhg[skip:-skip] if skip else self.calibrated_mmhg
        b = truth[skip:-skip] if skip else truth
        return float(np.sqrt(np.mean((a - b) ** 2)))

    def summary(self) -> str:
        gt = self.ground_truth
        return "\n".join(
            [
                "BloodPressureMonitor result",
                f"  selected element : ({self.selection.best_row}, "
                f"{self.selection.best_col}), "
                f"contrast {self.selection.contrast:.2f}",
                f"  {self.quality.describe()}",
                f"  cuff reading     : {self.cuff.systolic_mmhg:.1f}/"
                f"{self.cuff.diastolic_mmhg:.1f} mmHg",
                f"  measured         : {self.measured_systolic_mmhg:.1f}/"
                f"{self.measured_diastolic_mmhg:.1f} mmHg",
                f"  ground truth     : {gt.systolic_mmhg:.1f}/"
                f"{gt.diastolic_mmhg:.1f} mmHg",
                f"  sys/dia error    : {self.systolic_error_mmhg:+.1f}/"
                f"{self.diastolic_error_mmhg:+.1f} mmHg",
                f"  waveform RMS err : {self.waveform_rms_error_mmhg():.2f} mmHg",
            ]
        )


class BloodPressureMonitor:
    """Scan-select-record-calibrate measurement orchestrator.

    Parameters
    ----------
    chain:
        The readout chain (chip + FPGA + USB).
    coupling:
        Tonometric coupling mapping arterial to membrane pressures.
    cuff:
        The calibration reference device.
    """

    #: Rate at which the patient waveform is synthesized before
    #: interpolation to the modulator clock (the waveform lives below
    #: 25 Hz, so 2 kHz is generous).
    PHYSIOLOGY_RATE_HZ = 2000.0

    def __init__(
        self,
        chain: ReadoutChain,
        coupling: TonometricCoupling,
        cuff: OscillometricCuff | None = None,
    ):
        self.chain = chain
        self.coupling = coupling
        self.cuff = cuff or OscillometricCuff()

    # -- pieces ------------------------------------------------------------

    def _pressure_field(
        self, recording: PatientRecording, start_s: float, stop_s: float
    ) -> np.ndarray:
        """Membrane-pressure field at the modulator clock for [start, stop)."""
        fs = self.chain.params.modulator.sampling_rate_hz
        n = int(round((stop_s - start_s) * fs))
        t_mod = start_s + np.arange(n) / fs
        arterial_pa = recording.interp_pressure_pa(t_mod)
        return self.coupling.element_pressures_pa(arterial_pa)

    def _pressure_field_chunks(
        self,
        recording: PatientRecording,
        start_s: float,
        stop_s: float,
        chunk_s: float,
    ) -> Iterator[np.ndarray]:
        """Chunked :meth:`_pressure_field`: bounded synthesis on demand.

        Yields (n_chunk, n_elements) fields whose concatenation is
        bit-identical to the monolithic field — sample times come from
        one global index grid and the coupling operating point is frozen
        once — while only ever holding one chunk of 128 kHz data.
        """
        fs = self.chain.params.modulator.sampling_rate_hz
        n = int(round((stop_s - start_s) * fs))
        step = max(int(round(chunk_s * fs)), 2)
        field_fn = self.coupling.pressure_field_fn()
        for i0 in range(0, n, step):
            t_mod = start_s + np.arange(i0, min(i0 + step, n)) / fs
            yield field_fn(recording.interp_pressure_pa(t_mod))

    def record_streaming(
        self,
        recording: PatientRecording,
        start_s: float,
        stop_s: float,
        element: int | None = None,
        chunk_s: float = 0.25,
        on_chunk: Callable[[AcquisitionSession, np.ndarray], None] | None = None,
        faults=None,
    ) -> tuple[ChainRecording, PipelineTelemetry]:
        """Stream one element's record without materializing the field.

        Synthesizes the membrane-pressure field chunk-by-chunk from the
        physiology-rate ground truth and feeds it through an
        :class:`~repro.core.session.AcquisitionSession`, so a session of
        any duration costs O(chunk) memory at the modulator rate. The
        returned recording is bit-identical to
        ``chain.record_pressure(self._pressure_field(...), element)``;
        the telemetry additionally carries the per-chunk synthesis time.

        Parameters
        ----------
        recording:
            Ground-truth patient record covering [start_s, stop_s).
        start_s, stop_s:
            Window of the record to acquire.
        element:
            Element to select first (default: keep current selection).
        chunk_s:
            Chunk duration; 0.25 s at 128 kS/s x 4 elements is ~1 MiB.
        on_chunk:
            Optional live observer called after every chunk with the
            session and the newly delivered words (the CLI's hook).
        faults:
            Optional :class:`~repro.faults.FaultInjector` active for
            this record; the returned recording's ``quality`` mask flags
            the degraded stretches.
        """
        # Checked before the session opens: opening it switches the
        # element, resets the filter and binds the injector.
        if not (np.isfinite(chunk_s) and chunk_s > 0):
            raise ConfigurationError("chunk duration must be positive")
        session = AcquisitionSession(self.chain, element=element, faults=faults)
        chunks = self._pressure_field_chunks(recording, start_s, stop_s, chunk_s)
        while True:
            # The generator interpolates and couples lazily, so the time
            # spent pulling the next chunk IS the synthesis time.
            t0 = time.perf_counter()
            chunk = next(chunks, None)
            session.telemetry.add_stage_seconds(
                "synthesis", time.perf_counter() - t0
            )
            if chunk is None:
                break
            delivered = session.feed_pressure(chunk)
            if on_chunk is not None:
                on_chunk(session, delivered)
        session.finish()
        return session.recording(), session.telemetry

    def scan(
        self,
        recording: PatientRecording,
        dwell_s: float = 1.5,
    ) -> ElementSelection:
        """Visit every element in turn and select the strongest one.

        Synthesizes only what the multiplexer routes: element k's
        pressure during its own dwell (``scan_pressure_segments``),
        not the whole field.
        """
        if not 0 < dwell_s < math.inf:
            raise ConfigurationError("scan dwell must be positive and finite")
        n_elements = self.chain.chip.array.n_elements
        fs = self.chain.params.modulator.sampling_rate_hz
        dwell = int(dwell_s * fs)
        arterial = recording.interp_pressure_pa(np.arange(dwell * n_elements) / fs)
        segments = self.coupling.scan_pressure_segments(arterial, dwell)
        controller = ScanController(self.chain.chip.mux)
        # Drop the filter-flush words at the start of the record.
        return controller.scan_and_select(self.chain, segments, settle_words=8)

    def measure(
        self,
        patient: VirtualPatient,
        duration_s: float = 16.0,
        scan_dwell_s: float = 1.5,
        rng: np.random.Generator | None = None,
    ) -> MonitorResult:
        """Run the full protocol and return the session result.

        The record step runs through :meth:`record_streaming`, so it
        holds O(chunk) memory at the modulator rate and the result
        carries :class:`~repro.core.session.PipelineTelemetry`.
        """
        if not math.isfinite(duration_s) or not 0 < scan_dwell_s < math.inf:
            raise ConfigurationError(
                "duration and scan dwell must be positive and finite"
            )
        if duration_s < 5.0:
            raise ConfigurationError(
                "need >= 5 s of recording for stable beat features"
            )
        rng = rng or np.random.default_rng(77)
        n_elements = self.chain.chip.array.n_elements
        scan_total = scan_dwell_s * n_elements
        total = scan_total + duration_s

        truth = patient.record(
            duration_s=total, sample_rate_hz=self.PHYSIOLOGY_RATE_HZ
        )

        selection = self.scan(truth, dwell_s=scan_dwell_s)

        recording, telemetry = self.record_streaming(
            truth, scan_total, total, element=selection.best_index
        )

        # One cardiac-band pass serves the beat finder and the mmHg
        # waveform; assess_quality makes the only other one.
        raw = lowpass_cardiac(recording.values, recording.sample_rate_hz)
        features = find_beats(
            raw,
            recording.sample_rate_hz,
            expected_rate_bpm=patient.params.heart_rate_bpm,
        )
        quality = assess_quality(
            recording.values,
            recording.sample_rate_hz,
            expected_rate_bpm=patient.params.heart_rate_bpm,
        )

        cuff_reading = self.cuff.measure(patient, rng=rng)
        calibration = TwoPointCalibration.from_features(
            features,
            cuff_systolic_mmhg=cuff_reading.systolic_mmhg,
            cuff_diastolic_mmhg=cuff_reading.diastolic_mmhg,
        )
        calibrated = calibration.apply(raw)

        # Ground truth restricted to the measurement window, re-based to
        # the recording clock.
        measured_truth = PatientRecording(
            times_s=truth.times_s[truth.times_s >= scan_total] - scan_total,
            pressure_mmhg=truth.pressure_mmhg[truth.times_s >= scan_total],
            schedule=truth.schedule,
            beat_truth=truth.beat_truth[
                truth.beat_truth[:, 0] >= scan_total
            ],
        )

        return MonitorResult(
            selection=selection,
            recording=recording,
            raw_waveform=raw,
            features=features,
            quality=quality,
            cuff=cuff_reading,
            calibration=calibration,
            calibrated_mmhg=calibrated,
            ground_truth=measured_truth,
            telemetry=telemetry,
        )
