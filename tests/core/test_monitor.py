"""End-to-end monitoring sessions (the Fig. 9 protocol)."""

import numpy as np
import pytest

from repro.core.chain import ReadoutChain
from repro.core.monitor import BloodPressureMonitor
from repro.errors import ConfigurationError
from repro.faults import FaultInjector
from repro.params import PASCAL_PER_MMHG, SystemParams
from repro.physiology.patient import VirtualPatient
from repro.tonometry.contact import ContactModel
from repro.tonometry.coupling import TonometricCoupling
from repro.tonometry.placement import ArrayPlacement


@pytest.fixture(scope="module")
def result():
    """One shared short session (modulator simulation is the cost)."""
    params = SystemParams()
    rng = np.random.default_rng(70)
    chain = ReadoutChain(params, rng=rng)
    contact = ContactModel(
        contact=params.contact,
        tissue=params.tissue,
        mean_arterial_pressure_pa=(80 + 40 / 3) * PASCAL_PER_MMHG,
    )
    coupling = TonometricCoupling(
        chain.chip.array.geometry,
        contact,
        placement=ArrayPlacement(lateral_offset_m=0.4e-3),
        rng=rng,
    )
    monitor = BloodPressureMonitor(chain, coupling)
    patient = VirtualPatient(rng=rng)
    return monitor.measure(patient, duration_s=8.0, scan_dwell_s=0.75, rng=rng)


class TestAccuracy:
    def test_systolic_error_few_mmhg(self, result):
        assert abs(result.systolic_error_mmhg) < 6.0

    def test_diastolic_error_few_mmhg(self, result):
        assert abs(result.diastolic_error_mmhg) < 6.0

    def test_waveform_rms_error(self, result):
        assert result.waveform_rms_error_mmhg() < 5.0

    def test_quality_acceptable(self, result):
        assert result.quality.acceptable

    def test_beats_detected(self, result):
        assert result.features.n_beats >= 6

    def test_pulse_rate(self, result):
        assert result.features.pulse_rate_bpm() == pytest.approx(70.0, abs=5.0)


class TestProtocol:
    def test_selection_has_contrast(self, result):
        assert result.selection.contrast >= 1.0

    def test_recording_rate(self, result):
        assert result.recording.sample_rate_hz == pytest.approx(1000.0)

    def test_calibration_anchored_to_cuff(self, result):
        assert result.measured_systolic_mmhg == pytest.approx(
            result.cuff.systolic_mmhg, abs=0.2
        )

    def test_calibrated_waveform_in_physiologic_range(self, result):
        mid = result.calibrated_mmhg[500:-500]
        assert mid.min() > 40.0
        assert mid.max() < 180.0

    def test_summary(self, result):
        text = result.summary()
        assert "measured" in text
        assert "mmHg" in text


def build_monitor(seed=70):
    params = SystemParams()
    rng = np.random.default_rng(seed)
    chain = ReadoutChain(params, rng=rng)
    contact = ContactModel(
        contact=params.contact,
        tissue=params.tissue,
        mean_arterial_pressure_pa=(80 + 40 / 3) * PASCAL_PER_MMHG,
    )
    coupling = TonometricCoupling(
        chain.chip.array.geometry,
        contact,
        placement=ArrayPlacement(lateral_offset_m=0.4e-3),
        rng=rng,
    )
    return BloodPressureMonitor(chain, coupling)


class TestStreamingMeasure:
    """measure() records through record_streaming, bit-identical to the
    monolithic ``chain.record_pressure`` of the whole field."""

    DWELL_S = 0.5
    DURATION_S = 5.0

    @pytest.fixture(scope="class")
    def pair(self):
        streamed = build_monitor().measure(
            VirtualPatient(rng=np.random.default_rng(71)),
            duration_s=self.DURATION_S, scan_dwell_s=self.DWELL_S,
            rng=np.random.default_rng(72),
        )
        monitor = build_monitor()
        scan_total = self.DWELL_S * monitor.chain.chip.array.n_elements
        total = scan_total + self.DURATION_S
        truth = VirtualPatient(rng=np.random.default_rng(71)).record(
            duration_s=total, sample_rate_hz=monitor.PHYSIOLOGY_RATE_HZ
        )
        selection = monitor.scan(truth, dwell_s=self.DWELL_S)
        reference = monitor.chain.record_pressure(
            monitor._pressure_field(truth, scan_total, total),
            element=selection.best_index,
        )
        return reference, streamed

    def test_bit_identical_recording(self, pair):
        reference, streamed = pair
        assert np.array_equal(reference.codes, streamed.recording.codes)
        assert np.array_equal(reference.values, streamed.recording.values)
        assert np.array_equal(reference.quality, streamed.recording.quality)

    def test_streaming_carries_telemetry(self, pair):
        _, streamed = pair
        streamed.telemetry.reconcile()
        assert streamed.telemetry.chunks == 20  # 5.0 s / 0.25 s
        assert streamed.telemetry.stage_seconds["synthesis"] > 0.0

    def test_chunk_memory_bounded(self, pair):
        _, streamed = pair
        n_elements = 4
        chunk_bytes = int(0.25 * 128000) * n_elements * 8
        assert streamed.telemetry.peak_chunk_bytes <= chunk_bytes

    def test_record_streaming_rejects_bad_chunk(self):
        """A rejected call leaves the chain untouched: the element, the
        filter and the injector are all as they were."""
        monitor = build_monitor()
        patient = VirtualPatient(rng=np.random.default_rng(71))
        truth = patient.record(duration_s=6.0, sample_rate_hz=2000.0)
        chain = monitor.chain
        element, resets = chain.chip.selected_element, chain.fpga.filter_resets
        for chunk_s in (0.0, -0.1, float("nan"), float("inf")):
            injector = FaultInjector([], seed=0)
            with pytest.raises(ConfigurationError, match="chunk duration"):
                monitor.record_streaming(
                    truth, 0.0, 5.0, element=3, chunk_s=chunk_s,
                    faults=injector,
                )
            assert chain.chip.selected_element == element != 3
            assert chain.fpga.filter_resets == resets
            with pytest.raises(ConfigurationError, match="must be bound"):
                injector.apply_array(np.zeros((1, 4)))


class TestCardiacBand:
    def test_measure_lowpasses_the_record_twice(self, monkeypatch):
        """One cardiac-band pass feeds the beat finder and the mmHg
        waveform, assess_quality makes the other; the features and the
        quality equal the public wrappers' on the same record."""
        from repro.calibration import features as features_module
        from repro.calibration.features import detect_beats
        from repro.calibration.quality import assess_quality

        filtered = []
        sosfiltfilt = features_module.sosfiltfilt

        def counting(sos, x):
            filtered.append(x.size)
            return sosfiltfilt(sos, x)

        monkeypatch.setattr(features_module, "sosfiltfilt", counting)
        patient = VirtualPatient(rng=np.random.default_rng(71))
        result = build_monitor().measure(
            patient, duration_s=5.0, scan_dwell_s=0.05,
            rng=np.random.default_rng(72),
        )
        values = result.recording.values
        assert filtered == [values.size] * 2

        monkeypatch.undo()
        fs = result.recording.sample_rate_hz
        rate = patient.params.heart_rate_bpm
        beats = detect_beats(values, fs, expected_rate_bpm=rate)
        for field in ("peak_times_s", "systolic_raw", "foot_times_s",
                      "diastolic_raw"):
            assert np.array_equal(
                getattr(result.features, field), getattr(beats, field)
            )
        assert result.quality == assess_quality(
            values, fs, expected_rate_bpm=rate
        )


class TestValidation:
    def test_short_duration_rejected(self):
        params = SystemParams()
        chain = ReadoutChain(params)
        coupling = TonometricCoupling(
            chain.chip.array.geometry, ContactModel()
        )
        monitor = BloodPressureMonitor(chain, coupling)
        with pytest.raises(ConfigurationError):
            monitor.measure(VirtualPatient(), duration_s=2.0)

    @pytest.mark.parametrize("dwell_s", [float("nan"), float("inf"), 0.0])
    def test_scan_rejects_bad_dwell(self, dwell_s):
        chain = ReadoutChain(SystemParams())
        coupling = TonometricCoupling(
            chain.chip.array.geometry, ContactModel()
        )
        truth = VirtualPatient().record(duration_s=1.0, sample_rate_hz=2000.0)
        with pytest.raises(ConfigurationError, match="scan dwell"):
            BloodPressureMonitor(chain, coupling).scan(truth, dwell_s=dwell_s)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_s": float("nan")},
            {"duration_s": float("inf")},
            {"scan_dwell_s": float("nan")},
            {"scan_dwell_s": float("inf")},
            {"scan_dwell_s": 0.0},
        ],
    )
    def test_non_finite_durations_rejected_before_the_chain(
        self, kwargs, monkeypatch
    ):
        chain = ReadoutChain(SystemParams())
        coupling = TonometricCoupling(
            chain.chip.array.geometry, ContactModel()
        )
        monitor = BloodPressureMonitor(chain, coupling)

        def touched(*args, **kw):
            raise AssertionError("the chain was driven")

        monkeypatch.setattr(chain, "record_pressure", touched)
        monkeypatch.setattr(monitor, "record_streaming", touched)
        with pytest.raises(ConfigurationError):
            monitor.measure(VirtualPatient(), **kwargs)
