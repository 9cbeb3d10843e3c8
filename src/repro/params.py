"""Paper-default parameters, centralized.

Every number quoted in Kirstein et al. (DATE 2004) lives here as the default
of a frozen dataclass, so experiment harnesses and tests share a single
source of truth. Quantities not stated in the paper (e.g. the capacitor gap
set by the sacrificial first-metal thickness) carry values typical for the
0.8 um CMOS process the paper uses, and are documented as such.

All values are SI (meters, pascals, farads, seconds, volts). Blood-pressure
values cross into mmHg only at the calibration boundary
(:mod:`repro.calibration.units`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import ConfigurationError

# ---------------------------------------------------------------------------
# Unit helpers used widely in tests and examples.

MMHG_PER_PASCAL = 1.0 / 133.322387415
PASCAL_PER_MMHG = 133.322387415


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class MembraneParams:
    """Geometry and electrostatics of one membrane transducer (Sec. 2.1).

    The paper states a 100 um side length, 3 um thickness, 150 um pitch,
    with the bottom electrode in poly-Si and the top electrode in metal-2.
    The electrode gap is the thickness of the sacrificially removed
    first-metal layer; 0.8 um CMOS metal-1 is typically ~0.6 um thick.
    """

    side_m: float = 100e-6
    thickness_m: float = 3e-6
    pitch_m: float = 150e-6
    gap_m: float = 0.6e-6
    #: Fraction of membrane area covered by the top electrode. The drawn
    #: electrode stops short of the clamped edge where deflection is zero.
    electrode_coverage: float = 0.8
    #: Net residual tensile stress of the released CMOS stack [Pa]. CMOS
    #: oxide/nitride/Al sandwiches are mildly tensile after release.
    residual_stress_pa: float = 30e6

    def __post_init__(self) -> None:
        _require(self.side_m > 0, "membrane side must be positive")
        _require(self.thickness_m > 0, "membrane thickness must be positive")
        _require(self.pitch_m >= self.side_m, "pitch must be >= side length")
        _require(self.gap_m > 0, "electrode gap must be positive")
        _require(
            0 < self.electrode_coverage <= 1.0,
            "electrode coverage must be in (0, 1]",
        )


@dataclass(frozen=True)
class ArrayParams:
    """Transducer array layout (Sec. 2.1/2.2): 2x2 elements, 150 um pitch."""

    rows: int = 2
    cols: int = 2
    membrane: MembraneParams = field(default_factory=MembraneParams)
    #: 1-sigma relative mismatch of rest capacitance across elements,
    #: representing process gradients. Not quoted in the paper; typical for
    #: matched on-chip capacitors.
    capacitance_mismatch_sigma: float = 0.002

    def __post_init__(self) -> None:
        _require(self.rows >= 1 and self.cols >= 1, "array must be >= 1x1")
        _require(
            self.capacitance_mismatch_sigma >= 0.0,
            "mismatch sigma must be non-negative",
        )

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class ModulatorParams:
    """Second-order single-bit SC sigma-delta modulator (Sec. 2.2/3.1).

    fs = 128 kHz, OSR = 128 -> 1 kS/s output. The loop coefficients follow
    the Boser-Wooley scaling (0.5/0.5) which keeps a single-bit 2nd-order
    loop stable up to inputs of roughly 70-80 % of the reference.
    """

    sampling_rate_hz: float = 128e3
    osr: int = 128
    vref_v: float = 2.5
    supply_v: float = 5.0
    #: Integrator gains a1, a2 (charge-transfer ratios Cin/Cint).
    a1: float = 0.5
    a2: float = 0.5
    #: First-stage feedback capacitor ratio Cfb/Cint. The paper's future
    #: work proposes adjusting this to improve resolution.
    feedback_ratio: float = 0.5

    def __post_init__(self) -> None:
        _require(self.sampling_rate_hz > 0, "sampling rate must be positive")
        _require(self.osr >= 2, "OSR must be >= 2")
        _require(self.vref_v > 0, "reference voltage must be positive")
        _require(self.a1 > 0 and self.a2 > 0, "integrator gains must be positive")
        _require(self.feedback_ratio > 0, "feedback ratio must be positive")

    @property
    def output_rate_hz(self) -> float:
        """Decimated conversion rate; the paper reports 1 kS/s."""
        return self.sampling_rate_hz / self.osr


@dataclass(frozen=True)
class NonidealityParams:
    """Analog non-ideality knobs of the behavioural modulator.

    Defaults describe a competent 0.8 um SC design; setting everything to
    zero (:meth:`ideal`) yields the textbook difference equations.
    """

    #: Sampling capacitor [F] used for kT/C noise. ~1 pF is typical.
    sampling_cap_f: float = 1e-12
    #: Finite DC gain of the integrator op-amps (V/V); inf = ideal.
    opamp_gain: float = 5e3
    #: Comparator input-referred offset [V].
    comparator_offset_v: float = 0.0
    #: Comparator hysteresis [V].
    comparator_hysteresis_v: float = 0.0
    #: RMS clock jitter [s].
    clock_jitter_s: float = 50e-12
    #: Temperature for kT/C noise [K].
    temperature_k: float = 300.0
    #: Input-referred flicker-noise corner frequency [Hz]; 0 disables.
    flicker_corner_hz: float = 0.0

    def __post_init__(self) -> None:
        _require(self.sampling_cap_f > 0, "sampling capacitor must be positive")
        _require(self.opamp_gain > 0, "op-amp gain must be positive")
        _require(self.clock_jitter_s >= 0, "jitter must be non-negative")
        _require(self.temperature_k > 0, "temperature must be positive")
        _require(self.flicker_corner_hz >= 0, "flicker corner must be >= 0")

    @classmethod
    def ideal(cls) -> "NonidealityParams":
        """A noiseless analog front end: textbook difference equations.

        The infinite sampling capacitor zeroes the kT/C term, making the
        simulation fully deterministic (no rng draws) — what the
        chunked-vs-monolithic equivalence tests rely on.
        """
        return cls(
            sampling_cap_f=float("inf"),
            opamp_gain=1e12,
            comparator_offset_v=0.0,
            comparator_hysteresis_v=0.0,
            clock_jitter_s=0.0,
            flicker_corner_hz=0.0,
        )


@dataclass(frozen=True)
class FrontEndParams:
    """Capacitive input branch of the modulator (Fig. 6).

    ``feedback_cap_f`` is the physical first-stage feedback capacitor that
    normalizes the sensed (Csense - Cref) difference; the paper's future
    work proposes adjusting it to trade overload margin for resolution.
    """

    feedback_cap_f: float = 50e-15
    excitation_fraction: float = 1.0

    def __post_init__(self) -> None:
        _require(self.feedback_cap_f > 0, "feedback capacitor must be positive")
        _require(
            self.excitation_fraction > 0, "excitation fraction must be positive"
        )


@dataclass(frozen=True)
class DecimationParams:
    """Two-stage decimation filter (Sec. 3.1).

    Stage 1: 3rd-order SINC (CIC), stage 2: 32-tap FIR; total decimation
    equals the OSR of 128 and the passband cutoff is 500 Hz at a 1 kS/s
    output rate with 12-bit output resolution. The 32/4 split between the
    stages is our choice (the paper does not state it); it puts the FIR at
    a 4 kHz input rate where 32 taps comfortably realize a 500 Hz cutoff
    and the CIC droop correction.
    """

    cic_decimation: int = 32
    fir_taps: int = 32
    fir_decimation: int = 4
    cutoff_hz: float = 500.0
    output_bits: int = 12

    def __post_init__(self) -> None:
        _require(self.cic_decimation >= 2, "CIC decimation must be >= 2")
        _require(self.fir_taps >= 2, "FIR must have >= 2 taps")
        _require(self.fir_decimation >= 1, "FIR decimation must be >= 1")
        _require(self.cutoff_hz > 0, "cutoff must be positive")
        _require(self.output_bits >= 2, "output width must be >= 2 bits")

    @property
    def total_decimation(self) -> int:
        return self.cic_decimation * self.fir_decimation


@dataclass(frozen=True)
class ChipParams:
    """Whole-chip figures (Sec. 3): 0.8 um CMOS, 2.6 x 1.9 mm^2, 11.5 mW."""

    die_width_m: float = 2.6e-3
    die_height_m: float = 1.9e-3
    power_w: float = 11.5e-3
    supply_v: float = 5.0
    reference_sampling_rate_hz: float = 128e3

    def __post_init__(self) -> None:
        _require(self.die_width_m > 0 and self.die_height_m > 0, "die must be positive")
        _require(self.power_w > 0, "power must be positive")
        _require(self.supply_v > 0, "supply must be positive")

    @property
    def die_area_m2(self) -> float:
        return self.die_width_m * self.die_height_m


@dataclass(frozen=True)
class PatientParams:
    """Virtual-patient defaults: a healthy adult at rest.

    The paper's Fig. 9 subject shows a normal radial waveform; 120/80 mmHg
    at 70 bpm is the textbook operating point.
    """

    systolic_mmhg: float = 120.0
    diastolic_mmhg: float = 80.0
    heart_rate_bpm: float = 70.0
    #: RMS beat-to-beat interval variation (fraction of mean RR interval).
    hrv_rms_fraction: float = 0.03
    respiration_rate_bpm: float = 15.0
    #: Peak pressure modulation by respiration [mmHg].
    respiration_depth_mmhg: float = 3.0

    def __post_init__(self) -> None:
        _require(
            self.systolic_mmhg > self.diastolic_mmhg > 0,
            "systolic must exceed diastolic, both positive",
        )
        _require(self.heart_rate_bpm > 0, "heart rate must be positive")
        _require(self.hrv_rms_fraction >= 0, "HRV fraction must be >= 0")
        _require(self.respiration_rate_bpm >= 0, "respiration rate must be >= 0")

    @property
    def pulse_pressure_mmhg(self) -> float:
        return self.systolic_mmhg - self.diastolic_mmhg

    @property
    def mean_rr_s(self) -> float:
        return 60.0 / self.heart_rate_bpm


@dataclass(frozen=True)
class TissueParams:
    """Vessel-wall and tissue-transfer model parameters (Sec. 2, Fig. 1).

    None of these are quoted by the paper; they are order-of-magnitude
    values for the radial artery at the wrist drawn from the tonometry
    literature the paper cites ([1], [2]).
    """

    #: Depth of the artery below the skin surface [m].
    artery_depth_m: float = 2.0e-3
    #: Young's modulus of overlying tissue [Pa].
    tissue_modulus_pa: float = 50e3
    #: Spatial spread (1-sigma) of the surface displacement bump [m].
    surface_spread_m: float = 2.5e-3

    def __post_init__(self) -> None:
        _require(self.artery_depth_m > 0, "artery depth must be positive")
        _require(self.tissue_modulus_pa > 0, "tissue modulus must be positive")
        _require(self.surface_spread_m > 0, "surface spread must be positive")


@dataclass(frozen=True)
class ContactParams:
    """Sensor-to-skin contact (Sec. 2.1: PDMS layer, hold-down pressure)."""

    #: Static hold-down pressure pressing the sensor onto the wrist [Pa].
    #: Tonometry works best near applanation, ~ mean arterial pressure.
    hold_down_pa: float = 12000.0
    #: PDMS layer thickness [m].
    pdms_thickness_m: float = 300e-6
    #: PDMS Young's modulus [Pa] (soft elastomer, ~1 MPa typical).
    pdms_modulus_pa: float = 1.0e6
    #: Backside pressure applied through the pressure tube (Fig. 8) [Pa].
    backpressure_pa: float = 5000.0

    def __post_init__(self) -> None:
        _require(self.hold_down_pa >= 0, "hold-down pressure must be >= 0")
        _require(self.pdms_thickness_m > 0, "PDMS thickness must be positive")
        _require(self.pdms_modulus_pa > 0, "PDMS modulus must be positive")
        _require(self.backpressure_pa >= 0, "backpressure must be >= 0")


@dataclass(frozen=True)
class SystemParams:
    """Everything needed to build the full monitor, with paper defaults."""

    array: ArrayParams = field(default_factory=ArrayParams)
    frontend: FrontEndParams = field(default_factory=FrontEndParams)
    modulator: ModulatorParams = field(default_factory=ModulatorParams)
    nonideality: NonidealityParams = field(default_factory=NonidealityParams)
    decimation: DecimationParams = field(default_factory=DecimationParams)
    chip: ChipParams = field(default_factory=ChipParams)
    patient: PatientParams = field(default_factory=PatientParams)
    tissue: TissueParams = field(default_factory=TissueParams)
    contact: ContactParams = field(default_factory=ContactParams)

    def __post_init__(self) -> None:
        if self.decimation.total_decimation != self.modulator.osr:
            raise ConfigurationError(
                "decimation factor "
                f"{self.decimation.total_decimation} must equal the "
                f"modulator OSR {self.modulator.osr}"
            )

    def replace(self, **kwargs) -> "SystemParams":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)


def paper_defaults() -> SystemParams:
    """The configuration evaluated in the paper (Secs. 2-3)."""
    return SystemParams()
