"""ABL-FB / ABL-OSR: the paper's future-work knobs, measured.

Sec. 4: "Future work will include an improvement of the resolution during
blood pressure measurements. This can be achieved by adjusting the
feedback capacitors of the first modulator stage. Also an increased
conversion rate would be desirable."

* :func:`run_feedback_ablation` sweeps the first-stage feedback-capacitor
  ratio (smaller Cfb = more conversion gain) and measures SNR for a
  fixed *capacitance-domain* stimulus — showing where the resolution gain
  saturates into overload.
* :func:`run_osr_ablation` sweeps the OSR (i.e. the conversion rate at
  fixed modulator clock) and measures ENOB — the resolution-vs-rate
  trade-off behind "an increased conversion rate would be desirable",
  including the 1st-order-loop comparison (DESIGN.md §5 ablation).
* :func:`run_chopper_ablation` (ABL-CHOP) measures the SNR recovered by
  chopping the first integrator on a loop with a deliberately bad
  flicker corner — the canonical CMOS fix for the 1/f noise the paper's
  front end fights.

Every sweep arm is an independent deterministic task (fixed per-arm
seeds), so all three harnesses fan out over a
:class:`~repro.parallel.ParallelExecutor` pool and are bit-identical
for every ``jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.cic import CICDecimator
from ..dsp.spectrum import analyze_tone, coherent_tone_frequency, enob_from_sndr
from ..errors import ConfigurationError
from ..parallel import ExecutorTelemetry, ParallelExecutor
from ..params import ModulatorParams, NonidealityParams, SystemParams
from ..sdm.chopper import ChoppedSecondOrderSDM
from ..sdm.feedback import FeedbackDAC
from ..sdm.modulator import SecondOrderSDM


@dataclass(frozen=True)
class FeedbackAblationResult:
    """SNR vs first-stage feedback-capacitor scaling."""

    cfb_ratios: np.ndarray
    snr_db: np.ndarray
    clipped_fraction: np.ndarray
    stimulus_fraction_of_nominal_fs: float
    #: Executor counters of the run that produced this result.
    telemetry: ExecutorTelemetry | None = None

    @property
    def best_ratio(self) -> float:
        return float(self.cfb_ratios[int(np.argmax(self.snr_db))])

    def rows(self) -> list[tuple[str, str, str]]:
        nominal_idx = int(np.argmin(np.abs(self.cfb_ratios - 1.0)))
        best_idx = int(np.argmax(self.snr_db))
        return [
            (
                "SNR at nominal Cfb [dB]",
                "(baseline)",
                f"{self.snr_db[nominal_idx]:.1f}",
            ),
            (
                "best Cfb ratio",
                "< 1 (paper: adjust Cfb)",
                f"{self.best_ratio:.2f}",
            ),
            (
                "SNR at best Cfb [dB]",
                "improved resolution (Sec. 4)",
                f"{self.snr_db[best_idx]:.1f}",
            ),
            (
                "improvement [dB]",
                "> 0",
                f"{self.snr_db[best_idx] - self.snr_db[nominal_idx]:+.1f}",
            ),
        ]


def _feedback_task(
    item: tuple[SystemParams, float, float, int],
) -> tuple[float, float]:
    """(SNR, clipped fraction) of one Cfb-ratio arm (executor task)."""
    params, ratio, stimulus_fraction, n_out = item
    mod_params = params.modulator
    osr = mod_params.osr
    fs = mod_params.sampling_rate_hz
    out_rate = fs / osr
    tone = coherent_tone_frequency(15.625, out_rate, n_out)
    n_mod = (n_out + 32) * osr
    t = np.arange(n_mod) / fs
    # Stimulus fixed in capacitance-equivalent units: at nominal Cfb it
    # spans `stimulus_fraction` of the loop full scale.
    base_u = stimulus_fraction * np.sin(2.0 * np.pi * tone * t)

    dac = FeedbackDAC(cfb_ratio=float(ratio))
    sdm = SecondOrderSDM(
        params=mod_params,
        nonideality=params.nonideality,
        dac=dac,
        rng=np.random.default_rng(42),
    )
    # Shrinking the physical Cfb boosts the front-end gain by 1/ratio.
    u = base_u * dac.conversion_gain_boost / 1.0
    # ... but the loop's own full scale also scales with b1; the
    # simulation captures both effects faithfully.
    out = sdm.simulate(u)
    clipped = out.clipped_samples / n_mod
    cic = CICDecimator(order=3, decimation=osr, input_bits=2)
    stream = cic.process(out.bitstream.astype(np.int64))
    vals = stream.astype(float)[32 : 32 + n_out] / cic.dc_gain
    try:
        snr = analyze_tone(
            vals, out_rate, tone_hz=tone, max_band_hz=500.0
        ).snr_db
    except Exception:
        snr = float("nan")
    return (float(snr), float(clipped))


def run_feedback_ablation(
    params: SystemParams | None = None,
    cfb_ratios: np.ndarray | None = None,
    stimulus_fraction: float = 0.25,
    n_out: int = 2048,
    jobs: int = 1,
) -> FeedbackAblationResult:
    """Sweep the feedback-capacitor ratio at a fixed small stimulus.

    The stimulus is fixed in *capacitance* terms (a fraction of the
    nominal full scale), modelling the small blood-pressure signal; as
    Cfb shrinks, the same stimulus occupies more of the loop range, so
    SNR rises — until the loop overloads.
    """
    params = params or SystemParams()
    if cfb_ratios is None:
        cfb_ratios = np.array([2.0, 1.5, 1.0, 0.75, 0.5, 0.35, 0.25, 0.15])
    if not 0 < stimulus_fraction < 1:
        raise ConfigurationError("stimulus fraction must be in (0, 1)")

    ratios = np.asarray(cfb_ratios, dtype=float)
    items = [
        (params, float(ratio), float(stimulus_fraction), int(n_out))
        for ratio in ratios
    ]
    executor = ParallelExecutor(jobs=jobs)
    arms = executor.map(_feedback_task, items)
    return FeedbackAblationResult(
        cfb_ratios=ratios,
        snr_db=np.array([arm[0] for arm in arms]),
        clipped_fraction=np.array([arm[1] for arm in arms]),
        stimulus_fraction_of_nominal_fs=stimulus_fraction,
        telemetry=executor.telemetry,
    )


@dataclass(frozen=True)
class OSRAblationResult:
    """ENOB vs OSR for 2nd- and 1st-order loops."""

    osrs: np.ndarray
    enob_2nd: np.ndarray
    enob_1st: np.ndarray
    conversion_rates_hz: np.ndarray
    slope_2nd_bits_per_octave: float
    slope_1st_bits_per_octave: float
    #: Executor counters of the run that produced this result.
    telemetry: ExecutorTelemetry | None = None

    def rows(self) -> list[tuple[str, str, str]]:
        idx128 = int(np.argmin(np.abs(self.osrs - 128)))
        return [
            (
                "ENOB at OSR 128 (2nd order) [bit]",
                "~12 (paper)",
                f"{self.enob_2nd[idx128]:.2f}",
            ),
            (
                "2nd-order slope [bit/octave]",
                "2.5 (theory)",
                f"{self.slope_2nd_bits_per_octave:.2f}",
            ),
            (
                "1st-order slope [bit/octave]",
                "1.5 (theory)",
                f"{self.slope_1st_bits_per_octave:.2f}",
            ),
            (
                "rate at OSR 32 [S/s]",
                "4000 (4x faster conversion)",
                f"{self.conversion_rates_hz[np.argmin(np.abs(self.osrs - 32))]:.0f}",
            ),
        ]


def _first_order_bitstream(
    u: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Ideal 1st-order single-bit modulator (baseline loop)."""
    bits = np.empty(u.size, dtype=np.int8)
    x = 0.0
    for i in range(u.size):
        v = 1.0 if x >= 0.0 else -1.0
        x = x + u[i] - v
        bits[i] = 1 if v > 0 else -1
    return bits


def _osr_task(
    item: tuple[float, int, float, int],
) -> tuple[float, float, float]:
    """(ENOB 2nd, ENOB 1st, out rate) at one OSR (executor task).

    Both loops are ideal (no stochastic draws), so the fresh per-cell
    generator makes the cell bit-identical to the legacy serial sweep
    that shared one generator across cells.
    """
    fs, osr, amplitude, n_out = item
    rng = np.random.default_rng(4242)
    out_rate = fs / osr
    tone = coherent_tone_frequency(out_rate / 64.0, out_rate, n_out)
    n_mod = (n_out + 16) * osr
    t = np.arange(n_mod) / fs
    u = amplitude * np.sin(2.0 * np.pi * tone * t)

    mod_params = ModulatorParams(sampling_rate_hz=fs, osr=int(osr))
    sdm = SecondOrderSDM(
        params=mod_params,
        nonideality=NonidealityParams.ideal(),
        rng=rng,
    )
    bits2 = sdm.simulate(u).bitstream
    cic3 = CICDecimator(order=3, decimation=int(osr), input_bits=2)
    vals2 = (
        cic3.process(bits2.astype(np.int64)).astype(float) / cic3.dc_gain
    )[16 : 16 + n_out]
    a2 = analyze_tone(vals2, out_rate, tone_hz=tone)

    bits1 = _first_order_bitstream(u, rng)
    cic2 = CICDecimator(order=2, decimation=int(osr), input_bits=2)
    vals1 = (
        cic2.process(bits1.astype(np.int64)).astype(float) / cic2.dc_gain
    )[16 : 16 + n_out]
    a1 = analyze_tone(vals1, out_rate, tone_hz=tone)
    return (
        float(enob_from_sndr(a2.snr_db)),
        float(enob_from_sndr(a1.snr_db)),
        float(out_rate),
    )


def run_osr_ablation(
    params: SystemParams | None = None,
    osrs: np.ndarray | None = None,
    amplitude: float = 0.5,
    n_out: int = 2048,
    jobs: int = 1,
) -> OSRAblationResult:
    """Sweep OSR, measuring ENOB via sinc^(N+1) decimation (no 12-bit
    quantizer, so the modulator's own scaling is visible)."""
    params = params or SystemParams()
    if osrs is None:
        osrs = np.array([16, 32, 64, 128, 256])
    osrs = np.asarray(osrs, dtype=int)
    if np.any(osrs < 4):
        raise ConfigurationError("OSR sweep must stay >= 4")

    fs = params.modulator.sampling_rate_hz
    items = [
        (float(fs), int(osr), float(amplitude), int(n_out)) for osr in osrs
    ]
    executor = ParallelExecutor(jobs=jobs)
    cells = executor.map(_osr_task, items)
    enob2 = np.array([cell[0] for cell in cells])
    enob1 = np.array([cell[1] for cell in cells])
    rates = np.array([cell[2] for cell in cells])

    def slope(enobs: np.ndarray) -> float:
        octaves = np.log2(osrs / osrs[0])
        fit = np.polyfit(octaves, enobs, 1)
        return float(fit[0])

    return OSRAblationResult(
        osrs=osrs,
        enob_2nd=enob2,
        enob_1st=enob1,
        conversion_rates_hz=rates,
        slope_2nd_bits_per_octave=slope(enob2),
        slope_1st_bits_per_octave=slope(enob1),
        telemetry=executor.telemetry,
    )


@dataclass(frozen=True)
class ChopperAblationResult:
    """SNR with first-integrator chopping off vs on (ABL-CHOP)."""

    snr_off_db: float
    snr_on_db: float
    flicker_corner_hz: float
    #: Executor counters of the run that produced this result.
    telemetry: ExecutorTelemetry | None = None

    @property
    def recovered_db(self) -> float:
        return self.snr_on_db - self.snr_off_db

    def rows(self) -> list[tuple[str, str, str]]:
        return [
            (
                "SNR, chopping off [dB]",
                "(flicker-degraded)",
                f"{self.snr_off_db:.1f}",
            ),
            (
                "SNR, chopping on [dB]",
                "(flicker shifted out of band)",
                f"{self.snr_on_db:.1f}",
            ),
            ("recovered [dB]", "> 4", f"{self.recovered_db:+.1f}"),
        ]


def _chopper_task(item: tuple[bool, int, int, float]) -> float:
    """SNR of one chopper arm (executor task, fixed per-arm seed)."""
    chopped, osr, n_out, flicker_corner_hz = item
    flickery = NonidealityParams(
        sampling_cap_f=0.1e-12,
        opamp_gain=1e12,
        clock_jitter_s=0.0,
        flicker_corner_hz=flicker_corner_hz,
    )
    fs = 128e3
    out_rate = fs / osr
    tone = coherent_tone_frequency(15.625, out_rate, n_out)
    t = np.arange((n_out + 16) * osr) / fs
    sdm = ChoppedSecondOrderSDM(
        ModulatorParams(osr=osr),
        flickery,
        enabled=chopped,
        rng=np.random.default_rng(4),
    )
    bits = sdm.simulate(0.8 * np.sin(2 * np.pi * tone * t)).bitstream
    cic = CICDecimator(order=3, decimation=osr, input_bits=2)
    vals = (cic.process(bits.astype(np.int64)).astype(float) / cic.dc_gain)[
        16 : 16 + n_out
    ]
    return float(
        analyze_tone(vals, out_rate, tone_hz=tone, max_band_hz=500.0).snr_db
    )


def run_chopper_ablation(
    osr: int = 128,
    n_out: int = 2048,
    flicker_corner_hz: float = 20e3,
    jobs: int = 1,
) -> ChopperAblationResult:
    """Measure the SNR recovered by chopping on a flicker-heavy loop.

    Not in the paper, but the canonical fix for the 1/f noise any CMOS
    implementation of this front end fights: chop the first integrator
    and the amplifier's low-frequency noise moves out of band. Both arms
    use the same fixed seed, so the comparison isolates the chopper.
    """
    items = [
        (False, int(osr), int(n_out), float(flicker_corner_hz)),
        (True, int(osr), int(n_out), float(flicker_corner_hz)),
    ]
    executor = ParallelExecutor(jobs=jobs)
    off, on = executor.map(_chopper_task, items)
    return ChopperAblationResult(
        snr_off_db=off,
        snr_on_db=on,
        flicker_corner_hz=float(flicker_corner_hz),
        telemetry=executor.telemetry,
    )
