"""Oscillometric hand-cuff simulator: the intermittent baseline.

Models what a conventional automatic cuff does: inflate above systole,
deflate slowly while recording the small pressure oscillations the artery
imprints on the cuff, and estimate systolic/diastolic from the oscillation
envelope with the fixed-ratio algorithm (systole where the envelope climbs
through ~55 % of its peak on the high side, diastole where it falls
through ~60 % on the low side). One measurement takes tens of seconds — the "single measurements at
a rate of some Hertz" limitation the paper's introduction cites — and the
result carries a few mmHg of method error, which propagates into any
calibration anchored to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, SignalQualityError
from ..physiology.patient import VirtualPatient

#: Empirical fixed-ratio constants of commercial oscillometric monitors.
SYSTOLIC_RATIO = 0.55
DIASTOLIC_RATIO = 0.60

# How far above (expected) systole the cuff inflates, the RMS noise of
# its own pressure transducer and the sampling rate of its record.
_INFLATE_MARGIN_MMHG = 30.0
_SENSOR_NOISE_MMHG = 0.15
_SAMPLE_RATE_HZ = 100.0

# Cephes ``ndtr.c`` coefficients: x*T(x^2)/U(x^2) for |x| <= 1 and
# exp(-x^2)*P(x)/Q(x) = erfc(x) for 1 < |x| < 8; U and Q have an implied
# leading 1.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1,
    2.23200534594684319226e3, 7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1,
    7.46321056442269912687e0, 4.86371970985681366614e1,
    1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1,
    3.54937778887819891062e2, 9.75708501743205489753e2,
    1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)


def _horner(x: np.ndarray, coeffs: tuple, monic: bool) -> np.ndarray:
    """Cephes ``polevl`` (``monic=False``) or ``p1evl`` (``True``)."""
    acc = x + coeffs[0] if monic else coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, ``scipy.special.erf`` bit for bit on float64.

    Cephes' rational approximations in Cephes' operation order; the
    exponential is the C library's (:func:`math.exp`), which is what
    Cephes calls, because NumPy's vectorized ``exp`` can differ in the
    last bit. ``|x| >= 8`` gives exactly +-1, NaN gives NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.full_like(x, np.nan)
    a = np.abs(x)
    small = a <= 1.0
    xs = x[small]
    z = xs * xs
    out[small] = xs * _horner(z, _ERF_T, False) / _horner(z, _ERF_U, True)
    mid = (a > 1.0) & (a < 8.0)
    am = a[mid]
    decay = np.array([math.exp(v) for v in (-(am * am)).tolist()])
    erfc = (decay * _horner(am, _ERFC_P, False)) / _horner(am, _ERFC_Q, True)
    out[mid] = np.copysign(1.0 - erfc, x[mid])
    big = a >= 8.0
    out[big] = np.copysign(1.0, x[big])
    return out


@dataclass(frozen=True)
class CuffReading:
    """One completed cuff measurement."""

    systolic_mmhg: float
    diastolic_mmhg: float
    map_mmhg: float
    measurement_duration_s: float
    #: Cuff pressure and oscillation-envelope traces (for inspection).
    cuff_pressure_mmhg: np.ndarray
    envelope_mmhg: np.ndarray
    times_s: np.ndarray


class OscillometricCuff:
    """Automatic oscillometric cuff.

    Parameters
    ----------
    deflation_rate_mmhg_per_s:
        Linear bleed rate (clinical practice: 2-3 mmHg/s).
    width_above_map_mmhg, width_below_map_mmhg:
        Widths of the (asymmetric) bell curve relating oscillation
        amplitude to transmural pressure. Clinical envelopes fall off
        more slowly on the high-cuff-pressure side than on the low side;
        the defaults make the fixed-ratio estimates land near the true
        values for a normotensive subject, as commercial devices are
        tuned to do.
    """

    def __init__(
        self,
        deflation_rate_mmhg_per_s: float = 3.0,
        width_above_map_mmhg: float = 10.0,
        width_below_map_mmhg: float = 6.0,
    ):
        if deflation_rate_mmhg_per_s <= 0:
            raise ConfigurationError("deflation rate must be positive")
        if width_above_map_mmhg <= 0 or width_below_map_mmhg <= 0:
            raise ConfigurationError("widths must be positive")
        self.deflation_rate = float(deflation_rate_mmhg_per_s)
        self.width_above_map = float(width_above_map_mmhg)
        self.width_below_map = float(width_below_map_mmhg)

    def measure(
        self,
        patient: VirtualPatient,
        start_time_s: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> CuffReading:
        """Run one inflate-deflate cycle against the virtual patient."""
        rng = rng or np.random.default_rng(401)
        # Plan the deflation ramp from above systole to below diastole.
        expected_sys = patient.params.systolic_mmhg
        expected_dia = patient.params.diastolic_mmhg
        start_pressure = expected_sys + _INFLATE_MARGIN_MMHG
        stop_pressure = max(expected_dia - 25.0, 20.0)
        duration = (start_pressure - stop_pressure) / self.deflation_rate

        recording = patient.record(
            duration_s=duration + 2.0, sample_rate_hz=_SAMPLE_RATE_HZ
        )
        t = recording.times_s
        arterial = recording.pressure_mmhg
        cuff = start_pressure - self.deflation_rate * t

        # Oscillation = arterial volume state under the cuff. The artery's
        # compliance dV/dP is a bell around zero transmural pressure, so
        # the volume (its integral over pressure) is an erf of the
        # instantaneous transmural pressure. The per-beat volume excursion
        # — what the device's envelope tracks — is then maximal while the
        # compliance bell lies inside the [dia, sys] swing and rolls off
        # exactly as the cuff pressure crosses systole (high side) and
        # diastole (low side): the mechanism that makes fixed-ratio
        # estimates track sys/dia across patients with different pulse
        # pressures. Width asymmetry matches the artery's stiffer
        # collapse-side behaviour.
        transmural = cuff - arterial
        width = np.where(
            transmural >= 0.0, self.width_above_map, self.width_below_map
        )
        volume_state = erf(-transmural / (width * np.sqrt(2.0)))
        # Full volume swing imprints ~1.5 mmHg on the cuff (clinical
        # oscillation amplitudes are 1-3 mmHg).
        oscillation = 1.5 * volume_state
        measured = cuff + oscillation + _SENSOR_NOISE_MMHG * rng.standard_normal(
            t.size
        )

        envelope = self._beat_envelope(measured - cuff, t, patient)
        return self._estimate(measured, envelope, cuff, t, start_time_s)

    def _beat_envelope(
        self,
        oscillation: np.ndarray,
        times_s: np.ndarray,
        patient: VirtualPatient,
    ) -> np.ndarray:
        """Per-beat peak-to-peak amplitude, interpolated to the grid."""
        rr = 60.0 / patient.params.heart_rate_bpm
        window = max(int(rr * _SAMPLE_RATE_HZ), 4)
        n_windows = oscillation.size // window
        if n_windows < 5:
            raise SignalQualityError("deflation too fast: too few beats")
        centers = []
        amplitudes = []
        for k in range(n_windows):
            seg = oscillation[k * window : (k + 1) * window]
            centers.append(times_s[k * window + window // 2])
            amplitudes.append(float(seg.max() - seg.min()))
        return np.interp(times_s, centers, amplitudes)

    def _estimate(
        self,
        measured: np.ndarray,
        envelope: np.ndarray,
        cuff: np.ndarray,
        times_s: np.ndarray,
        start_time_s: float,
    ) -> CuffReading:
        peak_idx = int(np.argmax(envelope))
        peak_amp = float(envelope[peak_idx])
        if peak_amp <= 0:
            raise SignalQualityError("no oscillation envelope detected")

        # Fixed-ratio points: systolic on the high-pressure (early) side,
        # diastolic on the low-pressure (late) side.
        sys_region = envelope[:peak_idx]
        above = np.nonzero(sys_region >= SYSTOLIC_RATIO * peak_amp)[0]
        if above.size == 0:
            raise SignalQualityError("systolic ratio point not found")
        systolic = float(cuff[above[0]])

        dia_region = envelope[peak_idx:]
        below = np.nonzero(dia_region <= DIASTOLIC_RATIO * peak_amp)[0]
        if below.size == 0:
            raise SignalQualityError("diastolic ratio point not found")
        diastolic = float(cuff[peak_idx + below[0]])

        # MAP by the clinical formula, as commercial devices report it:
        # the volume-swing envelope is plateau-shaped between diastole
        # and systole, so its raw argmax is a poor MAP estimator.
        map_mmhg = diastolic + (systolic - diastolic) / 3.0

        return CuffReading(
            systolic_mmhg=systolic,
            diastolic_mmhg=diastolic,
            map_mmhg=map_mmhg,
            measurement_duration_s=float(times_s[-1] - times_s[0]),
            cuff_pressure_mmhg=cuff,
            envelope_mmhg=envelope,
            times_s=times_s + start_time_s,
        )

    def measurement_interval_s(self, rest_s: float = 30.0) -> float:
        """Minimum time between successive readings (cycle + venous rest).

        This is the number that makes the cuff *intermittent*: the
        tonometer produces 1000 samples/s, the cuff one reading per
        minute-ish.
        """
        typical_cycle = (120.0 + _INFLATE_MARGIN_MMHG - 55.0) / self.deflation_rate
        return typical_cycle + rest_s
