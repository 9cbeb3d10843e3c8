"""IMG: N x N pressure imaging — artery line, fusion, drift tracking.

The paper's array is 2x2 but "modular ... extensible to larger arrays";
its amplitude scan "can also be used for localizing blood vessels, buried
in tissue". This harness runs that claim at imaging scale:

1. an N x N (default 8x8) scan through the *full readout chain* — every
   element's dwell converted by the fused batch kernel in one pass
   (:mod:`repro.array.fusedscan`) — folded into a pulsatile amplitude
   image;
2. the artery recovered as a sub-pixel *line* (transverse position +
   tilt) from that image and checked against the placement ground truth;
3. matched-filter fusion of many elements against the paper's
   strongest-element selection over a placement-drift sweep (the fusion
   gain is guaranteed >= 1 whenever more than one element couples);
4. sub-pixel registration of two amplitude images bracketing a known
   drift — the frame-to-frame tracking primitive.

The scan timetable (settling budget vs frame rate, shared converter vs
per-column ΣΔ banks) comes from :meth:`ScanController.schedule`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ..array.imaging import amplitude_image, fuse_elements, localize_artery
from ..array.scan import ScanController
from ..core.chain import ReadoutChain
from ..errors import ConfigurationError
from ..params import ArrayParams, NonidealityParams, SystemParams
from ..tonometry.contact import ContactModel
from ..tonometry.coupling import TonometricCoupling
from ..tonometry.placement import ArrayPlacement


@dataclass(frozen=True)
class ImagingResult:
    """Imaging workload outcome (chain scan + analytic drift sweeps)."""

    array_shape: tuple[int, int]
    #: Whether the chain scan ran through the fused batch kernel.
    fused: bool
    #: Pulsatile amplitude image from the chain scan (rows, cols).
    amplitude_map: np.ndarray
    #: Ground-truth artery line in array coordinates.
    true_transverse_m: float
    true_angle_rad: float
    #: Line estimate from the amplitude image.
    est_transverse_m: float
    est_angle_rad: float
    #: Strongest-element selection contrast on the same records.
    selection_contrast: float
    #: Words the scan alignment dropped (booked, not silent).
    truncated_words: int
    #: Matched-filter fusion vs strongest element over the drift sweep.
    fusion_gain_predicted: float
    fusion_gain_measured: float
    #: Sub-pixel registration of the drifted amplitude image.
    drift_m: float
    registered_drift_m: float
    #: Scan timetable: shared converter vs one ΣΔ bank per column.
    frame_rate_shared_hz: float
    frame_rate_banked_hz: float

    @property
    def transverse_error_m(self) -> float:
        return abs(self.est_transverse_m - self.true_transverse_m)

    @property
    def angle_error_rad(self) -> float:
        return abs(self.est_angle_rad - self.true_angle_rad)

    def rows(self) -> list[tuple[str, str, str]]:
        rows_, cols_ = self.array_shape
        return [
            (
                "scan path",
                "fused batch kernel",
                "fused" if self.fused else "batched fallback",
            ),
            (
                f"artery transverse error ({rows_}x{cols_}) [um]",
                "sub-pixel (< element pitch)",
                f"{self.transverse_error_m * 1e6:.1f}",
            ),
            (
                "artery angle error [mrad]",
                "(not quoted)",
                f"{self.angle_error_rad * 1e3:.2f}",
            ),
            (
                "selection contrast (best/median)",
                "> 1",
                f"{self.selection_contrast:.3f}",
            ),
            (
                "fusion SNR gain vs strongest [dB]",
                ">= 0 (Cauchy-Schwarz)",
                f"{20 * math.log10(self.fusion_gain_measured):.2f} "
                f"(predicted {20 * math.log10(self.fusion_gain_predicted):.2f})",
            ),
            (
                "registered drift [um]",
                f"{-self.drift_m * 1e6:.0f} (truth)",
                f"{self.registered_drift_m * 1e6:.0f}",
            ),
            (
                "frame rate, shared converter [Hz]",
                "(timetable)",
                f"{self.frame_rate_shared_hz:.3f}",
            ),
            (
                "frame rate, per-column banks [Hz]",
                "(timetable)",
                f"{self.frame_rate_banked_hz:.3f}",
            ),
            (
                "scan words truncated (booked)",
                "accounted",
                f"{self.truncated_words}",
            ),
        ]


def _matched_snr(record: np.ndarray, template: np.ndarray) -> float:
    """SNR of one record against a unit-norm template."""
    amp = float(record @ template)
    residual = record - amp * template
    noise = float(residual.std(ddof=1))
    return amp / noise if noise > 0 else math.inf


def run_imaging(
    params: SystemParams | None = None,
    rows: int = 8,
    cols: int = 8,
    pitch_m: float = 0.6e-3,
    lateral_offset_m: float = 0.2e-3,
    rotation_rad: float = 0.06,
    drift_m: float = 0.3e-3,
    pulse_rate_hz: float = 1.25,
    noise_fraction: float = 0.2,
    seed: int = 20040204,
) -> ImagingResult:
    """Image the artery with an N x N scan and quantify the estimates.

    The chain scan is noiseless (ideal nonidealities) so the image is the
    deterministic coupling footprint; the fusion sweep adds seeded white
    noise at ``noise_fraction`` of the strongest element's amplitude to
    measure the matched-filter gain the image predicts.

    ``pitch_m`` spaces the imaging array at wrist scale (default 0.6 mm,
    an 8x8 footprint of ~4 mm): the paper's 150 um pitch makes the 2x2
    array insensitive to placement, but an *imaging* array must span the
    tissue coupling profile (sigma ~2.5 mm) to resolve its shape. The
    amplitude metric is ``std`` over one full pulse period — unlike
    peak-to-peak it integrates every word, so the sub-LSB amplitude
    differences between neighboring elements survive quantization.
    """
    if rows < 2 or cols < 3:
        raise ConfigurationError("imaging needs >= 2 rows and >= 3 cols")
    base = params or SystemParams()
    membrane = dataclasses.replace(base.array.membrane, pitch_m=pitch_m)
    params = base.replace(
        array=ArrayParams(rows=rows, cols=cols, membrane=membrane),
        nonideality=NonidealityParams.ideal(),
    )
    chain = ReadoutChain(params)
    controller = ScanController(chain.chip.mux)
    geometry = chain.chip.array.geometry
    n_elements = rows * cols

    # Scan timetable: the settling budget fixes words discarded per
    # visit; one cardiac period of valid words per element.
    decim = params.decimation.total_decimation
    period_words = int(round(chain.output_rate_hz / pulse_rate_hz))
    shared = controller.schedule(chain.fpga.filter, valid_words=period_words)
    banked = controller.schedule(
        chain.fpga.filter, valid_words=period_words, banks=cols
    )

    # Ground truth: the artery runs along y in the patient frame; in
    # array coordinates it is the line x(y) = tan(rot) y - off / cos(rot).
    placement = ArrayPlacement(
        lateral_offset_m=lateral_offset_m, rotation_rad=rotation_rad
    )
    true_transverse = -lateral_offset_m / math.cos(rotation_rad)
    contact = ContactModel(contact=params.contact, tissue=params.tissue)
    coupling = TonometricCoupling(
        geometry, contact, placement=placement, contact_heterogeneity=0.0
    )

    # One arterial pulse per element visit, in O(elements x dwell)
    # memory via per-element segments. The dwell carries the settling
    # budget plus exactly one pulse period of valid words so the
    # peak-to-peak amplitude is phase-invariant across elements.
    dwell_words = shared.words_per_visit
    dwell_mod = dwell_words * decim
    fs = params.modulator.sampling_rate_hz
    t = np.arange(n_elements * dwell_mod) / fs
    pp_pa = 5000.0
    arterial = (
        coupling.contact.map_pa
        + 0.5 * pp_pa * np.sin(2 * np.pi * pulse_rate_hz * t)
        + 0.15 * pp_pa * np.sin(2 * np.pi * 2 * pulse_rate_hz * t)
    )
    segments = coupling.scan_pressure_segments(arterial, dwell_mod)
    records = controller.scan_records(chain, segments=segments, fused=True)
    truncation = controller.last_scan_truncation
    settled = records[shared.settle_words :][:period_words]

    amp_map = amplitude_image(settled, rows, cols, metric="std")
    estimate = localize_artery(amp_map, geometry)
    selection = controller.select_strongest(settled, metric="std")

    # Fusion vs strongest-element over a placement drift sweep, with
    # seeded per-element noise on analytically coupled records.
    rng = np.random.default_rng(seed)
    out_rate = chain.output_rate_hz
    n_t = int(2 * out_rate)
    tt = np.arange(n_t) / out_rate
    template = np.sin(2 * np.pi * pulse_rate_hz * tt)
    template /= np.linalg.norm(template)
    predicted = []
    measured = []
    for d in np.linspace(0.0, drift_m, 4):
        moved = coupling.with_placement(placement.perturbed(float(d)))
        gains = moved.effective_gain()
        sigma = noise_fraction * float(gains.max())
        synth = np.outer(template, gains) + sigma / math.sqrt(n_t) * (
            rng.standard_normal((n_t, n_elements))
        )
        fusion = fuse_elements(synth)
        predicted.append(fusion.predicted_snr_gain)
        measured.append(
            _matched_snr(fusion.waveform, template)
            / _matched_snr(synth[:, fusion.best_index], template)
        )

    # Frame-to-frame drift tracking by registration-through-localization:
    # the artery is a ridge, so plain 2-D cross-correlation is blind
    # along the vessel axis (aperture problem) — but the difference of
    # the two frames' sub-pixel line estimates measures exactly the
    # observable component. Moving the array by +d moves the pattern by
    # -d/cos(rot) in array coordinates.
    ref_map = coupling.element_weights().reshape(rows, cols)
    drifted = coupling.with_placement(placement.perturbed(drift_m))
    moved_map = drifted.element_weights().reshape(rows, cols)
    dx = (
        localize_artery(moved_map, geometry).transverse_m
        - localize_artery(ref_map, geometry).transverse_m
    )

    return ImagingResult(
        array_shape=(rows, cols),
        fused=controller.last_scan_fused,
        amplitude_map=amp_map,
        true_transverse_m=true_transverse,
        true_angle_rad=rotation_rad,
        est_transverse_m=estimate.transverse_m,
        est_angle_rad=estimate.angle_rad,
        selection_contrast=selection.contrast,
        truncated_words=truncation.total_dropped if truncation else 0,
        fusion_gain_predicted=float(np.mean(predicted)),
        fusion_gain_measured=float(np.mean(measured)),
        drift_m=drift_m / math.cos(rotation_rad),
        registered_drift_m=dx,
        frame_rate_shared_hz=shared.frame_rate_hz,
        frame_rate_banked_hz=banked.frame_rate_hz,
    )
