"""End-to-end tonometric coupling: arterial pressure to membrane pressure.

Combines the contact model (hold-down transmission), the placement model
(per-element coupling weights) and the static operating point into the
per-element membrane pressure time series the sensor array converts to
capacitance:

    P_elem(t) = P_static + T(hold_down) * w_elem * (P_art(t) - MAP)

where T is the applanation transmission, w_elem the lateral coupling
weight, and P_static the DC pressure (hold-down reaction minus
backpressure bias). The recorded waveform is thus *relative* — exactly as
the paper notes: "the acquired signal is relative to the pressure applied
to the skin surface ... In order to get absolute pressure values, a
calibration has to be performed."
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..mems.geometry import ArrayGeometry
from ..physiology.tissue import TissueTransfer
from .contact import ContactModel
from .placement import ArrayPlacement


class TonometricCoupling:
    """Arterial-pressure-to-element-pressure transfer.

    Parameters
    ----------
    geometry:
        Array layout (element positions).
    contact:
        Applanation/contact model, carrying the subject's MAP.
    tissue:
        Tissue transfer (lateral coupling profile).
    placement:
        Where the array sits relative to the artery.
    contact_heterogeneity:
        1-sigma of log-normal per-element contact-quality factors. At the
        150 um array pitch the smooth tissue bump couples almost equally
        into every element; what actually differentiates them in practice
        is local contact quality (skin texture, trapped air under the
        PDMS, epoxy edges). This is the physical reason the paper's
        strongest-element selection exists. Set 0 for perfectly uniform
        contact.
    rng:
        Randomness for the heterogeneity draw (seeded default).
    """

    def __init__(
        self,
        geometry: ArrayGeometry,
        contact: ContactModel,
        tissue: TissueTransfer | None = None,
        placement: ArrayPlacement | None = None,
        contact_heterogeneity: float = 0.25,
        rng: np.random.Generator | None = None,
    ):
        if contact_heterogeneity < 0:
            raise ConfigurationError("contact heterogeneity must be >= 0")
        self.geometry = geometry
        self.contact = contact
        self.tissue = tissue or TissueTransfer(contact.tissue)
        self.placement = placement or ArrayPlacement()
        self.contact_heterogeneity = float(contact_heterogeneity)
        rng = rng or np.random.default_rng(347)
        n = geometry.rows * geometry.cols
        if contact_heterogeneity > 0:
            draw = rng.lognormal(
                mean=-0.5 * contact_heterogeneity**2,
                sigma=contact_heterogeneity,
                size=n,
            )
            self.contact_quality = np.clip(draw, 0.0, 1.0)
        else:
            self.contact_quality = np.ones(n)

    def element_weights(self) -> np.ndarray:
        """Per-element coupling: lateral profile times contact quality."""
        lateral = self.placement.coupling_weights(self.geometry, self.tissue)
        return lateral * self.contact_quality

    def pressure_field_fn(self, hold_down_pa: float | None = None):
        """Freeze the operating point into a per-chunk field converter.

        Returns ``field(arterial_pressure_pa) -> (n, n_elements)`` with
        the contact state and element weights evaluated once — the
        streaming form of :meth:`element_pressures_pa` (which delegates
        here), so converting a record chunk-by-chunk is bit-identical to
        converting it whole, at O(chunk) memory.

        The field is built element-major and returned as the transpose
        view, so it is F-ordered: each element's series is contiguous,
        which is how the front ends read one routed element. The values
        are those of the time-major ``P_static + T * outer(pulsatile,
        w)``, bit for bit (the same products and sums, in place).
        """
        state = self.contact.state(hold_down_pa)
        weights = self.element_weights()
        map_pa = self.contact.map_pa

        def field(arterial_pressure_pa: np.ndarray) -> np.ndarray:
            arterial = np.asarray(arterial_pressure_pa, dtype=float)
            if arterial.ndim != 1:
                raise ConfigurationError("arterial pressure must be 1-D")
            pulsatile = arterial - map_pa
            out = np.multiply.outer(weights, pulsatile)
            out *= state.transmission
            out += state.static_membrane_pressure_pa
            return out.T

        return field

    def element_pressures_pa(
        self,
        arterial_pressure_pa: np.ndarray,
        hold_down_pa: float | None = None,
    ) -> np.ndarray:
        """Membrane pressure time series for every element.

        Parameters
        ----------
        arterial_pressure_pa:
            Ground-truth intra-arterial pressure [Pa], shape (n_samples,).
        hold_down_pa:
            Override of the contact's hold-down operating point.

        Returns
        -------
        (n_samples, n_elements) membrane pressures [Pa], positive pressing
        the membranes toward their bottom electrodes; F-ordered (see
        :meth:`pressure_field_fn`).
        """
        return self.pressure_field_fn(hold_down_pa)(arterial_pressure_pa)

    def scan_pressure_segments(
        self,
        arterial_pressure_pa: np.ndarray,
        dwell_samples: int,
        hold_down_pa: float | None = None,
    ) -> np.ndarray:
        """Per-element dwell segments for a row-major scan of the array.

        Element k of a scan only ever routes samples
        ``[k*dwell, (k+1)*dwell)`` of the field, so a large-array scan
        needs just this (n_elements, dwell_samples) matrix — O(elements
        x dwell) memory instead of the O(samples x elements) full field
        :meth:`element_pressures_pa` would materialize (171 GB at 64x64
        with a one-second dwell). Row k is bit-identical to the
        corresponding window/column of the full field.
        """
        arterial = np.asarray(arterial_pressure_pa, dtype=float)
        if arterial.ndim != 1:
            raise ConfigurationError("arterial pressure must be 1-D")
        if dwell_samples < 1:
            raise ConfigurationError("dwell must be >= 1 sample")
        n = self.geometry.rows * self.geometry.cols
        if arterial.size < dwell_samples * n:
            raise ConfigurationError(
                "arterial record too short for the requested scan"
            )
        state = self.contact.state(hold_down_pa)
        weights = self.element_weights()
        # One result array, built in place: the products and the sum of
        # ``P_static + T * (pulsatile * w)`` commute, so the bits match.
        pulsatile = arterial[: dwell_samples * n].reshape(n, dwell_samples)
        out = pulsatile - self.contact.map_pa
        out *= weights[:, None]
        out *= state.transmission
        out += state.static_membrane_pressure_pa
        return out

    def effective_gain(self) -> np.ndarray:
        """Per-element d(P_membrane)/d(P_arterial) at the configured
        hold-down pressure."""
        state = self.contact.state()
        return state.transmission * self.element_weights()

    def with_placement(self, placement: ArrayPlacement) -> "TonometricCoupling":
        """Same physics (including the heterogeneity draw) at a different
        placement (for sweeps)."""
        moved = TonometricCoupling(
            geometry=self.geometry,
            contact=self.contact,
            tissue=self.tissue,
            placement=placement,
            contact_heterogeneity=0.0,
        )
        moved.contact_quality = self.contact_quality.copy()
        moved.contact_heterogeneity = self.contact_heterogeneity
        return moved
