"""Applanation contact mechanics: hold-down pressure and pulse transmission.

Tonometry's central mechanism: pressing the sensor onto the wrist
partially flattens (applanates) the artery. When the hold-down pressure
matches the mean transmural pressure, the wall carries no net load and
the full intra-arterial pulsation transmits to the contact; pressing too
lightly leaves tissue compliance in series (attenuation), pressing too
hard collapses the vessel (the pulse amplitude rolls off). The classic
inverted-U transmission curve is modelled as a Gaussian in hold-down
pressure around the optimum, with the PDMS layer adding a series-spring
attenuation.

References [1, 2] of the paper describe this measurement principle; the
quantitative curve here is phenomenological but reproduces its shape and
the calibration consequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..params import ContactParams, PASCAL_PER_MMHG, TissueParams


@dataclass(frozen=True)
class ContactState:
    """Operating point of the sensor-tissue contact."""

    hold_down_pa: float
    transmission: float  # pulsatile coupling gain in [0, 1]
    static_membrane_pressure_pa: float  # net DC pressure on the membranes
    optimal_hold_down_pa: float


class ContactModel:
    """Hold-down-dependent pulse transmission.

    Parameters
    ----------
    contact:
        Hold-down, PDMS and backpressure parameters.
    tissue:
        Tissue stack parameters (for the series-compliance attenuation).
    mean_arterial_pressure_pa:
        The subject's MAP, which sets the optimum hold-down. In a real
        measurement this is unknown; the hold-down sweep of the
        localization experiment shows the optimum empirically.
    transmission_width_fraction:
        Width of the transmission curve relative to the optimum pressure.
    """

    def __init__(
        self,
        contact: ContactParams | None = None,
        tissue: TissueParams | None = None,
        mean_arterial_pressure_pa: float = 93.0 * PASCAL_PER_MMHG,
        transmission_width_fraction: float = 0.6,
    ):
        if mean_arterial_pressure_pa <= 0:
            raise ConfigurationError("MAP must be positive")
        if transmission_width_fraction <= 0:
            raise ConfigurationError("transmission width must be positive")
        self.contact = contact or ContactParams()
        self.tissue = tissue or TissueParams()
        self.map_pa = float(mean_arterial_pressure_pa)
        self.width_fraction = float(transmission_width_fraction)

    @property
    def optimal_hold_down_pa(self) -> float:
        """Hold-down pressure at peak transmission (≈ MAP)."""
        return self.map_pa

    @property
    def pdms_attenuation(self) -> float:
        """Series-spring attenuation of the PDMS contact layer.

        The PDMS (stiffness E_pdms / t_pdms per unit area) is in series
        with the tissue (E_tissue / depth); the membrane sees the divider
        ratio. PDMS is far stiffer per unit thickness than tissue, so the
        attenuation is mild — the reason the paper can afford a protective
        elastomer at all.
        """
        k_pdms = self.contact.pdms_modulus_pa / self.contact.pdms_thickness_m
        k_tissue = self.tissue.tissue_modulus_pa / self.tissue.artery_depth_m
        return k_pdms / (k_pdms + k_tissue)

    def transmission(self, hold_down_pa: np.ndarray | float) -> np.ndarray:
        """Pulsatile transmission vs hold-down (the inverted-U curve)."""
        hold = np.asarray(hold_down_pa, dtype=float)
        if np.any(hold < 0):
            raise ConfigurationError("hold-down pressure must be >= 0")
        width = self.width_fraction * self.optimal_hold_down_pa
        curve = np.exp(
            -((hold - self.optimal_hold_down_pa) ** 2) / (2.0 * width**2)
        )
        # No contact, no signal: force transmission to zero at zero
        # hold-down with a soft engagement threshold.
        engagement = 1.0 - np.exp(-hold / (0.1 * self.optimal_hold_down_pa))
        return curve * engagement * self.pdms_attenuation

    def state(self, hold_down_pa: float | None = None) -> ContactState:
        """Full operating point at a hold-down pressure (default: params)."""
        hold = (
            float(hold_down_pa)
            if hold_down_pa is not None
            else self.contact.hold_down_pa
        )
        trans = float(self.transmission(hold))
        # DC pressure on the membranes: the hold-down reaction minus the
        # backside bias that pre-bends them outward.
        static = hold - self.contact.backpressure_pa
        return ContactState(
            hold_down_pa=hold,
            transmission=trans,
            static_membrane_pressure_pa=static,
            optimal_hold_down_pa=self.optimal_hold_down_pa,
        )
