"""Temperature drift of the membrane transducer.

A skin-contact sensor warms from ambient (~23 C) to near skin temperature
(~33 C) over the first minutes of wear, and the capacitance transfer
drifts with it:

* **thermal expansion mismatch** between the film stack and the silicon
  frame changes the residual membrane stress (the dominant term — CMOS
  dielectrics vs. Si differ by several ppm/K, and stress feeds directly
  into the plate stiffness);
* **gap expansion** changes the rest capacitance directly (minor).

Since the recorded signal is relative and calibrated, slow thermal drift
shows up as *calibration decay*: the gain/offset anchored by the cuff at
t=0 no longer fit minutes later. The drift tracker in
:mod:`repro.calibration.drift` consumes this model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..params import MembraneParams
from .membrane import MembraneSensor

#: Thermal-expansion mismatch stress coefficient of the CMOS stack on
#: silicon [Pa/K]. d(sigma)/dT = E_eff/(1-nu) * (alpha_film - alpha_si);
#: with alpha difference ~2 ppm/K and biaxial modulus ~100 GPa this is
#: ~0.2 MPa/K; tensile films relax as the die warms.
STRESS_TEMPERATURE_COEFF_PA_PER_K = -0.2e6


@dataclass(frozen=True)
class ThermalState:
    """Sensor temperature trajectory parameters."""

    ambient_c: float = 23.0
    skin_c: float = 33.0
    warmup_tau_s: float = 90.0

    def temperature_c(self, times_s: np.ndarray) -> np.ndarray:
        """First-order warm-up from ambient toward skin temperature."""
        t = np.asarray(times_s, dtype=float)
        return self.skin_c + (self.ambient_c - self.skin_c) * np.exp(
            -np.maximum(t, 0.0) / self.warmup_tau_s
        )


class ThermalMembraneModel:
    """Temperature-dependent membrane transfer.

    Builds a reference :class:`MembraneSensor` for the paper-default
    membrane at the calibration temperature and evaluates
    sensitivity/offset drift at other temperatures by re-solving the
    plate with the shifted residual stress (exact, not linearized —
    construction is cached per queried temperature).
    """

    #: Calibration temperature [degC].
    REFERENCE_TEMPERATURE_C = 23.0

    def __init__(self):
        self.params = MembraneParams()
        self._cache: dict[float, MembraneSensor] = {}
        self.reference = self.sensor_at(self.REFERENCE_TEMPERATURE_C)

    def sensor_at(self, temperature_c: float) -> MembraneSensor:
        """Membrane model at a given die temperature."""
        key = round(float(temperature_c), 3)
        if key not in self._cache:
            delta_t = key - self.REFERENCE_TEMPERATURE_C
            stress = (
                self.params.residual_stress_pa
                + STRESS_TEMPERATURE_COEFF_PA_PER_K * delta_t
            )
            import dataclasses

            shifted = dataclasses.replace(
                self.params, residual_stress_pa=stress
            )
            self._cache[key] = MembraneSensor(shifted)
        return self._cache[key]

    def sensitivity_drift_fraction(self, temperature_c: float) -> float:
        """Relative sensitivity change vs the reference temperature."""
        ref = self.reference.pressure_sensitivity_f_per_pa(0.0)
        now = self.sensor_at(temperature_c).pressure_sensitivity_f_per_pa(0.0)
        return (now - ref) / ref

    def gain_drift_over_warmup(
        self, state: ThermalState, times_s: np.ndarray
    ) -> np.ndarray:
        """Sensitivity drift trajectory during a wear session."""
        temps = state.temperature_c(np.asarray(times_s, dtype=float))
        return np.array(
            [self.sensitivity_drift_fraction(float(t)) for t in temps]
        )


def drift_induced_bp_error_mmhg(
    gain_drift_fraction: float, pulse_pressure_mmhg: float = 40.0
) -> float:
    """BP error caused by uncorrected gain drift.

    A two-point calibration fixes the gain at t=0; a later relative gain
    change of ``g`` scales the measured pulse pressure by (1+g), so the
    systolic error is ~ g * PP (diastole is pinned by the offset track).
    """
    if pulse_pressure_mmhg <= 0:
        raise ConfigurationError("pulse pressure must be positive")
    return float(gain_drift_fraction * pulse_pressure_mmhg)
