"""Input branches of the modulator: capacitive sensing and voltage test.

Fig. 6 shows the sensor capacitor ``Csense`` and reference capacitor
``Cref`` driven by the reference voltages so the first stage integrates a
charge proportional to ``(Csense - Cref) * Vref``. Normalized to the
feedback charge ``Cfb * Vref``, the loop input is

    u = (Csense - Cref) / Cfb.

The chip also has a "differential voltage interface, so a full
characterization of the analog to digital conversion ... can be
accomplished, independent of the connected transducer" (Sec. 3) — that is
:class:`VoltageFrontEnd`, the path used for Fig. 7.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


class CapacitiveFrontEnd:
    """Capacitance-difference to normalized-loop-input conversion.

    Parameters
    ----------
    reference_cap_f:
        The on-chip reference structure's capacitance [F]. Nominally it
        matches the sensor's rest capacitance so u = 0 at zero pressure.
    feedback_cap_f:
        First-stage feedback capacitor Cfb [F]. Smaller Cfb means more
        gain per farad of sensor change — the paper's proposed resolution
        knob ("adjusting the feedback capacitors of the first modulator
        stage").
    excitation_fraction:
        Ratio of the actual excitation voltage on the sensor/reference
        branch to Vref (1.0 in the nominal design).
    """

    def __init__(
        self,
        reference_cap_f: float,
        feedback_cap_f: float = 200e-15,
        excitation_fraction: float = 1.0,
    ):
        if reference_cap_f <= 0 or feedback_cap_f <= 0:
            raise ConfigurationError("capacitances must be positive")
        if excitation_fraction <= 0:
            raise ConfigurationError("excitation fraction must be positive")
        self.reference_cap_f = float(reference_cap_f)
        self.feedback_cap_f = float(feedback_cap_f)
        self.excitation_fraction = float(excitation_fraction)

    def loop_input(self, sense_cap_f: np.ndarray | float) -> np.ndarray:
        """Normalized modulator input u for sensor capacitance values."""
        sense = np.asarray(sense_cap_f, dtype=float)
        if np.any(sense <= 0):
            raise ConfigurationError("sensor capacitance must be positive")
        return (
            (sense - self.reference_cap_f)
            / self.feedback_cap_f
            * self.excitation_fraction
        )

    @property
    def gain_per_farad(self) -> float:
        """du/dCsense [1/F]."""
        return self.excitation_fraction / self.feedback_cap_f


class VoltageFrontEnd:
    """Differential voltage test input (Sec. 3's characterization path)."""

    def __init__(self, vref_v: float = 2.5):
        if vref_v <= 0:
            raise ConfigurationError("reference voltage must be positive")
        self.vref_v = float(vref_v)

    def loop_input(self, differential_voltage_v: np.ndarray | float) -> np.ndarray:
        """Normalize a differential input voltage to Vref units."""
        return np.asarray(differential_voltage_v, dtype=float) / self.vref_v
