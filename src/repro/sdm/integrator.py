"""Switched-capacitor integrator stage with analog non-idealities.

One stage of Fig. 6's two-stage SC filter. The behavioural update is

    x[n+1] = p * x[n] + gain_eps * (a * in[n] - b * fb[n]) + noise[n]

where ``p`` is the finite-DC-gain leak, ``gain_eps`` the static charge-
transfer gain error (also from finite gain), and the state saturates at
the op-amp output swing.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .nonidealities import leak_factor_from_gain


class SCIntegrator:
    """Behavioural delaying SC integrator.

    Parameters
    ----------
    signal_gain:
        Charge-transfer gain ``a`` of the input branch (Cin/Cint).
    feedback_gain:
        Gain ``b`` of the DAC branch (Cfb/Cint).
    opamp_gain:
        Finite op-amp DC gain; sets the leak and the static gain error.
    swing_limit:
        Output saturation (in Vref-normalized units). Real SC integrators
        clip at the supply; 2-3x Vref is typical headroom for 5 V designs.
    """

    def __init__(
        self,
        signal_gain: float,
        feedback_gain: float,
        opamp_gain: float = 1e12,
        swing_limit: float = 3.0,
    ):
        if signal_gain <= 0 or feedback_gain <= 0:
            raise ConfigurationError("gains must be positive")
        if swing_limit <= 0:
            raise ConfigurationError("swing limit must be positive")
        self.signal_gain = float(signal_gain)
        self.feedback_gain = float(feedback_gain)
        self.opamp_gain = float(opamp_gain)
        self.swing_limit = float(swing_limit)
        self.leak = leak_factor_from_gain(opamp_gain, signal_gain)
        # Static charge-transfer deficit: a fraction 1/A of the charge
        # stays on the input cap.
        self.gain_error = 1.0 - 1.0 / opamp_gain
        self.state = 0.0

    def reset(self) -> None:
        self.state = 0.0

    def step(self, signal_in: float, feedback_in: float, noise: float = 0.0) -> float:
        """Advance one clock; returns the *previous* state (delaying).

        The delaying integrator presents last cycle's state to the next
        stage while absorbing this cycle's charge packet.
        """
        output = self.state
        new_state = (
            self.leak * self.state
            + self.gain_error
            * (self.signal_gain * signal_in - self.feedback_gain * feedback_in)
            + noise
        )
        self.state = float(np.clip(new_state, -self.swing_limit, self.swing_limit))
        return output
