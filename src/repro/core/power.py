"""Power model anchored at the paper's measurement.

Sec. 3.1: "The power consumption of the sensor chip is 11.5 mW at 5 V
supply voltage for 128 kHz sampling frequency." The model splits that
budget into a static analog part (bias currents of the two integrator
op-amps and the comparator, frequency-independent) and a dynamic
switched-capacitor/digital part (C V^2 f, scaling linearly with clock and
quadratically with supply), then lets experiments ask what-if questions —
e.g. the future-work "increased conversion rate".

The 60/40 static/dynamic split is an estimate typical for 0.8 um SC
designs; it is a model *assumption*, exposed as a parameter and documented
as such.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..params import ChipParams


@dataclass(frozen=True)
class PowerReport:
    """Power at one operating point."""

    total_w: float
    static_w: float
    dynamic_w: float
    supply_v: float
    sampling_rate_hz: float

    def describe(self) -> str:
        return (
            f"{self.total_w * 1e3:.2f} mW at {self.supply_v:.1f} V / "
            f"{self.sampling_rate_hz / 1e3:.0f} kHz "
            f"({self.static_w * 1e3:.2f} static + "
            f"{self.dynamic_w * 1e3:.2f} dynamic)"
        )


class PowerModel:
    """Static + dynamic chip power, anchored to the paper's data point.

    Parameters
    ----------
    chip:
        Carries the anchor: power, supply and clock of the measurement.
    static_fraction:
        Fraction of the anchor power that is frequency-independent analog
        bias (default 0.6).
    """

    def __init__(
        self, chip: ChipParams | None = None, static_fraction: float = 0.6
    ):
        if not 0.0 <= static_fraction <= 1.0:
            raise ConfigurationError("static fraction must be in [0, 1]")
        self.chip = chip or ChipParams()
        self.static_fraction = float(static_fraction)
        anchor = self.chip
        self._static_w = anchor.power_w * static_fraction
        # Dynamic: P = k * V^2 * f; solve k at the anchor point.
        self._k_dynamic = (
            anchor.power_w
            * (1.0 - static_fraction)
            / (anchor.supply_v**2 * anchor.reference_sampling_rate_hz)
        )

    def report(
        self,
        sampling_rate_hz: float | None = None,
        supply_v: float | None = None,
    ) -> PowerReport:
        """Power at an operating point (defaults: the paper's)."""
        fs = (
            float(sampling_rate_hz)
            if sampling_rate_hz is not None
            else self.chip.reference_sampling_rate_hz
        )
        vdd = float(supply_v) if supply_v is not None else self.chip.supply_v
        if fs <= 0 or vdd <= 0:
            raise ConfigurationError("rate and supply must be positive")
        # Static bias currents scale ~linearly with supply.
        static = self._static_w * (vdd / self.chip.supply_v)
        dynamic = self._k_dynamic * vdd**2 * fs
        return PowerReport(
            total_w=static + dynamic,
            static_w=static,
            dynamic_w=dynamic,
            supply_v=vdd,
            sampling_rate_hz=fs,
        )
