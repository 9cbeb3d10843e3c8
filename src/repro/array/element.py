"""One array element: a membrane sensor plus its position and mismatch.

Process gradients make nominally identical membranes differ slightly in
rest capacitance and sensitivity; each element therefore wraps the shared
:class:`~repro.mems.membrane.MembraneSensor` transfer with per-element
gain/offset factors drawn once at array construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..mems.membrane import MembraneSensor


@dataclass(frozen=True)
class ArrayElement:
    """A single force-sensitive element of the array.

    Parameters
    ----------
    index:
        Flat row-major index within the array.
    row, col:
        Grid coordinates.
    center_m:
        (x, y) position of the membrane center relative to the array
        centroid [m].
    capacitance_scale:
        Multiplicative mismatch on the capacitance transfer (≈1).
    offset_cap_f:
        Additive parasitic mismatch [F].
    """

    index: int
    row: int
    col: int
    center_m: tuple[float, float]
    sensor: MembraneSensor
    capacitance_scale: float = 1.0
    offset_cap_f: float = 0.0

    def __post_init__(self) -> None:
        if self.capacitance_scale <= 0:
            raise ConfigurationError("capacitance scale must be positive")

    def capacitance_f(self, pressure_pa: np.ndarray | float) -> np.ndarray:
        """Element capacitance under an applied membrane pressure."""
        nominal = self.sensor.capacitance_f(pressure_pa)
        return nominal * self.capacitance_scale + self.offset_cap_f

    @property
    def rest_capacitance_f(self) -> float:
        return (
            self.sensor.rest_capacitance_f * self.capacitance_scale
            + self.offset_cap_f
        )
