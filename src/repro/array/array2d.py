"""The N x M membrane sensor array (paper: 2 x 2 plus reference).

Builds the elements with reproducible random mismatch, exposes per-element
capacitance evaluation for a spatial pressure field, and carries the
on-chip reference structure — a membrane-less capacitor matching the rest
capacitance, which the first modulator stage subtracts (Fig. 6).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..mems.geometry import ArrayGeometry
from ..mems.membrane import MembraneSensor
from ..params import ArrayParams
from .element import ArrayElement


class SensorArray:
    """The chip's transducer array plus reference capacitor.

    Parameters
    ----------
    params:
        Array layout and mismatch level (paper default: 2x2, 150 um pitch).
    rng:
        Source for the per-element mismatch draw; fixed default for
        reproducibility.
    """

    def __init__(
        self,
        params: ArrayParams | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.params = params or ArrayParams()
        #: Shared membrane transfer of every element.
        self.sensor = MembraneSensor(self.params.membrane)
        self.geometry = ArrayGeometry(self.params)
        rng = rng or np.random.default_rng(51)

        centers = self.geometry.element_centers_m()
        sigma = self.params.capacitance_mismatch_sigma
        scales = 1.0 + sigma * rng.standard_normal(self.params.n_elements)
        self.elements: list[ArrayElement] = []
        for index in range(self.params.n_elements):
            row, col = self.geometry.element_rowcol(index)
            self.elements.append(
                ArrayElement(
                    index=index,
                    row=row,
                    col=col,
                    center_m=(float(centers[index, 0]), float(centers[index, 1])),
                    sensor=self.sensor,
                    capacitance_scale=float(scales[index]),
                )
            )
        # Reference structure: matches the nominal rest capacitance with
        # its own (small) mismatch; it has no released membrane, so it
        # does not respond to pressure.
        self.reference_cap_f = self.sensor.rest_capacitance_f * float(
            1.0 + sigma * rng.standard_normal()
        )

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, index: int) -> ArrayElement:
        return self.elements[index]

    def __iter__(self):
        return iter(self.elements)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    # -- evaluation -------------------------------------------------------------

    def vectorized_transfer(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Per-element (scale, offset) vectors, when the whole array shares
        one membrane transfer.

        Every stock element is ``sensor.capacitance_f(P) * scale + offset``
        with the array's shared :class:`MembraneSensor`, so the full-array
        field can be evaluated with one interpolant pass and a broadcast.
        Returns ``None`` when any element carries its own sensor model (a
        caller-substituted exotic element), in which case evaluation must
        fall back to the per-element loop.
        """
        scales = np.empty(self.n_elements)
        offsets = np.empty(self.n_elements)
        for k, element in enumerate(self.elements):
            if type(element) is not ArrayElement or element.sensor is not self.sensor:
                return None
            scales[k] = element.capacitance_scale
            offsets[k] = element.offset_cap_f
        return scales, offsets

    def capacitances_f(
        self, element_pressures_pa: np.ndarray
    ) -> np.ndarray:
        """Per-element capacitance for per-element membrane pressures.

        ``element_pressures_pa`` is either shape (n_elements,) for one
        instant or (n_samples, n_elements) for a time series; the result
        has the same shape. When all elements share the array's membrane
        transfer (the stock construction) this is one vectorized
        interpolant pass over the whole field — O(1) NumPy calls instead
        of a per-element Python loop, and bit-identical to it, since both
        the Chebyshev evaluation and the mismatch scale/offset are
        elementwise.
        """
        pressures = np.asarray(element_pressures_pa, dtype=float)
        if pressures.shape[-1] != self.n_elements:
            raise ConfigurationError(
                f"last axis must have {self.n_elements} entries "
                f"(got shape {pressures.shape})"
            )
        transfer = self.vectorized_transfer()
        if transfer is not None:
            scales, offsets = transfer
            caps = self.sensor.capacitance_f(pressures)
            return caps * scales + offsets
        flat = pressures.reshape(-1, self.n_elements)
        out = np.empty_like(flat)
        for k, element in enumerate(self.elements):
            out[:, k] = element.capacitance_f(flat[:, k])
        return out.reshape(pressures.shape)

    def rest_capacitances_f(self) -> np.ndarray:
        """Vector of zero-pressure capacitances (includes mismatch)."""
        return np.array([e.rest_capacitance_f for e in self.elements])

    def offsets_vs_reference_f(self) -> np.ndarray:
        """Static (Crest - Cref) per element: the mismatch pedestal each
        element's readout sits on."""
        return self.rest_capacitances_f() - self.reference_cap_f

    def describe(self) -> str:
        rows, cols = self.params.rows, self.params.cols
        rest = self.rest_capacitances_f()
        return "\n".join(
            [
                f"SensorArray {rows}x{cols}, pitch "
                f"{self.geometry.pitch_m * 1e6:.0f} um",
                f"  rest capacitance : {rest.mean() * 1e15:.1f} fF "
                f"(spread {rest.std() * 1e15:.2f} fF)",
                f"  reference        : {self.reference_cap_f * 1e15:.1f} fF",
            ]
        )
