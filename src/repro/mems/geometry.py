"""Array and post-processing geometry (paper Secs. 2.1, 3; Figs. 2, 5).

Provides element-center coordinates for the N x M membrane array, needed
by the tonometric coupling model to weight each element by its distance
from the artery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..params import ArrayParams

@dataclass(frozen=True)
class ArrayGeometry:
    """Physical layout of the membrane array on the die.

    The 2x2 paper array at 150 um pitch spans 150 um center-to-center;
    coordinates are centered on the array centroid, in meters, with x along
    columns and y along rows.
    """

    params: ArrayParams

    @property
    def rows(self) -> int:
        return self.params.rows

    @property
    def cols(self) -> int:
        return self.params.cols

    @property
    def pitch_m(self) -> float:
        return self.params.membrane.pitch_m

    def column_x_m(self) -> np.ndarray:
        """(cols,) x coordinate of each column's element centers."""
        return (np.arange(self.cols) - (self.cols - 1) / 2.0) * self.pitch_m

    def row_y_m(self) -> np.ndarray:
        """(rows,) y coordinate of each row's element centers."""
        return (np.arange(self.rows) - (self.rows - 1) / 2.0) * self.pitch_m

    def element_centers_m(self) -> np.ndarray:
        """(rows*cols, 2) array of (x, y) element centers, row-major order."""
        grid_x, grid_y = np.meshgrid(self.column_x_m(), self.row_y_m())
        return np.column_stack([grid_x.ravel(), grid_y.ravel()])

    def element_index(self, row: int, col: int) -> int:
        """Flat row-major index of the element at (row, col)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ConfigurationError(
                f"element ({row}, {col}) outside {self.rows}x{self.cols} array"
            )
        return row * self.cols + col

    def element_rowcol(self, index: int) -> tuple[int, int]:
        """Inverse of :meth:`element_index`."""
        n = self.rows * self.cols
        if not 0 <= index < n:
            raise ConfigurationError(f"element index {index} outside 0..{n - 1}")
        return divmod(index, self.cols)

    @property
    def span_m(self) -> tuple[float, float]:
        """Total (x, y) extent covered by membranes (outer edge to edge)."""
        side = self.params.membrane.side_m
        return (
            (self.cols - 1) * self.pitch_m + side,
            (self.rows - 1) * self.pitch_m + side,
        )

    def footprint_fits_die(
        self, die_width_m: float, die_height_m: float
    ) -> bool:
        """Whether the membrane field fits the die (sanity check vs Fig. 5)."""
        span_x, span_y = self.span_m
        return span_x <= die_width_m and span_y <= die_height_m
