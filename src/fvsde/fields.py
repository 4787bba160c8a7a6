"""Piecewise-constant fields over the control volumes of a mesh."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .mesh import TensorMesh


@dataclass(frozen=True, eq=False)
class CellField:
    """One real value per control volume, w_h = sum_K w_K 1_K.

    The mesh reference is shared, never copied; fields are cheap to create
    and treated as immutable.
    """

    mesh: "TensorMesh"
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.mesh.n_cells,):
            raise ValueError(
                f"field has {values.shape} values for a mesh with "
                f"{self.mesh.n_cells} cells"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
