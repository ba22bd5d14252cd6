"""Cartesian parametric mesh: the breakpoints of two open knot vectors.

Elements are the axis-aligned boxes between consecutive unique knots, so all
element maps are affine scalings. Element and facet tables are built per
pair from the 1-D breakpoints (`space.element_tables`, `forms.FacetTables`);
the mesh itself holds only the breakpoints and the sizes derived from them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import KnotVector, QuadratureRule, gauss_rule

__all__ = [
    "QuadratureRule",
    "CartesianMesh",
    "build_mesh",
    "gauss_rule",
]


@dataclass(frozen=True)
class CartesianMesh:
    """Tensor-product mesh over the unique knots of two open knot vectors."""

    unique_knots_x: np.ndarray
    unique_knots_y: np.ndarray

    @property
    def nx(self) -> int:
        return len(self.unique_knots_x) - 1

    @property
    def ny(self) -> int:
        return len(self.unique_knots_y) - 1

    @property
    def domain_extent(self) -> tuple[float, float, float, float]:
        return (
            float(self.unique_knots_x[0]),
            float(self.unique_knots_x[-1]),
            float(self.unique_knots_y[0]),
            float(self.unique_knots_y[-1]),
        )

    @property
    def area(self) -> float:
        a1, b1, a2, b2 = self.domain_extent
        return (b1 - a1) * (b2 - a2)

    @property
    def h(self) -> float:
        """Global mesh size: the largest element edge length."""
        return float(
            max(np.diff(self.unique_knots_x).max(), np.diff(self.unique_knots_y).max())
        )


def build_mesh(kv_x: KnotVector, kv_y: KnotVector) -> CartesianMesh:
    """Mesh of the tensor-product elements of two open knot vectors."""
    return CartesianMesh(
        unique_knots_x=kv_x.unique_knots, unique_knots_y=kv_y.unique_knots
    )
