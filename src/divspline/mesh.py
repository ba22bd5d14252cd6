"""Cartesian parametric mesh: elements, facets, normals, facet quadrature.

Elements are the axis-aligned boxes between consecutive unique knots of two
open knot vectors. Facets are per-element edge segments; each interior facet
stores its two neighbors with the convention n = n+ = -n-, where the plus
side is the element with the smaller index along the facet axis. Geometry is
restricted to axis-aligned boxes, so all element maps are affine scalings.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bspline import KnotVector, QuadratureRule, gauss_rule

__all__ = [
    "QuadratureRule",
    "Facet",
    "CartesianMesh",
    "build_mesh",
    "gauss_rule",
    "facet_quadrature",
]


@dataclass(frozen=True)
class Facet:
    """One facet segment of the mesh skeleton.

    axis is the direction of the facet normal (0 for vertical facets, 1 for
    horizontal ones); coordinate is the position along that axis and span the
    segment in the other axis. minus_element is None on the boundary, where
    the normal points out of the domain.
    """

    axis: int
    coordinate: float
    span: tuple[float, float]
    plus_element: int
    minus_element: int | None
    normal: tuple[float, float]

    @property
    def is_boundary(self) -> bool:
        return self.minus_element is None

    @property
    def length(self) -> float:
        return self.span[1] - self.span[0]


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
    def n_elements(self) -> int:
        return self.nx * self.ny

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

    def element_id(self, ex: int, ey: int) -> int:
        return ey * self.nx + ex

    @cached_property
    def element_boxes(self) -> np.ndarray:
        """(n_elements, 4) array of [x0, x1, y0, y1], element id = ey*nx + ex."""
        ux, uy = self.unique_knots_x, self.unique_knots_y
        boxes = np.empty((self.n_elements, 4))
        for ey in range(self.ny):
            for ex in range(self.nx):
                boxes[self.element_id(ex, ey)] = (ux[ex], ux[ex + 1], uy[ey], uy[ey + 1])
        return boxes

    @cached_property
    def element_areas(self) -> np.ndarray:
        b = self.element_boxes
        return (b[:, 1] - b[:, 0]) * (b[:, 3] - b[:, 2])

    @property
    def h(self) -> float:
        """Global mesh size: the largest element edge length."""
        return float(
            max(np.diff(self.unique_knots_x).max(), np.diff(self.unique_knots_y).max())
        )

    @cached_property
    def interior_facets(self) -> tuple[Facet, ...]:
        ux, uy = self.unique_knots_x, self.unique_knots_y
        facets = []
        # vertical facets: normal +e_x, plus side is the left element
        for i in range(1, self.nx):
            for ey in range(self.ny):
                facets.append(
                    Facet(
                        axis=0,
                        coordinate=float(ux[i]),
                        span=(float(uy[ey]), float(uy[ey + 1])),
                        plus_element=self.element_id(i - 1, ey),
                        minus_element=self.element_id(i, ey),
                        normal=(1.0, 0.0),
                    )
                )
        # horizontal facets: normal +e_y, plus side is the bottom element
        for ex in range(self.nx):
            for j in range(1, self.ny):
                facets.append(
                    Facet(
                        axis=1,
                        coordinate=float(uy[j]),
                        span=(float(ux[ex]), float(ux[ex + 1])),
                        plus_element=self.element_id(ex, j - 1),
                        minus_element=self.element_id(ex, j),
                        normal=(0.0, 1.0),
                    )
                )
        return tuple(facets)

    @cached_property
    def boundary_facets(self) -> tuple[Facet, ...]:
        ux, uy = self.unique_knots_x, self.unique_knots_y
        a1, b1, a2, b2 = self.domain_extent
        facets = []
        for ey in range(self.ny):
            yspan = (float(uy[ey]), float(uy[ey + 1]))
            facets.append(
                Facet(0, a1, yspan, self.element_id(0, ey), None, (-1.0, 0.0))
            )
            facets.append(
                Facet(0, b1, yspan, self.element_id(self.nx - 1, ey), None, (1.0, 0.0))
            )
        for ex in range(self.nx):
            xspan = (float(ux[ex]), float(ux[ex + 1]))
            facets.append(
                Facet(1, a2, xspan, self.element_id(ex, 0), None, (0.0, -1.0))
            )
            facets.append(
                Facet(1, b2, xspan, self.element_id(ex, self.ny - 1), None, (0.0, 1.0))
            )
        return tuple(facets)


def build_mesh(kv_x: KnotVector, kv_y: KnotVector) -> CartesianMesh:
    """Mesh of the tensor-product elements of two open knot vectors."""
    return CartesianMesh(
        unique_knots_x=kv_x.unique_knots, unique_knots_y=kv_y.unique_knots
    )


def facet_quadrature(
    facet: Facet, rule: QuadratureRule
) -> tuple[np.ndarray, np.ndarray]:
    """Physical quadrature points (n, 2) and weights on a facet segment."""
    s0, s1 = facet.span
    along = s0 + (s1 - s0) * rule.points
    pts = np.empty((rule.npts, 2))
    pts[:, facet.axis] = facet.coordinate
    pts[:, 1 - facet.axis] = along
    return pts, (s1 - s0) * rule.weights
