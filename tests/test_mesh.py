"""Mesh construction, and the facet enumeration and quadrature of the test oracles."""
from __future__ import annotations

import numpy as np
import pytest

from divspline.bspline import make_open_uniform
from divspline.mesh import build_mesh, gauss_rule
from util_fields import boundary_facets, element_boxes, facet_quadrature, interior_facets


def _uniform_mesh(n, degree=2, interval=(0.0, 1.0)):
    kv = make_open_uniform(degree, n, interval)
    return build_mesh(kv, kv)


def test_single_element_facet_counts():
    mesh = _uniform_mesh(1)
    assert len(interior_facets(mesh)) == 0
    assert len(boundary_facets(mesh)) == 4


def test_2x2_facet_counts():
    mesh = _uniform_mesh(2)
    assert len(interior_facets(mesh)) == 4
    assert len(boundary_facets(mesh)) == 8


def test_16x16_interior_facet_count():
    mesh = _uniform_mesh(16)
    assert len(interior_facets(mesh)) == 480
    assert len(boundary_facets(mesh)) == 64


def test_element_areas_tile_domain():
    mesh = _uniform_mesh(5, interval=(0.0, 2.0 * np.pi))
    b = element_boxes(mesh)
    areas = (b[:, 1] - b[:, 0]) * (b[:, 3] - b[:, 2])
    assert abs(areas.sum() - mesh.area) < 1e-12 * mesh.area
    assert abs(mesh.h - 2.0 * np.pi / 5) < 1e-14


def test_interior_facet_orientation():
    mesh = _uniform_mesh(3)
    boxes = element_boxes(mesh)
    for f in interior_facets(mesh):
        assert f.minus_element is not None
        assert f.plus_element != f.minus_element
        assert abs(np.linalg.norm(f.normal) - 1.0) < 1e-15
        # plus element sits on the side the normal points away from
        plus_box = boxes[f.plus_element]
        minus_box = boxes[f.minus_element]
        if f.axis == 0:
            assert plus_box[1] == f.coordinate and minus_box[0] == f.coordinate
        else:
            assert plus_box[3] == f.coordinate and minus_box[2] == f.coordinate


def test_boundary_facet_normals_point_outward():
    mesh = _uniform_mesh(2)
    a1, b1, a2, b2 = mesh.domain_extent
    for f in boundary_facets(mesh):
        assert f.is_boundary
        n = np.asarray(f.normal)
        x = np.empty(2)
        x[f.axis] = f.coordinate
        x[1 - f.axis] = 0.5 * (f.span[0] + f.span[1])
        center = np.array([0.5 * (a1 + b1), 0.5 * (a2 + b2)])
        assert n @ (x - center) > 0


def test_gauss_rule_basics():
    r1 = gauss_rule(1)
    assert np.allclose(r1.points, [0.5]) and np.allclose(r1.weights, [1.0])
    r2 = gauss_rule(2)
    assert np.allclose(r2.weights, [0.5, 0.5])
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        gauss_rule(11)


def test_gauss_rule_is_one_read_only_rule_per_size():
    import divspline
    from divspline import bspline, mesh

    assert divspline.gauss_rule is mesh.gauss_rule is bspline.gauss_rule
    rule = gauss_rule(4)
    assert gauss_rule(4) is rule
    assert not rule.points.flags.writeable and not rule.weights.flags.writeable


@pytest.mark.parametrize("npts", range(1, 11))
def test_gauss_rule_exactness(npts):
    rule = gauss_rule(npts)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    for d in range(2 * npts):
        exact = 1.0 / (d + 1)
        assert abs((rule.weights @ rule.points**d) - exact) < 1e-14


def test_gauss3_integrates_quartic():
    rule = gauss_rule(3)
    assert abs(rule.weights @ rule.points**4 - 0.2) < 1e-14


def test_facet_quadrature_scaling():
    mesh = _uniform_mesh(1)
    f = boundary_facets(mesh)[0]
    _, w = facet_quadrature(f, gauss_rule(2))
    assert abs(w.sum() - 1.0) < 1e-14

    mesh16 = _uniform_mesh(16)
    f16 = interior_facets(mesh16)[0]
    pts, w16 = facet_quadrature(f16, gauss_rule(2))
    assert abs(w16.sum() - 1.0 / 16) < 1e-15
    assert np.all(pts[:, f16.axis] == f16.coordinate)


def test_facet_quadrature_exactness_orders():
    mesh = _uniform_mesh(4)
    f = interior_facets(mesh)[5]
    cubic = lambda t: 3.0 * t**3 - t**2 + 0.25 * t - 2.0
    cubic_anti = lambda t: 0.75 * t**4 - t**3 / 3 + 0.125 * t**2 - 2.0 * t
    quartic = lambda t: t**4
    quartic_anti = lambda t: t**5 / 5
    s0, s1 = f.span
    pts2, w2 = facet_quadrature(f, gauss_rule(2))
    pts3, w3 = facet_quadrature(f, gauss_rule(3))
    t2 = pts2[:, 1 - f.axis]
    t3 = pts3[:, 1 - f.axis]
    # degree <= 2*npts - 1 is exact: cubics already with 2 points
    assert abs(w2 @ cubic(t2) - (cubic_anti(s1) - cubic_anti(s0))) < 1e-13
    assert abs(w3 @ cubic(t3) - (cubic_anti(s1) - cubic_anti(s0))) < 1e-13
    # a quartic needs 3 points
    assert abs(w2 @ quartic(t2) - (quartic_anti(s1) - quartic_anti(s0))) > 1e-10
    assert abs(w3 @ quartic(t3) - (quartic_anti(s1) - quartic_anti(s0))) < 1e-13


def test_smooth_function_has_no_jump_across_facets():
    mesh = _uniform_mesh(3)
    g = lambda x, y: np.sin(1.3 * x) * np.cos(0.7 * y) + x * y
    for f in interior_facets(mesh):
        pts, _ = facet_quadrature(f, gauss_rule(2))
        n = np.asarray(f.normal)
        eps = 1e-9
        plus = g(*(pts - eps * n).T)
        minus = g(*(pts + eps * n).T)
        assert np.abs(plus - minus).max() < 1e-8
