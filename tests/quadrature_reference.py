"""Per-element loop reference for the quadrature plan.

This is the construction that the class rules of `make_quadrature_plan`
replace: every element gets its own rule in physical coordinates, the plain
reference rule mapped by the element's affine map or one
`polar_triangle_rule` about the singular point it contains.  Tests require
`QuadraturePlan.element_rule` to reproduce it element by element
(`assert_plan_matches`).

`dense_plan` is the plan of the 176-node radial rule that the positive
subrule replaces inside the first breakpoint: 21 geometric levels above a
Gauss--Jacobi cell, its candidate set.  `unit_singular_rule_loop` is that
subrule's elimination on the null basis as columns, each step updating
strided columns through a new outer product.
"""
from unittest import mock

import numpy as np

from qmloc.quadrature import (_dense_singular_rule, _locate, _null_basis, _singular_span,
                              make_quadrature_plan, plan_key, polar_triangle_rule,
                              reference_triangle_rule)


def map_rule_to_triangle(pts_ref, w_ref, v0, v1, v2):
    B = np.column_stack([v1 - v0, v2 - v0])
    pts = v0 + pts_ref @ B.T
    return pts, w_ref * abs(np.linalg.det(B))


def element_rules(tri, target, exactness=8):
    """Per element (points (n_k, 2), weights (n_k,)), and the ids of the
    elements with a polar rule."""
    singular = plan_key(target)
    hits = (_locate(tri, np.array([sp.xy for sp in singular], dtype=float))
            if singular else [-1] * tri.n_elements)
    pts_ref, w_ref = reference_triangle_rule(exactness)
    rules, polar_ids = [], []
    for k, hit in enumerate(hits):
        v0, v1, v2 = tri.vertices[tri.triangles[k]]
        if hit < 0:
            rules.append(map_rule_to_triangle(pts_ref, w_ref, v0, v1, v2))
        else:
            sp = singular[hit]
            rules.append(polar_triangle_rule(v0, v1, v2, sp.xy, sp.exponent,
                                             sp.radial_breakpoints, exactness))
            polar_ids.append(k)
    return rules, tuple(polar_ids)


def assert_plan_matches(plan, target):
    """Every element rule of `plan` equals the loop's: the same node count,
    points within 1e-13 h_K, weights within 1e-12 relative plus 1e-15 |K|;
    the same polar elements.  (The radial cells cut at a breakpoint just
    below the ray's end are narrow differences of O(h) numbers, so their
    weights round to a relative 1e-11 but an absolute 1e-17 |K|.)"""
    tri = plan.tri
    rules, polar_ids = element_rules(tri, target, plan.exactness)
    assert plan.singular_elements == polar_ids
    assert len(plan.weights) == len(rules)
    for k, (pts_ref, w_ref) in enumerate(rules):
        pts, wts = plan.element_rule(k)
        assert pts.shape == pts_ref.shape, k
        assert np.max(np.abs(pts - pts_ref)) <= 1e-13 * tri.diameters[k], k
        assert (np.abs(wts - w_ref) <= 1e-12 * w_ref + 1e-15 * tri.areas[k]).all(), k


def dense_plan(tri, target, exactness=8):
    """`make_quadrature_plan` with the dense candidate rule in place of the
    subrule on every ray."""
    with mock.patch("qmloc.quadrature._unit_singular_rule",
                    lambda mu, degree: _dense_singular_rule(mu)):
        return make_quadrature_plan(tri, target, exactness)


def unit_singular_rule_loop(mu, degree):
    """`quadrature._unit_singular_rule(mu, degree)`, its null basis held as
    (nodes, columns)."""
    r, w = _dense_singular_rule(mu)
    C = _singular_span(mu, degree, r) * w
    C /= C.sum(axis=1, keepdims=True)
    null = _null_basis(C).T.copy()
    lam, inv_r = np.ones(len(r)), 1.0 / r
    for last in range(null.shape[1] - 1, -1, -1):
        v = null[:, 0] if null[:, 0] @ inv_r >= 0.0 else -null[:, 0]
        ratio = np.divide(lam, v, out=np.full(len(r), np.inf), where=v > 0)
        j = int(np.argmin(ratio))
        lam = np.maximum(lam - ratio[j] * v, 0.0)
        lam[j] = 0.0
        row = null[j, :last + 1]
        p = int(np.argmax(np.abs(row)))
        null[:, :last + 1] -= np.outer(null[:, p] / row[p], row)
        null[:, p], null[j] = null[:, last], 0.0
        null = null[:, :last]
    keep = np.flatnonzero(lam)
    return r[keep], w[keep] * lam[keep]
