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
subrule's elimination on whole null vectors of length n, held as columns,
each step updating strided columns through a new outer product; its null
basis comes from `null_basis_rows`, the full-row Gauss--Jordan basis, not
from the tableau under test.  `sector_rule_per_ray` is the sector rule with
one `radial_rule` call and one mapping per ray, which the one-pass layout
replaces.  `polar_triangle_rule_branches` is the polar rule with a branch of
its own for a point at a vertex, which the one loop over sub-sectors
replaces.
"""
import math
from unittest import mock

import numpy as np

from qmloc.quadrature import (_GAUSS_ORDER, _PANEL_SLACK, _THETA_PANEL, _dense_singular_rule,
                              _locate, _panels, _sector_rule, _singular_span,
                              make_quadrature_plan, plan_key, polar_triangle_rule,
                              radial_rule, reference_triangle_rule)


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


def null_basis_rows(C):
    """A basis of the null space of C (m, n) as rows (n - rank, n): the
    Gauss--Jordan elimination of `quadrature._null_basis`, each basis vector
    1 at its own free column, minus the eliminated rows at the pivot columns
    and 0 elsewhere, written out in full."""
    A = C.copy()
    free = np.ones(A.shape[1], dtype=bool)
    rows, cols = [], []
    for i in range(len(A)):
        p = int(np.argmax(np.where(free, np.abs(A[i]), 0.0)))
        if not free[p] or A[i, p] == 0.0:
            continue
        A[i] /= A[i, p]
        factor = A[:, p].copy()
        factor[i] = 0.0
        A -= np.outer(factor, A[i])
        free[p] = False
        rows.append(i)
        cols.append(p)
    f = np.flatnonzero(free)
    null = np.zeros((len(f), A.shape[1]))
    null[np.arange(len(f)), f] = 1.0
    null[:, cols] = -A[np.ix_(rows, f)].T
    return null


def unit_singular_rule_loop(mu, degree):
    """`quadrature._unit_singular_rule(mu, degree)`, its null basis held in
    full as (nodes, columns)."""
    r, w = _dense_singular_rule(mu)
    C = _singular_span(mu, degree, r) * w
    C /= C.sum(axis=1, keepdims=True)
    null = null_basis_rows(C).T.copy()
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


def sector_rule_per_ray(s, p, p2, mu, breakpoints, degree):
    """`quadrature._sector_rule`, one `radial_rule` call and one mapping per
    ray."""
    s = np.asarray(s, float)
    a, b = np.asarray(p, float) - s, np.asarray(p2, float) - s
    if a[0] * b[1] - a[1] * b[0] < 0:
        a, b = b, a
    th0 = math.atan2(a[1], a[0])
    dth = math.atan2(b[1], b[0]) - th0
    dth = dth % (2.0 * math.pi)
    n_panels = max(1, math.ceil(dth / _THETA_PANEL * (1.0 - _PANEL_SLACK)))
    edges = np.linspace(0.0, dth, n_panels + 1)
    tt, wt = _panels(edges[:-1], edges[1:], _GAUSS_ORDER)
    nrm = np.array([-(b - a)[1], (b - a)[0]])
    d0 = float(nrm @ a)
    pts, wts = [], []
    for t, w_t in zip(tt, wt):
        th = th0 + t
        dirv = np.array([math.cos(th), math.sin(th)])
        denom = float(nrm @ dirv)
        Rth = d0 / denom
        rr, wr = radial_rule(Rth, mu, breakpoints, degree)
        pts.append(s + rr[:, None] * dirv)
        wts.append(w_t * wr * rr)
    return np.vstack(pts), np.concatenate(wts)


def polar_triangle_rule_branches(v0, v1, v2, singular_xy, mu, breakpoints=(), degree=8):
    """`quadrature.polar_triangle_rule` in two branches: a point within
    1e-12 h of a vertex takes the one sector of the other two vertices, any
    other point the fan of sub-sectors (s, v_i, v_(i+1)) whose doubled area
    exceeds 1e-14 h**2."""
    verts = [np.asarray(v, float) for v in (v0, v1, v2)]
    s = np.asarray(singular_xy, float)
    h = max(np.linalg.norm(verts[i] - verts[j]) for i in range(3) for j in range(i))
    for i in range(3):
        if np.linalg.norm(verts[i] - s) <= 1e-12 * h:
            others = [verts[j] for j in range(3) if j != i]
            return _sector_rule(s, others[0], others[1], mu, breakpoints, degree)
    pts, wts = [], []
    for i in range(3):
        p, p2 = verts[i], verts[(i + 1) % 3]
        area2 = abs((p[0] - s[0]) * (p2[1] - s[1]) - (p[1] - s[1]) * (p2[0] - s[0]))
        if area2 <= 1e-14 * h * h:
            continue
        sp, sw = _sector_rule(s, p, p2, mu, breakpoints, degree)
        pts.append(sp)
        wts.append(sw)
    return np.vstack(pts), np.concatenate(wts)
