"""Plain and singularity-graded quadrature rules and element plans."""
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from quadrature_reference import (assert_plan_matches, dense_plan, element_rules,
                                  polar_triangle_rule_branches, sector_rule_per_ray,
                                  unit_singular_rule_loop)
from test_bestapprox import _perturbed_grid

from qmloc.bestapprox import element_tables
from qmloc.counterexamples import (analytic_energy_reference, checkerboard_mesh,
                                   checkerboard_target, fig1_left_pattern, hexagon_mesh,
                                   hexagon_target, radial_profile, radial_profile_derivative)
from qmloc.errors import QuadratureFailure
from qmloc.fespace import build_space
from qmloc.fields import SingularPoint, TargetField, smooth_target
from qmloc.harness import DEFAULT_EPS, _tables
from qmloc.mesh import build_triangulation
from qmloc.quadrature import (_dense_singular_rule, _gauss_jacobi, _locate, _radial_rules,
                              _sector_rule, _singular_span, _unit_singular_rule,
                              make_quadrature_plan, polar_triangle_rule, radial_rule,
                              reference_triangle_rule, triangle_rule)

MODEL_MU = [1e-3, 1 / 12, 1 / 6, 1 / 4, 1 / 2, 1.0]


def test_reference_rule_exactness():
    # int over the reference triangle of x^a y^b = a! b! / (a+b+2)!
    from math import factorial

    for p in range(1, 11):
        pts, wts = reference_triangle_rule(p)
        assert np.all(wts > 0)
        assert wts.sum() == pytest.approx(0.5, rel=1e-14)
        for a in range(p + 1):
            for b in range(p + 1 - a):
                exact = factorial(a) * factorial(b) / factorial(a + b + 2)
                got = float(wts @ (pts[:, 0] ** a * pts[:, 1] ** b))
                assert got == pytest.approx(exact, rel=1e-12), (p, a, b)


def test_mapped_rule_area_and_linear():
    v0, v1, v2 = np.array([1.0, 2.0]), np.array([3.0, 2.5]), np.array([1.5, 4.0])
    pts, wts = triangle_rule(3, v0, v1, v2)
    area = 0.5 * abs((v1 - v0)[0] * (v2 - v0)[1] - (v1 - v0)[1] * (v2 - v0)[0])
    assert wts.sum() == pytest.approx(area, rel=1e-14)
    centroid = (v0 + v1 + v2) / 3.0
    assert float(wts @ pts[:, 0]) / area == pytest.approx(centroid[0], rel=1e-14)


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_radial_rule_closed_form(eps):
    # int_0^1 profile(r)^2 / r dr has a closed-form antiderivative
    def f(r):
        rho = radial_profile(eps, r)
        return rho * rho / r

    pts, wts = radial_rule(1.0, eps, (eps, 1.0))
    val = float(wts @ f(pts))
    exact = analytic_energy_reference(eps)["profile_sq_over_r"]
    assert val == pytest.approx(exact, rel=1e-8)
    assert val <= 1.0 / (2.0 * eps) - np.log(eps)


@pytest.mark.parametrize("n, a, b", [(n, 1.0, 0.0) for n in range(1, 7)]
                         + [(8, 0.0, 2.0 * mu - 1.0) for mu in MODEL_MU])
def test_gauss_jacobi_matches_scipy(n, a, b):
    """The Golub--Welsch rule against scipy's, imported here only: the rules
    of `reference_triangle_rule` and the Gauss--Jacobi cell of
    `_dense_singular_rule`, the candidate set of `_unit_singular_rule`."""
    from scipy.special import roots_jacobi

    x, w = _gauss_jacobi(n, a, b)
    x_ref, w_ref = roots_jacobi(n, a, b)
    np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(w, w_ref, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("mu", MODEL_MU)
def test_unit_singular_rule_integrates_the_model_power(mu):
    for r, w in (_dense_singular_rule(mu), _unit_singular_rule(round(mu, 12), 8)):
        assert np.all(r > 0) and np.all(r < 1) and np.all(w > 0)
        assert float(w @ r ** (2.0 * mu - 1.0)) == pytest.approx(1.0 / (2.0 * mu), rel=1e-12)


@pytest.mark.parametrize("degree", [8, 10, 12, 14])
@pytest.mark.parametrize("mu", MODEL_MU)
def test_subrule_keeps_the_dense_span_moments(mu, degree):
    """A positive subrule of the candidate rule, at most 3 (degree + 1)
    nodes, with its moments on r**(2mu-1+k), r**(mu+k), r**k (k <= degree)."""
    mu = round(mu, 12)
    r0, w0 = _dense_singular_rule(mu)
    r, w = _unit_singular_rule(mu, degree)
    assert np.all(w > 0) and len(r) <= 3 * (degree + 1)
    assert np.isin(r, r0).all()
    dense, sub = _singular_span(mu, degree, r0) @ w0, _singular_span(mu, degree, r) @ w
    np.testing.assert_allclose(sub, dense, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("degree", range(1, 15))
@settings(max_examples=10, deadline=None)
@given(mu=st.floats(1e-3, 1.0))
@example(mu=1e-3)
@example(mu=1 / 12)
@example(mu=1 / 6)
@example(mu=1 / 4)
@example(mu=1 / 2)  # rank-deficient spans: r**(2mu-1+k) repeats r**(mu+k) or r**k
@example(mu=1.0)
@example(mu=0.37)
@example(mu=2 / 3)
@example(mu=0.9)
def test_subrule_equals_the_column_loop(degree, mu):
    """The elimination on the null basis tableau gives the rule of the loop
    on whole null vectors as columns bit for bit, at every span degree of
    the edge rules (`interp._edge_quadrature`, 1-4) and of the element
    plans."""
    mu = round(mu, 12)
    for got, want in zip(_unit_singular_rule(mu, degree), unit_singular_rule_loop(mu, degree)):
        assert np.array_equal(got, want), (mu, degree)


def test_subrules_are_byte_identical_across_interpreters():
    code = ("import hashlib\n"
            "from qmloc.quadrature import _unit_singular_rule\n"
            "h = hashlib.sha256()\n"
            f"for mu in {MODEL_MU!r}:\n"
            "    for d in (1, 8, 14):\n"
            "        for a in _unit_singular_rule(round(mu, 12), d):\n"
            "            h.update(a.tobytes())\n"
            "print(h.hexdigest())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    digests = {subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout for _ in range(2)}
    assert len(digests) == 1


def test_ray_energy_inside_the_first_breakpoint_in_closed_form():
    """|grad u|^2 r over [0, c0] on rays from a checkerboard singular point
    s, where u = r**mu Phi(theta) and so |grad u|^2 = C r**(2mu-2): the
    integral is C c0**(2mu) / (2mu), C read from the local hexagon field
    about the origin.  The nodes are mapped through s as in a plan, so
    nodes very close to s lose digits in x - s."""
    N = 6
    target, local = checkerboard_target(N), hexagon_target(1.0 / N)
    sp = target.singular_points[0]
    mu, c0 = sp.exponent, sp.radial_breakpoints[0]
    r, w = radial_rule(c0, mu)
    for theta in (0.1, 1.0, 2.5, 4.0):
        e = np.array([np.cos(theta), np.sin(theta)])
        rho = 0.5 * c0  # local radius 2 N rho = eps / 2, inside the ball
        g = 2.0 * local.gradient((2 * N * rho) * e[None])[0]
        C = (g @ g) / rho ** (2.0 * mu - 2.0)
        gu = target.gradient(sp.xy + r[:, None] * e)
        got = float(w @ (np.einsum("nd,nd->n", gu, gu) * r))
        assert got == pytest.approx(C * c0 ** (2.0 * mu) / (2.0 * mu), rel=1e-11), theta


TABLE_FIELDS = {"grad_moments": "grad_moments", "grad_sq": "grad_sq",
                "grad_fits": "grad_fits", "grad_residual": "grad_sq",
                "value_moments": "value_moments", "value_sq": "value_sq",
                "value_fits": "value_fits", "value_residual": "value_sq"}


def _macro_cell(N):
    """The elements of the N x N checkerboard that `harness._tables` keys as
    distinct, one macro cell of 8 elements, as their own mesh; with the
    target.  (`test_congruent_cells_have_equal_tables` ties every element's
    tables to those of its translate in this cell.)"""
    tri, _ = checkerboard_mesh(N)
    target, cells = checkerboard_target(N), []

    def plan_of(sub, target, exactness):
        cells.append(sub)
        return make_quadrature_plan(sub, target, exactness)

    with mock.patch("qmloc.harness.make_quadrature_plan", plan_of):
        _tables(tri, [target], 1)
    assert [cell.n_elements for cell in cells] == [8]
    return cells[0], target


DENSE_CASES = {**{f"hexagon-{eps}": (lambda eps=eps: (hexagon_mesh(eps)[0], hexagon_target(eps)))
                  for eps in DEFAULT_EPS},
               **{f"checkerboard-{N}": (lambda N=N: _macro_cell(N)) for N in (2, 4, 6, 8)}}


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_tables_match_the_dense_rule_plan(case):
    """Every target field of `element_tables`, P1--P4 on the sweep plans
    (exactness 2l + 6), within 1e-8 of the dense-rule plan's, relative to
    the field's largest entry; a residual relative to the largest norm of u
    it is the residual of, the scale of its quadrature error.  (The largest
    gap reads 1.2e-14: the tables evaluate polar nodes at their offsets from
    s, so the dense rule's innermost nodes, 2e-11 from s, keep their digits.)
    On the checkerboard the tables are compared on one macro cell, which
    holds all six of its polar classes."""
    tri, target = DENSE_CASES[case]()
    if case.startswith("checkerboard"):
        assert len(make_quadrature_plan(tri, target).rules) == 7
    for ell in (1, 2, 3, 4):
        space = build_space(tri, ell, dirichlet_on_boundary=True)
        sub = element_tables(target, make_quadrature_plan(tri, target, 2 * ell + 6), space)
        dense = element_tables(target, dense_plan(tri, target, 2 * ell + 6), space)
        for field, scale in TABLE_FIELDS.items():
            gap = np.max(np.abs(getattr(sub, field) - getattr(dense, field)))
            assert gap <= 1e-8 * np.max(np.abs(getattr(dense, scale))), (ell, field)


@pytest.mark.parametrize("R, b", [(1.0, 0.1), (0.3, 0.3), (2.0, 5.0)])
def test_radial_rule_scales_the_unit_rule(R, b):
    # the singular part ends at the first breakpoint inside (0, R), else at R
    c = b if b < R else R
    r1, w1 = _unit_singular_rule(0.25, 8)
    r, w = radial_rule(R, 0.25, (b,))
    n = len(r1)
    np.testing.assert_array_equal(r[:n], c * r1)
    np.testing.assert_array_equal(w[:n], c * w1)
    assert np.all(r[n:] >= c) and r.max() <= R
    # the model power over [0, R]: exact in the Jacobi cell, smooth beyond it
    assert float(w @ r**-0.5) == pytest.approx(2.0 * np.sqrt(R), rel=1e-12)


@pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf])
def test_radial_rule_refuses_an_extent_not_positive_and_finite(R):
    with pytest.raises(QuadratureFailure, match="radial extent"):
        radial_rule(R, 0.3, (0.1,))
    # one bad ray refuses its batch before any rule is built
    with mock.patch("qmloc.quadrature._unit_singular_rule") as unit:
        with pytest.raises(QuadratureFailure, match="radial extent"):
            _radial_rules([0.5, 0.05, R, 1.0], 0.3, (0.1,))
    unit.assert_not_called()


@pytest.mark.parametrize("b", [math.nan, -0.5, 0.0, math.inf])
def test_a_radial_breakpoint_not_positive_and_finite_is_refused(b):
    """A breakpoint that is not positive and finite is refused by one line
    naming it, by `radial_rule` and by `make_quadrature_plan`, before any
    rule is built; a finite breakpoint at or beyond the extent stays legal
    and leaves the rule as without it."""
    tri, _ = hexagon_mesh(0.1)
    target = SimpleNamespace(singular_points=(SingularPoint((0.0, 0.0), 0.3, (b, 1.0)),))
    with mock.patch("qmloc.quadrature._unit_singular_rule") as unit:
        for build in (lambda: radial_rule(1.0, 0.3, (0.1, b)),
                      lambda: make_quadrature_plan(tri, target)):
            with pytest.raises(QuadratureFailure, match="radial breakpoint") as err:
                build()
            assert repr(b) in str(err.value) and "\n" not in str(err.value)
    unit.assert_not_called()
    plain = radial_rule(1.0, 0.3)
    for beyond in (1.0, 2.0):
        for got, want in zip(radial_rule(1.0, 0.3, (beyond,)), plain):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("mu", [0.0, -0.5, math.nan, math.inf, 1e-13])
def test_plan_refuses_a_singular_exponent_not_positive_and_finite(mu):
    """An exponent that is not finite and > 0 (at 12 decimals, the class
    key's) is refused by one line naming it, before a Gauss--Jacobi rule is
    built for it."""
    tri, _ = hexagon_mesh(0.1)
    target = SimpleNamespace(singular_points=(SingularPoint((0.0, 0.0), mu, (0.1, 1.0)),))
    with pytest.raises(QuadratureFailure, match="singular exponent") as err:
        make_quadrature_plan(tri, target)
    assert repr(mu) in str(err.value) and "\n" not in str(err.value)


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_polar_rule_ball_gradient(eps):
    # squared gradient of the radial profile over the ball of radius eps,
    # assembled from four right triangles covering [-eps, eps]^2
    def gsq(pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        d = radial_profile_derivative(eps, r)
        return d * d

    corners = np.array([[eps, eps], [-eps, eps], [-eps, -eps], [eps, -eps]])
    total = 0.0
    for i in range(4):
        for tri_pts in ((corners[i], corners[(i + 1) % 4]),):
            pts, wts = polar_triangle_rule(
                np.zeros(2), tri_pts[0], tri_pts[1], np.zeros(2), eps,
                (eps, 1.0),
            )
            r = np.hypot(pts[:, 0], pts[:, 1])
            mask = r <= eps
            total += float(wts[mask] @ gsq(pts[mask]))
    exact = analytic_energy_reference(eps)["ball_gradient_sq"]
    assert total == pytest.approx(exact, rel=1e-6)


def test_plan_routes_singular_elements():
    tri, _ = hexagon_mesh(0.1)
    target = hexagon_target(0.1)
    plan = make_quadrature_plan(tri, target, exactness=8)
    # every element touches the singular origin, so every rule is polar
    for k in range(tri.n_elements):
        pts, wts = plan.element_rule(k)
        assert np.all(wts > 0)
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert r.min() > 0  # no node hits the singular point
        assert wts.sum() == pytest.approx(float(tri.areas[k]), rel=1e-7)


def test_plan_smooth_target_matches_area():
    V = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    T = np.array([[0, 1, 2], [0, 2, 3]])
    tri = build_triangulation(V, T)
    target = smooth_target(lambda p: np.ones(len(p)),
                           lambda p: np.zeros_like(p))
    plan = make_quadrature_plan(tri, target, exactness=4)
    for k in range(2):
        _, wts = plan.element_rule(k)
        assert wts.sum() == pytest.approx(0.5, rel=1e-14)


def test_plan_is_deterministic():
    tri, _ = hexagon_mesh(0.05)
    target = hexagon_target(0.05)
    p1 = make_quadrature_plan(tri, target, exactness=8)
    p2 = make_quadrature_plan(tri, target, exactness=8)
    for k in range(tri.n_elements):
        a, wa = p1.element_rule(k)
        b, wb = p2.element_rule(k)
        assert np.array_equal(a, b) and np.array_equal(wa, wb)


def _locate_loop(tri, xy, tol=1e-10):
    """One 2x2 solve per (element, point) pair; first hit in point order."""
    hits = []
    for k in range(tri.n_elements):
        v0, v1, v2 = tri.vertices[tri.triangles[k]]
        B = np.column_stack([v1 - v0, v2 - v0])
        hit = -1
        for i, p in enumerate(xy):
            xi = np.linalg.solve(B, p - v0)
            if xi[0] >= -tol and xi[1] >= -tol and xi[0] + xi[1] <= 1.0 + tol:
                hit = i
                break
        hits.append(hit)
    return hits


@pytest.mark.parametrize("n", [2, 3])
def test_point_location_matches_per_element_solves(n):
    tri, _ = checkerboard_mesh(n)
    rng = np.random.default_rng(n)
    v = tri.vertices[tri.triangles]
    mids = 0.5 * (tri.vertices[tri.edges[:, 0]] + tri.vertices[tri.edges[:, 1]])
    xy = np.vstack([
        rng.permutation(tri.vertices)[:5], rng.permutation(mids)[:5],
        v.mean(axis=1)[:3],
        # just inside and just outside the tolerance, across an edge
        mids[:4] + np.array([0.5e-10, 0.0]), mids[:4] - np.array([0.0, 3e-10]),
        rng.uniform(-0.1, 1.1, (10, 2)), tri.vertices[:2],  # repeats
    ])
    assert _locate(tri, xy) == _locate_loop(tri, xy)


# ---------------------------------------------------------------------------
# class rules against the per-element loop


def _perturbed_with_singular_points(n=4, seed=7):
    """A perturbed grid where no two elements are similar, with singular
    points at an interior vertex (its star), inside one element and at the
    midpoint of an interior edge (polar rules fanned about them)."""
    tri = _perturbed_grid(n, np.random.default_rng(seed))
    v = tri.vertices[tri.triangles]
    inner = n * (n + 1) // 2 + n // 2  # an interior vertex of the grid
    far = tri.n_elements - 1
    edge = tri.interior_edges()[0]
    points = [tri.vertices[inner], v[far].mean(axis=0),
              tri.vertices[tri.edges[edge]].mean(axis=0)]
    sing = tuple(SingularPoint(tuple(p), mu, (0.02, 0.1))
                 for p, mu in zip(points, (0.2, 0.5, 1 / 3)))
    return tri, TargetField(None, sing)


def _fig1_with_singular_origin():
    tri, _ = fig1_left_pattern(1e-4, refines=3)
    return tri, TargetField(None, (SingularPoint((0.0, 0.0), 0.25, (0.05, 0.5)),))


PLAN_CASES = {
    "hexagon-0.1": lambda: (hexagon_mesh(0.1)[0], hexagon_target(0.1)),
    "hexagon-1e-3": lambda: (hexagon_mesh(1e-3)[0], hexagon_target(1e-3)),
    **{f"checkerboard-{N}": (lambda N=N: (checkerboard_mesh(N)[0], checkerboard_target(N)))
       for N in (2, 4, 6)},
    "fig1-left-3": _fig1_with_singular_origin,
    "perturbed": _perturbed_with_singular_points,
}


@pytest.mark.parametrize("case", sorted(PLAN_CASES))
def test_plan_matches_the_per_element_loop(case):
    tri, target = PLAN_CASES[case]()
    plan = make_quadrature_plan(tri, target, exactness=8)
    assert plan.singular_elements
    assert_plan_matches(plan, target)


def test_panel_count_is_translation_invariant():
    args = (1 / 6, (1 / 72, 1 / 12))
    at_origin = polar_triangle_rule((0, 0), (1 / 12, -1 / 12), (1 / 12, 0), (0, 0), *args)
    shifted = polar_triangle_rule((0.25, 1 / 12), (1 / 3, 0), (1 / 3, 1 / 12),
                                  (0.25, 1 / 12), *args)
    # one angular panel of 10 rays, each the unit rule on [0, 1/72] and four
    # regular panels of 10: [1/72, 1/36], [1/36, 1/18], [1/18, 1/12], [1/12, R]
    per_ray = len(_unit_singular_rule(round(1 / 6, 12), 8)[0]) + 4 * 10
    assert len(at_origin[1]) == len(shifted[1]) == 10 * per_ray
    # every congruent polar element of the checkerboard gets one rule size
    tri, _ = checkerboard_mesh(6)
    target = checkerboard_target(6)
    plan = make_quadrature_plan(tri, target)
    rules, _ = element_rules(tri, target)
    for c in range(1, len(plan.rules)):
        members = np.flatnonzero(plan.element_class == c)
        assert {len(rules[k][1]) for k in members} == {len(plan.rules[c][1])}
    # 72 plain elements of 25 nodes; per macro square two polar elements of
    # 20 rays with 30 regular nodes and four of 10 rays with 40
    n_unit = len(_unit_singular_rule(round(1 / 6, 12), 8)[0])
    assert sum(len(w) for _, w in rules) == 72 * 25 + 36 * (40 * (n_unit + 30) + 40 * (n_unit + 40))


def _polar_point(verts, where, i, t, u):
    """A point of the triangle `verts` for `where`: at vertex i, within
    1e-13 h of it (toward the centroid), on the edge (v_i, v_(i+1)) at t,
    within 1e-13 h of that edge's line (inward), or inside at the
    barycentric weights u."""
    h = max(np.linalg.norm(verts[a] - verts[b]) for a in range(3) for b in range(a))
    p, p2 = verts[i], verts[(i + 1) % 3]
    if where == "vertex":
        return p
    if where == "near-vertex":
        d = verts.mean(axis=0) - p
        return p + 1e-13 * h * u[0] * d / np.linalg.norm(d)
    on = (1.0 - t) * p + t * p2
    if where == "edge":
        return on
    if where == "near-edge":
        d = verts.mean(axis=0) - on
        n = np.array([p[1] - p2[1], p2[0] - p[0]])
        n *= np.sign(n @ d) / np.linalg.norm(n)
        return on + 1e-13 * h * u[0] * n
    return (u / u.sum()) @ verts


@settings(max_examples=60, deadline=None)
@given(corners=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       where=st.sampled_from(["vertex", "near-vertex", "edge", "near-edge", "inside"]),
       i=st.integers(0, 2), t=st.floats(0.01, 0.99),
       u=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
       mu=st.sampled_from([1 / 6, 0.25, 0.5]))
def test_one_polar_loop_equals_the_vertex_and_fan_branches(corners, where, i, t, u, mu):
    verts = np.array(corners).reshape(3, 2)
    h = max(np.linalg.norm(verts[a] - verts[b]) for a in range(3) for b in range(a))
    (a, b), (c, d) = verts[1] - verts[0], verts[2] - verts[0]
    assume(abs(a * d - b * c) > 1e-2 * h * h)  # a shape-regular triangle
    s = _polar_point(verts, where, i, t, np.array(u))
    args = (*verts, s, mu, (0.05 * h,), 2)
    pts, wts = polar_triangle_rule(*args)
    want_pts, want_wts = polar_triangle_rule_branches(*args)
    assert np.array_equal(pts, want_pts) and np.array_equal(wts, want_wts)


def _assert_rules_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("case", [f"stars-{N}" for N in range(2, 9)]
                         + [f"hexagon-{eps}" for eps in DEFAULT_EPS])
def test_class_rules_equal_the_per_ray_sector_loop(case):
    """Every polar class rule of the checkerboard stars and the hexagon
    defaults, bit for bit as with one radial rule and one mapping per ray."""
    name, size = case.split("-")
    if name == "stars":
        (tri, _), target = checkerboard_mesh(int(size)), checkerboard_target(int(size))
    else:
        (tri, _), target = hexagon_mesh(float(size)), hexagon_target(float(size))
    plan = make_quadrature_plan(tri, target)
    with mock.patch("qmloc.quadrature._sector_rule", sector_rule_per_ray):
        loop = make_quadrature_plan(tri, target)
    assert len(plan.rules) == len(loop.rules) > 1
    for got, want in zip(plan.rules, loop.rules):
        _assert_rules_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(corners=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       breakpoints=st.lists(st.floats(1e-3, 2.0), max_size=3),
       mu=st.sampled_from([1 / 6, 0.25, 0.5, 0.9]), degree=st.integers(1, 8))
def test_sector_rule_equals_the_per_ray_loop(corners, breakpoints, mu, degree):
    s, p, p2 = np.array(corners).reshape(3, 2)
    h = max(np.linalg.norm(p - s), np.linalg.norm(p2 - s), np.linalg.norm(p2 - p))
    (a, b), (c, d) = p - s, p2 - s
    assume(abs(a * d - b * c) > 1e-2 * h * h)
    args = (s, p, p2, mu, breakpoints, degree)
    _assert_rules_equal(_sector_rule(*args), sector_rule_per_ray(*args))


@pytest.mark.parametrize("breakpoints", [(0.8,), (0.8, 0.9), (5.0,), (0.75, 5.0)])
def test_sector_rays_shorter_than_the_first_breakpoint(breakpoints):
    """Rays ending inside the first breakpoint hold the scaled unit rule
    alone, next to rays with regular panels (extents 0.71 to 1 here, so
    at least one ray has no regular node)."""
    args = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), 0.25, breakpoints, 8)
    pts, wts = _sector_rule(*args)
    _assert_rules_equal((pts, wts), sector_rule_per_ray(*args))
    # 20 rays of n1 unit-rule nodes, fewer than all of them with a regular panel
    n1 = len(_unit_singular_rule(0.25, 8)[0])
    assert 20 * n1 <= len(wts) < 20 * (n1 + 10)


@pytest.mark.parametrize("N", range(2, 9))
def test_checkerboard_has_six_polar_classes(N):
    calls = []

    def counted(*args):
        calls.append(args)
        return polar_triangle_rule(*args)

    tri, _ = checkerboard_mesh(N)
    with mock.patch("qmloc.quadrature.polar_triangle_rule", counted):
        plan = make_quadrature_plan(tri, checkerboard_target(N))
    assert len(plan.rules) == 7 and len(calls) == 6
    assert len(plan.singular_elements) == 6 * N * N


def test_dissimilar_elements_get_their_own_class():
    tri, target = _perturbed_with_singular_points()
    plan = make_quadrature_plan(tri, target)
    assert len(plan.rules) == len(plan.singular_elements) + 1


@pytest.mark.parametrize("shape", [[(1.0, 0.0), (0.0, 1.0)], [(0.5, -0.5), (0.5, 0.0)],
                                   [(np.cos(1.0), np.sin(1.0)), (-1 / 3, 0.7)]])
def test_class_key_separates_1e_9(shape):
    """Two copies of one element about its singular vertex, the second with
    one normalized coordinate or breakpoint moved by 1e-9 (at another place
    and scale), never share a class; unmoved copies do."""
    base = np.array([(0.0, 0.0), *shape])
    h = max(np.linalg.norm(base[i] - base[j]) for i in range(3) for j in range(i))
    bp = (0.1 * h, 0.4 * h)
    rng = np.random.default_rng(0)
    for trial in range(24):
        moved, bp2 = base.copy(), list(bp)
        step = rng.choice([-1e-9, 1e-9]) * h
        if trial and trial % 5 < 4:  # a coordinate of a vertex other than s
            moved[1 + trial % 5 // 2, trial % 2] += step
        elif trial:
            bp2[trial % 2] += step
        scale, shift = 2.0 ** rng.integers(-6, 3), rng.uniform(-3.0, 3.0, 2)
        verts = np.vstack([base, shift + scale * moved])
        tri = build_triangulation(verts, [[0, 1, 2], [3, 4, 5]])
        sing = (SingularPoint((0.0, 0.0), 0.3, bp),
                SingularPoint(tuple(shift), 0.3, tuple(scale * b for b in bp2)))
        plan = make_quadrature_plan(tri, TargetField(None, sing))
        same = plan.element_class[0] == plan.element_class[1]
        assert same == (trial == 0), trial


def test_plan_weights_are_a_lazy_sequence():
    tri, _ = checkerboard_mesh(3)
    plan = make_quadrature_plan(tri, checkerboard_target(3))
    counts = np.bincount(plan.element_class, minlength=len(plan.rules))
    assert len(plan.weights) == tri.n_elements
    assert (sum(len(w) for w in plan.weights)
            == sum(len(w) * n for (_, w, _), n in zip(plan.rules, counts)))
    for k in (0, plan.singular_elements[0], tri.n_elements - 1):
        assert np.array_equal(plan.weights[k], plan.element_rule(k)[1])
    # built once, on first access, and read-only
    assert plan.weights is plan.weights and isinstance(plan.weights, tuple)
    assert not any(w.flags.writeable for w in plan.weights)
    # blocks map every element once, within its class and the node budget, a
    # polar one to the offsets from its singular point
    seen = np.zeros(tri.n_elements, dtype=int)
    for c, ks, pts, wts, about in plan.blocks():
        assert (plan.element_class[ks] == c).all()
        assert pts.shape[:2] == wts.shape and (len(ks) == 1 or wts.size <= 4096)
        seen[ks] += 1
        if c == 0:
            assert about is None and (plan.element_point[ks] == -1).all()
        else:
            assert np.array_equal(about, plan.element_point[ks]) and (about >= 0).all()
            pts = pts + plan.origin[ks, None]
        assert np.array_equal(pts[-1], plan.element_rule(ks[-1])[0])
    assert (seen == 1).all()
