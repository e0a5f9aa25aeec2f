"""Plain and singularity-graded quadrature rules and element plans."""
import numpy as np
import pytest

from qmloc.counterexamples import (analytic_energy_reference, checkerboard_mesh,
                                   hexagon_mesh, hexagon_target, radial_profile,
                                   radial_profile_derivative)
from qmloc.fields import SingularPoint, TargetField, smooth_target
from qmloc.mesh import build_triangulation
from qmloc.quadrature import (_gauss_jacobi, _locate, _unit_singular_rule,
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
    of `reference_triangle_rule` and of `_unit_singular_rule`."""
    from scipy.special import roots_jacobi

    x, w = _gauss_jacobi(n, a, b)
    x_ref, w_ref = roots_jacobi(n, a, b)
    np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(w, w_ref, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("mu", MODEL_MU)
def test_unit_singular_rule_integrates_the_model_power(mu):
    r, w = _unit_singular_rule(mu)
    assert np.all(r > 0) and np.all(r < 1) and np.all(w > 0)
    assert float(w @ r ** (2.0 * mu - 1.0)) == pytest.approx(1.0 / (2.0 * mu), rel=1e-12)


@pytest.mark.parametrize("R, b", [(1.0, 0.1), (0.3, 0.3), (2.0, 5.0)])
def test_radial_rule_scales_the_unit_rule(R, b):
    # the singular part ends at the first breakpoint inside (0, R), else at R
    c = b if b < R else R
    r1, w1 = _unit_singular_rule(0.25)
    r, w = radial_rule(R, 0.25, (b,))
    n = len(r1)
    np.testing.assert_array_equal(r[:n], c * r1)
    np.testing.assert_array_equal(w[:n], c * w1)
    assert np.all(r[n:] >= c) and r.max() <= R
    # the model power over [0, R]: exact in the Jacobi cell, smooth beyond it
    assert float(w @ r**-0.5) == pytest.approx(2.0 * np.sqrt(R), rel=1e-12)


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
