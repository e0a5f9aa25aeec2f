"""Quasi-interpolation operators: projection, locality, stability."""
import numpy as np
import pytest

from qmloc.coeff import attach_coefficient
from qmloc.counterexamples import fig1_meshes, hexagon_mesh, hexagon_target
from qmloc.errors import NoMonotonePath, QuadratureFailure
from qmloc.fespace import build_space, eval_basis
from qmloc.fields import SingularPoint, TargetField, smooth_target
from qmloc.interp import (_edge_quadrature, interpolation_error_sq,
                          l2_quasi_interpolate, operator_report, quasi_interpolate)
from qmloc.mesh import build_triangulation, uniform_refine
from qmloc.quadrature import make_quadrature_plan

from ritz_reference import interpolation_error_loop


def square_mesh(refines=1):
    tri = build_triangulation(
        [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]]
    )
    for _ in range(refines):
        tri = uniform_refine(tri)
    return tri


def fe_target(space, x):
    """A finite element function as a globally evaluable target."""
    tri = space.tri

    def locate(pts):
        out = np.empty(len(pts), dtype=int)
        for i, p in enumerate(pts):
            for k in range(tri.n_elements):
                v0, v1, v2 = tri.vertices[tri.triangles[k]]
                B = np.column_stack([v1 - v0, v2 - v0])
                xi = np.linalg.solve(B, p - v0)
                if xi[0] >= -1e-12 and xi[1] >= -1e-12 and xi.sum() <= 1 + 1e-12:
                    out[i] = k
                    break
            else:
                raise ValueError(f"point {p} outside mesh")
        return out

    def value(pts):
        pts = np.atleast_2d(pts)
        ks = locate(pts)
        out = np.empty(len(pts))
        for k in np.unique(ks):
            m = ks == k
            v, _ = eval_basis(space, int(k), pts[m])
            out[m] = v @ x[space.element_nodes[int(k)]]
        return out

    def gradient(pts):
        pts = np.atleast_2d(pts)
        ks = locate(pts)
        out = np.empty((len(pts), 2))
        for k in np.unique(ks):
            m = ks == k
            _, g = eval_basis(space, int(k), pts[m])
            out[m] = np.einsum("qid,i->qd", g, x[space.element_nodes[int(k)]])
        return out

    return smooth_target(value, gradient)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_both_operators_reproduce_the_space(ell):
    tri = square_mesh()
    coeff = attach_coefficient(tri, [1.0, 5.0, 0.5, 2.0, 1.0, 3.0, 0.25, 4.0])
    space = build_space(tri, ell)
    rng = np.random.default_rng(100 + ell)
    for _ in range(5):
        x = rng.standard_normal(space.n_nodes)
        target = fe_target(space, x)
        plan = make_quadrature_plan(tri, target, exactness=2 * ell + 4)
        skel = quasi_interpolate(target, space, coeff, plan)
        assert np.max(np.abs(skel.coefficients - x)) < 1e-10
        l2 = l2_quasi_interpolate(target, space, coeff, plan)
        assert np.max(np.abs(l2.coefficients - x)) < 1e-10


def test_constants_are_reproduced():
    tri = square_mesh()
    coeff = attach_coefficient(tri, 1.0 + np.arange(8.0))
    target = smooth_target(
        lambda p: np.full(len(p), 3.25),
        lambda p: np.zeros((len(p), 2)),
    )
    for ell in (1, 2, 3):
        space = build_space(tri, ell)
        plan = make_quadrature_plan(tri, target, exactness=2 * ell + 2)
        for op in (quasi_interpolate, l2_quasi_interpolate):
            itp = op(target, space, coeff, plan)
            assert np.max(np.abs(itp.coefficients - 3.25)) < 1e-12


def test_dirichlet_nodes_are_zeroed():
    tri = square_mesh()
    coeff = attach_coefficient(tri, np.ones(8))
    space = build_space(tri, 2, dirichlet_on_boundary=True)
    target = smooth_target(
        lambda p: 1.0 + p[:, 0],
        lambda p: np.broadcast_to([1.0, 0.0], (len(p), 2)).copy(),
    )
    plan = make_quadrature_plan(tri, target, exactness=8)
    itp = quasi_interpolate(target, space, coeff, plan)
    for z in range(space.n_nodes):
        if space.dirichlet[z]:
            assert itp.coefficients[z] == 0.0
            assert itp.provenance[z] == "boundary-zero"
        else:
            assert itp.provenance[z] in ("face-dual", "interior-best-fit")


def test_skeleton_operator_is_local():
    """A bump supported strictly inside one element only moves that
    element's interior nodes."""
    tri = square_mesh()
    coeff = attach_coefficient(tri, [1.0, 5.0, 0.5, 2.0, 1.0, 3.0, 0.25, 4.0])
    space = build_space(tri, 3)
    base = smooth_target(
        lambda p: p[:, 0] * p[:, 1],
        lambda p: p[:, ::-1].copy(),
    )
    kb = 3
    v0, v1, v2 = tri.vertices[tri.triangles[kb]]
    B = np.column_stack([v1 - v0, v2 - v0])
    Binv = np.linalg.inv(B)

    def bary(p):
        xi = (p - v0) @ Binv.T
        lam = np.column_stack([1 - xi[:, 0] - xi[:, 1], xi[:, 0], xi[:, 1]])
        return lam

    def bump(p):
        lam = bary(np.atleast_2d(p))
        inside = np.all(lam > -1e-14, axis=1)
        out = np.where(inside, np.prod(np.clip(lam, 0, None) ** 2, axis=1), 0.0)
        return out

    def bump_grad(p):
        p = np.atleast_2d(p)
        g = np.zeros((len(p), 2))
        h = 1e-7
        for d in range(2):
            dp = np.zeros(2)
            dp[d] = h
            g[:, d] = (bump(p + dp) - bump(p - dp)) / (2 * h)
        return g

    perturbed = smooth_target(
        lambda p: base.value(p) + 50.0 * bump(p),
        lambda p: base.gradient(p) + 50.0 * bump_grad(p),
    )
    plan = make_quadrature_plan(tri, base, exactness=14)
    i0 = quasi_interpolate(base, space, coeff, plan)
    i1 = quasi_interpolate(perturbed, space, coeff, plan)
    moved = np.nonzero(np.abs(i1.coefficients - i0.coefficients) > 1e-9)[0]
    for z in moved:
        assert space.node_kind[z] == "interior"
        assert int(space.node_entity[z]) == kb


def test_energy_diagnostic_refuses_non_quasi_monotone():
    tri, coeff = hexagon_mesh(0.1)
    target = hexagon_target(0.1)
    space = build_space(tri, 1)
    plan = make_quadrature_plan(tri, target, exactness=8)
    with pytest.raises(NoMonotonePath):
        operator_report(target, space, coeff, plan, which="l2",
                        energy_diagnostic=True)
    # without the diagnostic the report is produced
    rec = operator_report(target, space, coeff, plan, which="l2")
    assert rec["l2_stability_ratio"] > 0


def test_energy_diagnostic_on_quasi_monotone_mesh():
    tri, coeff = fig1_meshes(4, "left")
    target = smooth_target(
        lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1]),
        lambda p: np.column_stack([np.cos(p[:, 0]) * np.cos(p[:, 1]),
                                   -np.sin(p[:, 0]) * np.sin(p[:, 1])]),
    )
    space = build_space(tri, 1)
    plan = make_quadrature_plan(tri, target, exactness=10)
    rec = operator_report(target, space, coeff, plan, which="l2",
                          energy_diagnostic=True)
    assert rec["energy_stability_ratio"] > 0
    assert set(rec["omega_hat_sizes"]) == set(range(tri.n_elements))


def test_skeleton_report_bounds_error_by_patch_sums():
    tri = square_mesh()
    coeff = attach_coefficient(tri, [1.0, 5.0, 0.5, 2.0, 1.0, 3.0, 0.25, 4.0])
    target = smooth_target(
        lambda p: np.exp(p[:, 0]) * np.sin(p[:, 1]),
        lambda p: np.column_stack([np.exp(p[:, 0]) * np.sin(p[:, 1]),
                                   np.exp(p[:, 0]) * np.cos(p[:, 1])]),
    )
    space = build_space(tri, 2)
    plan = make_quadrature_plan(tri, target, exactness=12)
    rec = operator_report(target, space, coeff, plan, which="skeleton")
    itp = quasi_interpolate(target, space, coeff, plan)
    direct = interpolation_error_loop(target, itp, coeff, plan)
    assert abs(rec["error_sq"] - direct) < 1e-12 * max(1.0, direct)
    assert rec["near_best_ratio"] >= 1.0 - 1e-12


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_interpolation_error_matches_quadrature_loop(ell):
    tri = square_mesh()
    coeff = attach_coefficient(tri, [1.0, 5.0, 0.5, 2.0, 1.0, 3.0, 0.25, 4.0])
    target = smooth_target(
        lambda p: np.exp(p[:, 0]) * np.sin(2.0 * p[:, 1]),
        lambda p: np.column_stack([np.exp(p[:, 0]) * np.sin(2.0 * p[:, 1]),
                                   2.0 * np.exp(p[:, 0]) * np.cos(2.0 * p[:, 1])]),
    )
    space = build_space(tri, ell)
    plan = make_quadrature_plan(tri, target, exactness=2 * ell + 6)
    for op in (quasi_interpolate, l2_quasi_interpolate):
        itp = op(target, space, coeff, plan)
        fast = interpolation_error_sq(target, itp, coeff, plan)
        loop = np.array([interpolation_error_loop(target, itp, coeff, plan, [k])
                         for k in range(tri.n_elements)])
        assert fast.shape == (tri.n_elements,)
        assert np.max(np.abs(fast - loop) / loop) < 1e-12


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_skeleton_report_of_a_member_is_zero(ell):
    tri = square_mesh()
    coeff = attach_coefficient(tri, [1.0, 5.0, 0.5, 2.0, 1.0, 3.0, 0.25, 4.0])
    target = smooth_target(
        lambda p: p[:, 0] ** ell + 3.0 * p[:, 0] * p[:, 1] ** (ell - 1) - 0.3,
        lambda p: np.column_stack([ell * p[:, 0] ** (ell - 1) + 3.0 * p[:, 1] ** (ell - 1),
                                   3.0 * (ell - 1) * p[:, 0] * p[:, 1] ** max(ell - 2, 0)]),
    )
    space = build_space(tri, ell)
    plan = make_quadrature_plan(tri, target, exactness=2 * ell + 6)
    rec = operator_report(target, space, coeff, plan, which="skeleton")
    # rounding level: the energy of the target is of order one
    assert rec["error_sq"] < 1e-24


def test_edge_quadrature_only_refuses_a_singular_point_inside_the_edge():
    # a fan about (0.25, 0): the edge (0.25, 0)-(1, 0) lies on a line
    # through the origin but does not contain it
    tri = build_triangulation(
        [[0, 0], [0.25, 0], [1, 0], [0, 1], [0.25, -1]],
        [[0, 1, 3], [1, 2, 3], [0, 4, 1], [1, 4, 2]],
    )
    space = build_space(tri, 1)
    e = [tuple(ed) for ed in tri.edges.tolist()].index((1, 2))

    def singular_at(xy):
        return TargetField(value_fn=lambda p: np.ones(len(p)),
                           gradient_fn=lambda p: np.zeros_like(p),
                           singular_points=(SingularPoint(xy, 0.25),))

    plain = _edge_quadrature(space, smooth_target(None, None), e)
    pts, wts = _edge_quadrature(space, singular_at((0.0, 0.0)), e)
    assert len(wts) == 12
    np.testing.assert_array_equal(pts, plain[0])
    np.testing.assert_array_equal(wts, plain[1])
    with pytest.raises(QuadratureFailure, match="strictly inside edge"):
        _edge_quadrature(space, singular_at((0.5, 0.0)), e)
