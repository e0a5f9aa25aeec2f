"""Quasi-interpolation operators: projection, locality, stability."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmloc.bestapprox import element_tables, local_element_errors
from qmloc.coeff import attach_coefficient, select_kmax_fz
from qmloc.counterexamples import (checkerboard_mesh, checkerboard_target,
                                   fig1_left_pattern, fig1_meshes, hexagon_mesh,
                                   hexagon_target)
from qmloc.errors import NoMonotonePath, QuadratureFailure
from qmloc.fespace import build_space
from qmloc.fields import SingularPoint, TargetField, smooth_target
from qmloc.harness import default_smooth_targets
from qmloc.interp import (_edge_quadrature, interpolation_error_sq,
                          l2_quasi_interpolate, operator_report, quasi_interpolate)
from qmloc.mesh import build_triangulation, element_patch, uniform_refine
from qmloc.quadrature import make_quadrature_plan

import interp_reference as ref
from fespace_reference import eval_basis
from ritz_reference import interpolation_error_loop
from test_bestapprox import _perturbed_grid


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
    v = tri.vertices[tri.triangles]
    Binv = np.linalg.inv(np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1))

    def locate(pts):
        """The first element containing each point."""
        xi = np.einsum("kij,pkj->pki", Binv, pts[:, None, :] - v[None, :, 0])
        inside = (xi >= -1e-12).all(axis=2) & (xi.sum(axis=2) <= 1 + 1e-12)
        if not inside.any(axis=1).all():
            raise ValueError(f"point {pts[~inside.any(axis=1)][0]} outside mesh")
        return inside.argmax(axis=1)

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


def both_operators(target, space, coeff, plan):
    """The skeleton and the L2 interpolant of the target, from one table."""
    tables = element_tables(target, plan, space)
    return quasi_interpolate(target, tables, coeff), l2_quasi_interpolate(tables, coeff)


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
        skel, l2 = both_operators(target, space, coeff, plan)
        assert np.max(np.abs(skel.coefficients - x)) < 1e-10
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
        for itp in both_operators(target, space, coeff, plan):
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
    itp = quasi_interpolate(target, element_tables(target, plan, space), coeff)
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
    i0 = quasi_interpolate(base, element_tables(base, plan, space), coeff)
    i1 = quasi_interpolate(perturbed, element_tables(perturbed, plan, space), coeff)
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
    square = square_mesh()
    target = smooth_target(
        lambda p: np.exp(p[:, 0]) * np.sin(p[:, 1]),
        lambda p: np.column_stack([np.exp(p[:, 0]) * np.sin(p[:, 1]),
                                   np.exp(p[:, 0]) * np.cos(p[:, 1])]),
    )
    square_coeff = attach_coefficient(square, [1.0, 5.0, 0.5, 2.0, 1.0, 3.0, 0.25, 4.0])
    # on the fig1-left tiling, patches range from 7 to 13 elements
    for tri, coeff in [(square, square_coeff), fig1_left_pattern(1e-2, refines=2)]:
        space = build_space(tri, 2)
        plan = make_quadrature_plan(tri, target, exactness=12)
        rec = operator_report(target, space, coeff, plan, which="skeleton")
        itp = quasi_interpolate(target, element_tables(target, plan, space), coeff)
        direct = interpolation_error_loop(target, itp, coeff, plan)
        assert abs(rec["error_sq"] - direct) < 1e-12 * max(1.0, direct)
        assert rec["near_best_ratio"] >= 1.0 - 1e-12
        locals_sq = local_element_errors(element_tables(target, plan, space), coeff)
        for k, entry in enumerate(rec["per_element"]):
            patch_sum = sum(locals_sq[kk] for kk in element_patch(tri, k))
            assert abs(entry["patch_local_sum_sq"] - patch_sum) <= 1e-12 * patch_sum


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
    for itp in both_operators(target, space, coeff, plan):
        fast = interpolation_error_sq(itp, element_tables(target, plan, space), coeff)
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
        return TargetField(lambda p: (np.ones(len(p)), np.zeros_like(p)),
                           singular_points=(SingularPoint(xy, 0.25),))

    edges = np.array([e])
    plain = _edge_quadrature(space, smooth_target(None, None), edges)
    owner, t, wts = _edge_quadrature(space, singular_at((0.0, 0.0)), edges)
    assert len(wts) == 12
    np.testing.assert_array_equal(t, plain[1])
    np.testing.assert_array_equal(wts, plain[2])
    with pytest.raises(QuadratureFailure, match="strictly inside edge"):
        _edge_quadrature(space, singular_at((0.5, 0.0)), edges)


def _assert_selection_matches_loops(space, coeff):
    kmax, loc, fz = select_kmax_fz(space, coeff)
    for z in range(space.n_nodes):
        e = ref.select_fz(space, coeff, z)
        assert kmax[z] == ref.select_kmax_of_node(space, coeff, z)
        assert space.element_nodes[kmax[z], loc[z]] == z
        assert fz[z] == (-1 if e is None else e)


def _assert_operators_match_loops(target, space, coeff, plan):
    skel, l2 = both_operators(target, space, coeff, plan)
    loop_skel, _ = ref.quasi_interpolate(target, space, coeff, plan)
    loop_l2 = ref.l2_quasi_interpolate(target, space, coeff, plan)
    for fast, loop in ((skel, loop_skel), (l2, loop_l2)):
        scale = np.max(np.abs(loop.coefficients))
        assert np.max(np.abs(fast.coefficients - loop.coefficients)) <= 1e-12 * scale
        assert fast.provenance.tolist() == list(loop.provenance)


def _loop_reference_cases(ell):
    """(target, space, coefficient): the hexagon with a Dirichlet mask and
    singular edges, the checkerboard, and fig1-left at two contrasts with
    the three smooth targets."""
    tri, coeff = hexagon_mesh(0.1)
    yield hexagon_target(0.1), build_space(tri, ell, dirichlet_on_boundary=True), coeff
    tri, coeff = checkerboard_mesh(2)
    yield checkerboard_target(2), build_space(tri, ell), coeff
    for alpha in (1.0, 1e-6):
        tri, coeff = fig1_left_pattern(alpha, refines=3)
        space = build_space(tri, ell)
        for target in default_smooth_targets().values():
            yield target, space, coeff


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_interpolants_match_loop_reference(ell):
    checked = set()
    for target, space, coeff in _loop_reference_cases(ell):
        if id(space) not in checked:
            _assert_selection_matches_loops(space, coeff)
            checked.add(id(space))
        plan = make_quadrature_plan(space.tri, target, exactness=2 * ell + 6)
        _assert_operators_match_loops(target, space, coeff, plan)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3), ell=st.integers(1, 4))
def test_operators_reproduce_members_under_kmax_ties(seed, n, ell):
    rng = np.random.default_rng(seed)
    tri = _perturbed_grid(n, rng)
    coeff = attach_coefficient(tri, rng.integers(1, 4, tri.n_elements).astype(float))
    space = build_space(tri, ell)
    _assert_selection_matches_loops(space, coeff)
    x = rng.standard_normal(space.n_nodes)
    target = fe_target(space, x)
    plan = make_quadrature_plan(tri, target, exactness=2 * ell + 2)
    for itp in both_operators(target, space, coeff, plan):
        assert np.max(np.abs(itp.coefficients - x)) < 1e-10


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_l2_report_matches_quadrature_loops(ell):
    tri, coeff = fig1_left_pattern(1e-4, refines=2)
    space = build_space(tri, ell)
    for target in default_smooth_targets().values():
        plan = make_quadrature_plan(tri, target, exactness=2 * ell + 6)
        rec = operator_report(target, space, coeff, plan, which="l2",
                              energy_diagnostic=True)
        uu = ref.l2_norm_sq(target, plan)
        vv, ev = ref.interpolant_norms_sq(
            ref.l2_quasi_interpolate(target, space, coeff, plan), coeff, plan)
        eu = ref.energy_norm_sq(target, coeff, plan)
        assert abs(rec["l2_norm_sq_target"] - uu) <= 1e-12 * uu
        assert abs(rec["l2_norm_sq_interpolant"] - vv) <= 1e-12 * vv
        assert abs(rec["l2_stability_ratio"] - np.sqrt(vv / uu)) <= 1e-12 * np.sqrt(vv / uu)
        ratio = np.sqrt(ev / eu)
        assert abs(rec["energy_stability_ratio"] - ratio) <= 1e-12 * ratio
