"""Best-approximation errors: element tables, the global Ritz solve, the
batched local Ritz kernel, and the local, regional, global and
combined-norm errors built on them."""
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmloc.bestapprox import (ElementTables, LevelFactor, LocalizationReport, SparseMatrix,
                              SpdSystem, _element_loads, _element_matrices, _free_operator,
                              element_tables, element_tables_each, local_element_errors,
                              local_ritz, ritz, ritz_each, solve_spd)
from qmloc.coeff import attach_coefficient
from qmloc.counterexamples import (checkerboard_mesh, checkerboard_target,
                                   fig1_left_pattern, fig1_left_values, fig1_refined,
                                   hexagon_mesh, hexagon_target)
from qmloc.errors import ParameterOutOfRange, PlanMismatch, PointOutsideElement, SolverFailure
from qmloc.fespace import build_space, element_mass_matrix
from qmloc.fields import TargetField, smooth_target
from qmloc.harness import default_smooth_targets
from qmloc.interp import interpolation_error_sq, quasi_interpolate
from qmloc.mesh import build_triangulation, edge_pair, region_rows, uniform_refine, vertex_patch
from qmloc.quadrature import make_quadrature_plan

import report_reference
from interp_reference import energy_norm_sq, l2_norm_sq
from mesh_reference import csr
from ritz_reference import (QuadratureOracle, assemble, dense_ritz_error, element_stiffness,
                            energy_rhs, mass_rhs, masked_ritz, monomial_element_fit)


def reference_element():
    tri = build_triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    return tri, attach_coefficient(tri, [1.0])


def square_mesh(refines=1):
    tri = build_triangulation(
        [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]]
    )
    for _ in range(refines):
        tri = uniform_refine(tri)
    return tri


def quadratic_target():
    return smooth_target(
        lambda p: p[:, 0] ** 2,
        lambda p: np.column_stack([2 * p[:, 0], np.zeros(len(p))]),
    )


def sine_target():
    return smooth_target(
        lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
        lambda p: np.pi * np.column_stack([
            np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
            np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
        ]),
    )


def tables_of(target, tri, degree, exactness, dirichlet=False):
    plan = make_quadrature_plan(tri, target, exactness=exactness)
    space = build_space(tri, degree, dirichlet_on_boundary=dirichlet)
    return element_tables(target, plan, space), plan, space


def test_element_error_x_squared():
    tri, coeff = reference_element()
    tables, _, _ = tables_of(quadratic_target(), tri, 1, 10)
    assert abs(local_element_errors(tables, coeff)[0] - 1.0 / 9.0) < 1e-10


def test_element_error_x2_plus_y2():
    tri, coeff = reference_element()
    target = smooth_target(
        lambda p: p[:, 0] ** 2 + p[:, 1] ** 2,
        lambda p: 2.0 * p,
    )
    tables, _, _ = tables_of(target, tri, 1, 10)
    assert abs(local_element_errors(tables, coeff)[0] - 2.0 / 9.0) < 1e-10


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_polynomial_targets_have_zero_error(ell):
    rng = np.random.default_rng(7)
    c = rng.standard_normal((ell + 1, ell + 1))
    expo = [(a, b) for a in range(ell + 1) for b in range(ell + 1 - a)]

    def value(p):
        return sum(c[a, b] * p[:, 0] ** a * p[:, 1] ** b for a, b in expo)

    def gradient(p):
        gx = sum(a * c[a, b] * p[:, 0] ** max(a - 1, 0) * p[:, 1] ** b
                 for a, b in expo if a > 0)
        gy = sum(b * c[a, b] * p[:, 0] ** a * p[:, 1] ** max(b - 1, 0)
                 for a, b in expo if b > 0)
        return np.column_stack([np.broadcast_to(gx, len(p)),
                                np.broadcast_to(gy, len(p))])

    tri = square_mesh()
    coeff = attach_coefficient(tri, 1.0 + np.arange(tri.n_elements))
    target = smooth_target(value, gradient)
    tables, _, space = tables_of(target, tri, ell, 2 * ell + 2)
    for k in range(tri.n_elements):
        assert local_element_errors(tables, coeff)[k] < 1e-10
    assert local_ritz(tables, coeff.values, csr([range(tri.n_elements)]))[0][0] < 1e-10
    err, x = ritz(tables, coeff.values)
    assert err < 1e-10
    # the projection of a member is the member itself up to the pinned constant
    gap = x - value(space.nodes)
    assert np.max(np.abs(gap - gap[0])) < 1e-10 * max(1.0, np.max(np.abs(x)))


def test_global_error_matches_dense_brute_force():
    tri = square_mesh()
    coeff = attach_coefficient(tri, [1.0, 5.0, 0.5, 2.0, 1.0, 3.0, 0.25, 4.0])
    target = sine_target()
    for ell in (1, 2):
        tables, plan, space = tables_of(target, tri, ell, 12, dirichlet=True)
        err, _ = ritz(tables, coeff.values)
        A = assemble(space, coeff.values)
        b = energy_rhs(space, coeff.values, target, plan)
        free = ~space.dirichlet
        x = np.linalg.solve(A[np.ix_(free, free)], b[free])
        dense_err = energy_norm_sq(target, coeff, plan) - b[free] @ x
        assert abs(err - dense_err) < 1e-8 * max(1.0, dense_err)
        # the constrained regional solve over the whole mesh is the same problem
        region_err = local_ritz(tables, coeff.values, csr([range(tri.n_elements)]))[0][0]
        assert abs(region_err - err) < 1e-8 * max(1.0, err)


def test_solver_matches_dense_on_random_spd():
    rng = np.random.default_rng(42)
    B = rng.standard_normal((50, 50))
    A = B @ B.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    rows, cols = np.indices(A.shape).reshape(2, -1)
    x = solve_spd(SpdSystem(matrix=SparseMatrix(rows, cols, A.ravel(), A.shape), rhs=b),
                  rtol=1e-14)
    assert np.linalg.norm(x - np.linalg.solve(A, b)) < 1e-10 * np.linalg.norm(b)


def _check_operator_against_scipy(space, K, free, rng):
    """`SparseMatrix` of the element matrices K (nt, nloc, nloc) against
    scipy.sparse, the oracle.  The assembled entries agree within 4 ulp of
    the sum of the magnitudes of their terms, which scipy adds in another
    order; on scipy's own entries the product is bit for bit scipy's, on the
    whole matrix, its rows `free` and its restriction to `free`, and so are
    the diagonal and the restriction itself."""
    en, m = space.element_nodes, space.n_nodes
    rows = np.repeat(en, en.shape[1], axis=1).ravel()
    cols = np.tile(en, (1, en.shape[1])).ravel()
    ours = SparseMatrix(rows, cols, K.ravel(), (m, m))
    oracle = sp.coo_matrix((K.ravel(), (rows, cols)), shape=(m, m)).tocsr()
    oracle.sum_duplicates()
    size = sp.coo_matrix((np.abs(K).ravel(), (rows, cols)), shape=(m, m)).tocsr()
    size.sum_duplicates()
    coo = oracle.tocoo()
    r, c, v = ours.entries()
    assert np.array_equal(r, coo.row) and np.array_equal(c, coo.col)
    assert (np.abs(v - coo.data) <= 4 * np.spacing(size.data)).all()
    same = SparseMatrix(coo.row, coo.col, coo.data, (m, m))
    assert np.array_equal(same.entries()[2], coo.data)
    assert np.array_equal(same.diagonal(), oracle.diagonal())
    p = rng.standard_normal(m)
    assert np.array_equal(same @ p, oracle @ p)
    assert np.array_equal(same[free] @ p, oracle[free] @ p)
    sub, oracle_sub = same[free][:, free], oracle[free][:, free].tocoo()
    assert sub.shape == oracle_sub.shape
    r, c, v = sub.entries()
    assert np.array_equal(r, oracle_sub.row) and np.array_equal(c, oracle_sub.col)
    assert np.array_equal(v, oracle_sub.data)
    assert np.array_equal(sub.diagonal(), oracle_sub.diagonal())
    q = p[free]
    assert np.array_equal(sub @ q, oracle_sub.tocsr() @ q)


@pytest.mark.parametrize("mesh,degree", [
    *[("fig1", d) for d in (1, 2, 3, 4)], ("hexagon", 2), ("checkerboard", 1),
    ("checkerboard", 3)])
def test_sparse_matrix_matches_scipy(mesh, degree):
    if mesh == "fig1":
        tri, coarse = fig1_refined(2)
        a = fig1_left_values(1e-6)[coarse]
    else:
        tri, coeff = hexagon_mesh(0.1) if mesh == "hexagon" else checkerboard_mesh(3)
        a = coeff.values
    tables, _, space = tables_of(quadratic_target(), tri, degree, 2 * degree + 2,
                                 dirichlet=mesh == "checkerboard")
    rng = np.random.default_rng(degree)
    en, m = space.element_nodes, space.n_nodes
    rows = np.repeat(en, en.shape[1], axis=1).ravel()
    cols = np.tile(en, (1, en.shape[1])).ravel()
    for beta in (0.0, 1e4):
        K = _element_matrices(tables, a, beta, slice(None))
        free = ~space.dirichlet
        free[0] &= mesh != "fig1"  # the pinned node of `ritz_each`
        _check_operator_against_scipy(space, K, free, rng)
        _check_operator_against_scipy(space, K, rng.random(space.n_nodes) < 0.7, rng)
        # `ritz_each` assembles the free entries alone: the same entries,
        # summed in the same order, as the restriction of the whole operator
        restricted = SparseMatrix(rows, cols, K.ravel(), (m, m))[free][:, free]
        ours = _free_operator(tables, a, beta, free)
        assert ours.shape == restricted.shape
        for x, y in zip(ours.entries(), restricted.entries()):
            assert np.array_equal(x, y)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), degree=st.integers(1, 3))
def test_sparse_matrix_matches_scipy_on_perturbed_grids(seed, n, degree):
    rng = np.random.default_rng(seed)
    tri = _perturbed_grid(n, rng)
    tables, _, space = tables_of(quadratic_target(), tri, degree, 2 * degree + 2)
    K = _element_matrices(tables, 10.0 ** rng.uniform(-6.0, 6.0, tri.n_elements),
                          rng.uniform(0.0, 1e3), slice(None))
    _check_operator_against_scipy(space, K, rng.random(space.n_nodes) < 0.8, rng)


def test_sparse_matrix_sums_a_lone_wide_row_in_column_order():
    # one row of width 12 among rows of width 2 and an empty row: numpy would
    # sum a block of one row pairwise, and these 12 values sum to another
    # double that way
    rng = np.random.default_rng(2)
    wide = rng.standard_normal(12) * 10.0 ** rng.integers(-8, 9, 12)
    rows = np.r_[np.repeat(np.arange(5), 2), np.full(12, 5)]
    cols = np.r_[np.tile([0, 1], 5), np.arange(12)]
    vals = np.r_[np.ones(10), wide]
    ours = SparseMatrix(rows, cols, vals, (7, 12))
    p = np.ones(12)
    expected = 0.0
    for v in wide:
        expected += v
    assert expected != np.add.reduce(wide[:, None], axis=0)[0]
    y = ours @ p
    assert y[5] == expected and y[6] == 0.0
    assert np.array_equal(y, sp.csr_matrix((vals, (rows, cols)), shape=(7, 12)) @ p)


def test_sparse_matrix_of_no_rows():
    empty = SparseMatrix([0, 1], [0, 1], [1.0, 2.0], (2, 2))[np.zeros(2, dtype=bool)]
    assert empty.shape == (0, 2) and (empty @ np.ones(2)).shape == (0,)
    assert empty.diagonal().shape == (0,)


@pytest.mark.parametrize("key", [
    np.array([0, 1, 2]), (slice(None), np.array([2, 1, 0])), np.ones(2, dtype=bool),
    (slice(None), np.ones(4, dtype=bool)), np.ones((3, 3), dtype=bool), slice(1, None), 0,
    (slice(None), slice(None), slice(None))],
    ids=["int-rows", "int-cols", "short-mask", "long-mask", "2d-mask", "slice", "int", "3-keys"])
def test_sparse_matrix_takes_only_a_mask_or_a_colon(key):
    m = SparseMatrix([0, 1, 2, 2], [0, 1, 0, 2], [1.0, 2.0, 3.0, 4.0], (3, 3))
    with pytest.raises(ValueError, match="SparseMatrix") as err:
        m[key]
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("rows, cols, values, shape, message", [
    ([0, 1], [2, 1], [5.0, 2.0], (2, 2), "column 2 lies outside [0, 2)"),
    ([0, 1], [0, -1], [5.0, 2.0], (2, 2), "column -1 lies outside [0, 2)"),
    ([0, 1], [0], [5.0, 2.0], (2, 2), "equal length"),
    ([[0, 1]], [[0, 1]], [[5.0, 2.0]], (2, 2), "1-D arrays"),
    ([0, 2], [0, 1], [5.0, 2.0], (2, 2), "row 2 lies outside [0, 2)"),
    ([0, -1], [0, 1], [5.0, 2.0], (2, 2), "row -1 lies outside [0, 2)"),
    ([], [], [], (2, -1), "shape (2, -1) is not two non-negative integers"),
    ([], [], [], (2.5, 2), "shape (2.5, 2) is not two non-negative integers"),
    ([], [], [], (-1, 2), "shape (-1, 2) is not two non-negative integers"),
    ([], [], [], (2,), "shape (2,) is not two non-negative integers"),
    ([], [], [], (True, 2), "shape (True, 2) is not two non-negative integers"),
], ids=["col-past-end", "negative-col", "short-cols", "2d", "row-past-end", "negative-row",
        "negative-cols-shape", "float-shape", "negative-rows-shape", "1d-shape", "bool-shape"])
def test_sparse_matrix_refuses_entries_outside_its_shape(rows, cols, values, shape, message):
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        SparseMatrix(rows, cols, values, shape)
    assert str(err.value).startswith("SparseMatrix") and "\n" not in str(err.value)


@pytest.mark.parametrize("p", [np.ones(5), np.ones((3, 2)), np.ones(2)],
                         ids=["long", "2d", "short"])
def test_sparse_matrix_product_refuses_an_operand_of_another_shape(p):
    m = SparseMatrix([0, 1, 2, 2], [0, 1, 0, 2], [1.0, 2.0, 3.0, 4.0], (3, 3))
    message = f"SparseMatrix of shape (3, 3) cannot multiply an operand of shape {p.shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        m @ p


def test_coefficient_scale_equivariance():
    tri = square_mesh()
    coeff = attach_coefficient(tri, [1.0, 5.0, 0.5, 2.0, 1.0, 3.0, 0.25, 4.0])
    scaled = attach_coefficient(tri, 13.0 * coeff.values)
    tables, _, _ = tables_of(quadratic_target(), tri, 1, 10)
    e1, _ = ritz(tables, coeff.values)
    e2, _ = ritz(tables, scaled.values)
    assert abs(e2 - 13.0 * e1) < 1e-10 * max(1.0, e2)
    for k in range(tri.n_elements):
        f1 = local_element_errors(tables, coeff)[k]
        f2 = local_element_errors(tables, scaled)[k]
        assert abs(f2 - 13.0 * f1) < 1e-12


def test_element_sum_is_lower_bound():
    tri = square_mesh()
    coeff = attach_coefficient(tri, [1.0, 5.0, 0.5, 2.0, 1.0, 3.0, 0.25, 4.0])
    target = smooth_target(
        lambda p: np.exp(p[:, 0] + 0.5 * p[:, 1]),
        lambda p: np.column_stack([np.exp(p[:, 0] + 0.5 * p[:, 1]),
                                   0.5 * np.exp(p[:, 0] + 0.5 * p[:, 1])]),
    )
    tables, _, _ = tables_of(target, tri, 2, 12)
    err, _ = ritz(tables, coeff.values)
    total = sum(local_element_errors(tables, coeff)[k] for k in range(tri.n_elements))
    assert total <= err + 1e-12


def test_best_fit_matches_element_mean():
    tri, coeff = reference_element()
    target = quadratic_target()
    tables, plan, space = tables_of(target, tri, 1, 10)
    values = tables.grad_fits[0]
    pts, wts = plan.element_rule(0)
    mean_u = wts @ target.value(pts) / tri.areas[0]
    mean_p = values @ element_mass_matrix(space, 0).sum(axis=1) / tri.areas[0]
    assert abs(mean_u - mean_p) < 1e-12


def test_pair_error_zero_for_member_of_space():
    tri = square_mesh()
    target = smooth_target(
        lambda p: 2.0 * p[:, 0] - p[:, 1] + 0.5,
        lambda p: np.broadcast_to([2.0, -1.0], (len(p), 2)).copy(),
    )
    tables, _, _ = tables_of(target, tri, 1, 8)
    zero = np.zeros(tri.n_elements)
    pairs = region_rows(tri.edge_elements, tri.interior_edges())
    for err in local_ritz(tables, zero, pairs, 1.0)[0]:
        assert err < 1e-12


def test_reaction_diffusion_consistency():
    tri = square_mesh()
    coeff = attach_coefficient(tri, [1.0, 5.0, 0.5, 2.0, 1.0, 3.0, 0.25, 4.0])
    tables, _, _ = tables_of(sine_target(), tri, 1, 12)
    gradient_sq = ritz(tables, coeff.values)[0]
    l2_sq = ritz(tables, np.zeros(tri.n_elements), 1.0)[0]
    assert ritz(tables, coeff.values, 0.0)[0] == gradient_sq
    for beta in (0.0, 1e-4, 1.0, 1e4):
        combined = ritz(tables, coeff.values, beta)[0]
        # splitting lower bound: the combined minimum dominates the sum of
        # the separately minimized gradient and L2 parts
        floor = gradient_sq + beta * l2_sq
        assert combined >= floor - 1e-10 * combined


def test_localization_report_serializes():
    report = LocalizationReport(
        global_error_sq=2.0,
        loci={"element": [(0, 0.5), (1, 0.5)]},
        metadata={"eps": 0.1},
    )
    d = report_reference.to_json_dict(report)
    assert d["sums"]["element"] == 1.0
    assert d["ratios"]["element"] == 2.0
    json.dumps(d)  # must be serializable as-is


# ---------------------------------------------------------------------------
# the batched tables and the kernel against the per-element loops


def _rel(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) / max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("case,degree", [("hexagon", 1), ("hexagon", 2), ("smooth", 3),
                                         ("checkerboard", 1), ("fig1", 1)])
def test_tables_match_element_loops(case, degree):
    if case == "hexagon":
        tri, _ = hexagon_mesh(0.1)
        target = hexagon_target(0.1)
        plan = make_quadrature_plan(tri, target)  # polar rules at the center
        assert plan.singular_elements
    elif case == "checkerboard":
        tri, _ = checkerboard_mesh(2)
        target = checkerboard_target(2)
        plan = make_quadrature_plan(tri, target)  # polar and plain elements mix
        assert 0 < len(plan.singular_elements) < tri.n_elements
    elif case == "fig1":
        tri, _ = fig1_left_pattern(1e-4, refines=3)
        target = sine_target()
        plan = make_quadrature_plan(tri, target)
        # a rule size spans several blocks
        assert sum(1 for _ in plan.blocks()) > len({len(w) for w in plan.weights})
    else:
        tri = square_mesh()
        target = sine_target()
        plan = make_quadrature_plan(tri, target, exactness=2 * degree + 4)
    space = build_space(tri, degree)
    tables = element_tables(target, plan, space)
    ones = attach_coefficient(tri, np.ones(tri.n_elements))
    n = tri.n_elements
    assert _rel(tables.stiffness, [element_stiffness(space, k) for k in range(n)]) < 1e-12
    assert _rel(tables.mass, [element_mass_matrix(space, k) for k in range(n)]) < 1e-12
    nodes = space.element_nodes.ravel()
    b_grad = np.bincount(nodes, tables.grad_moments.ravel(), minlength=space.n_nodes)
    b_mass = np.bincount(nodes, tables.value_moments.ravel(), minlength=space.n_nodes)
    assert _rel(b_grad, energy_rhs(space, ones.values, target, plan)) < 1e-12
    assert _rel(b_mass, mass_rhs(space, target, plan)) < 1e-12
    assert _rel(tables.grad_sq,
                [energy_norm_sq(target, ones, plan, [k]) for k in range(n)]) < 1e-12
    assert _rel(tables.value_sq, [l2_norm_sq(target, plan, [k]) for k in range(n)]) < 1e-12
    # the residual energies of the stored fits, by the quadrature loop
    oracle = QuadratureOracle(space, target, plan)
    grad = [oracle.local_error(ones.values, [k], tables.grad_fits[k:k + 1]) for k in range(n)]
    value = [oracle.local_error(0.0 * ones.values, [k], tables.value_fits[k:k + 1], 1.0)
             for k in range(n)]
    assert _rel(tables.grad_residual, grad) < 1e-12
    assert _rel(tables.value_residual, value) < 1e-12


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_ritz_element_matches_monomial_fit(degree):
    tri = square_mesh()
    coeff = attach_coefficient(tri, [1.0, 5.0, 0.5, 2.0, 1.0, 3.0, 0.25, 4.0])
    target = sine_target()
    tables, plan, space = tables_of(target, tri, degree, 12)
    for k in range(tri.n_elements):
        err, fit = monomial_element_fit(target, plan, k, degree)
        assert abs(local_element_errors(tables, coeff)[k] - coeff.values[k] * err) < 1e-10
        ids = space.element_nodes[k]
        values = tables.grad_fits[k]
        assert np.max(np.abs(values - fit(space.nodes[ids]))) < 1e-10


@pytest.mark.parametrize("kind", ["dirichlet", "pinned", "reaction", "star", "mixed"])
def test_ritz_matches_dense_solve(kind):
    tri = square_mesh()
    coeff = attach_coefficient(tri, [1.0, 5.0, 0.5, 2.0, 1.0, 3.0, 0.25, 4.0])
    target = sine_target()
    if kind == "mixed":
        _check_mixed_regions(tri, coeff.values, target)
        return
    tables, plan, space = tables_of(target, tri, 2, 12, dirichlet=(kind == "dirichlet"))
    fixed = space.dirichlet if kind == "dirichlet" else None
    beta = 1.0 if kind == "reaction" else 0.0
    if kind == "star":
        region = vertex_patch(tri, 4)
        err, x = local_ritz(tables, coeff.values, csr([region]), beta)
        err, x, nodes = err[0], x[0], space.element_nodes[region]
    else:
        region = None
        err, x = ritz(tables, coeff.values, beta)
        nodes = slice(None)
    dense_err, dense_x = dense_ritz_error(space, coeff.values, target, plan,
                                          region=region, fixed=fixed, beta=beta)
    assert abs(err - dense_err) < 1e-10 * max(1.0, dense_err)
    assert np.max(np.abs(x - dense_x[nodes])) < 1e-8 * max(1.0, np.max(np.abs(dense_x)))


def _check_mixed_regions(tri, a, target):
    """One `local_ritz` call over every element, interior pair and vertex
    star, at P1-P3: pinned, Dirichlet, beta = 1 with a = 0, and beta > 0
    with a > 0.  Each error within 1e-12 of its region's energy of the dense
    solve, the element-node values within 1e-8, and the padding zero."""
    regions = ([[k] for k in range(tri.n_elements)]
               + [edge_pair(tri, e) for e in tri.interior_edges()]
               + [vertex_patch(tri, z) for z in range(tri.n_vertices)])
    cases = [(False, a, 0.0), (True, a, 0.0), (False, np.zeros_like(a), 1.0), (False, a, 0.5)]
    for degree in (1, 2, 3):
        for dirichlet, w, beta in cases:
            tables, plan, space = tables_of(target, tri, degree, 12, dirichlet)
            fixed = space.dirichlet if dirichlet else None
            err, x = local_ritz(tables, w, csr(regions), beta)
            assert x.shape == (len(regions), 6, space.element_nodes.shape[1])
            for p, region in enumerate(regions):
                r = list(region)
                energy = w[r] @ tables.grad_sq[r] + beta * tables.value_sq[r].sum()
                dense_err, dense_x = dense_ritz_error(space, w, target, plan, r, fixed, beta)
                assert abs(err[p] - dense_err) <= 1e-12 * energy
                scale = max(1.0, np.max(np.abs(dense_x)))
                gap = np.abs(x[p, :len(r)] - dense_x[space.element_nodes[r]])
                assert np.max(gap) < 1e-8 * scale
                assert not x[p, len(r):].any()


def test_element_tables_reject_a_plan_of_another_mesh():
    tri = square_mesh()
    shifted = build_triangulation(tri.vertices + 0.25, tri.triangles)
    plan = make_quadrature_plan(shifted, sine_target())
    with pytest.raises(PointOutsideElement):
        element_tables(sine_target(), plan, build_space(tri, 1))


@pytest.mark.parametrize("case", ["square", "hexagon"])
def test_plans_are_checked_against_the_mesh(case):
    """A plan of an equal mesh is read as its own; a plan of a shifted mesh,
    of the same elements with their vertices rotated (class reference
    coordinates in another frame) or of fewer elements is refused by both
    plan readers."""
    if case == "square":
        tri, target = square_mesh(), sine_target()
    else:
        tri, target = hexagon_mesh(0.1)[0], hexagon_target(0.1)
    space = build_space(tri, 2)
    coeff = attach_coefficient(tri, np.ones(tri.n_elements))
    plan = make_quadrature_plan(tri, target)
    tables = element_tables(target, plan, space)
    itp = quasi_interpolate(target, tables, coeff)
    twin = make_quadrature_plan(build_triangulation(tri.vertices.copy(), tri.triangles.copy()),
                                target)
    assert np.array_equal(element_tables(target, twin, space).grad_moments, tables.grad_moments)
    assert np.array_equal(interpolation_error_sq(itp, element_tables(target, twin, space), coeff),
                          interpolation_error_sq(itp, tables, coeff))
    others = [(build_triangulation(tri.vertices + 0.25, tri.triangles), PointOutsideElement),
              (build_triangulation(tri.vertices, np.roll(tri.triangles, 1, axis=1)),
               PointOutsideElement),
              (build_triangulation(tri.vertices[:3], [[0, 1, 2]]), PlanMismatch)]
    for other, error in others:
        bad = make_quadrature_plan(other, target)
        with pytest.raises(error):
            element_tables(target, bad, space)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_local_element_errors_match_ritz(degree):
    tri = square_mesh()
    coeff = attach_coefficient(tri, [1.0, 5.0, 0.5, 2.0, 1.0, 3.0, 0.25, 4.0])
    target = sine_target()
    tables, plan, space = tables_of(target, tri, degree, 12)
    fast = local_element_errors(tables, coeff)
    assert fast.shape == (tri.n_elements,)
    for k in range(tri.n_elements):
        slow, _ = dense_ritz_error(space, coeff.values, target, plan, [k])
        assert abs(fast[k] - slow) <= 1e-12 * coeff.values[k] * tables.grad_sq[k]


def assert_tables_equal(tables, reference):
    """Every array field of two ElementTables bitwise equal."""
    for f in fields(ElementTables):
        if f.name != "space":
            assert np.array_equal(getattr(tables, f.name), getattr(reference, f.name)), f.name


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_tables_of_several_targets_equal_one_target_passes(degree):
    """One pass over the fig1 sweep targets gives each target the tables of
    its own one-target pass, bit for bit, the element matrices shared."""
    tri = fig1_refined(2)[0]
    space = build_space(tri, degree)
    targets = list(default_smooth_targets().values())
    plan = make_quadrature_plan(tri, targets[0], 2 * degree + 6)
    each = element_tables_each(targets, plan, space)
    assert len(each) == 3 and all(t.stiffness is each[0].stiffness for t in each)
    for target, tables in zip(targets, each):
        assert_tables_equal(tables, element_tables(target, plan, space))


@pytest.mark.parametrize("dirichlet, beta", [(False, 0.0), (True, 0.0), (False, 1e-2),
                                             (True, 1e4)])
def test_shared_operator_solves_equal_per_target_solves(dirichlet, beta):
    """`ritz_each`, one operator restricted once, against the per-target
    operator assembled on every node and restricted by indexing
    (`masked_ritz`): bitwise equal errors and coefficients, with and without
    Dirichlet nodes and at beta > 0.  At P1 each side factors its own
    operator, whose entries are bit-equal; at P2 each runs CG."""
    tri, coeff = fig1_left_pattern(1e-4, refines=2)
    targets = list(default_smooth_targets().values())
    for degree in (1, 2):
        space = build_space(tri, degree, dirichlet_on_boundary=dirichlet)
        tables = element_tables_each(targets, make_quadrature_plan(tri, targets[0], 10), space)
        for tab, (err, x) in zip(tables, ritz_each(tables, coeff.values, beta)):
            ref_err, ref_x = masked_ritz(tab, coeff.values, beta)
            assert err == ref_err and np.array_equal(x, ref_x)
            assert ritz(tab, coeff.values, beta)[0] == err


def test_shared_operator_needs_one_space():
    tri = square_mesh()
    one, _, _ = tables_of(sine_target(), tri, 1, 8)
    other, _, _ = tables_of(sine_target(), tri, 1, 8)
    assert ritz_each([], np.ones(tri.n_elements)) == []
    with pytest.raises(ValueError, match="the tables of one space"):
        ritz_each([one, other], np.ones(tri.n_elements))


@pytest.mark.filterwarnings("error")
def test_overflowing_system_raises_solver_failure():
    # b^T D^-1 b overflows to inf; the NaN residual it gave was read as converged
    identity = SparseMatrix([0, 1], [0, 1], [1.0, 1.0], (2, 2))
    system = SpdSystem(matrix=identity, rhs=np.array([1e200, 1e200]))
    with pytest.raises(SolverFailure, match="CG scalar not finite at iteration 0"):
        solve_spd(system)


def _check_level_solve(tables, a, beta=0.0):
    """`ritz` at degree 1 (by the level factor) against a dense
    `numpy.linalg.solve` of the same free operator and load: their gap in
    the operator's norm within 1e-10 of the solution's."""
    space = tables.space
    free = ~space.dirichlet
    if free.all() and beta == 0.0:
        free[0] = False
    rows, cols, values = _free_operator(tables, a, beta, free).entries()
    A = np.zeros((np.count_nonzero(free),) * 2)
    A[rows, cols] = values
    loads = _element_loads(tables, a, beta, slice(None))
    b = np.bincount(space.element_nodes.ravel(), loads.ravel(), space.n_nodes)[free]
    x = ritz(tables, a, beta)[1]
    assert not x[~free].any()
    gap = x[free] - np.linalg.solve(A, b)
    assert gap @ A @ gap <= 1e-20 * (x[free] @ A @ x[free])


def _hexagon_refined(times):
    tri, coeff = hexagon_mesh(1e-3)
    values = coeff.values
    for _ in range(times):
        tri = uniform_refine(tri)
        values = values[tri.parents]
    return tri, values


@pytest.mark.parametrize("case", ["fig1", "hexagon", "checkerboard"])
@pytest.mark.parametrize("dirichlet, beta", [(False, 0.0), (True, 0.0), (False, 1e4)])
def test_level_factor_matches_a_dense_solve(case, dirichlet, beta):
    if case == "fig1":
        tri, coeff = fig1_left_pattern(1e-6, refines=3)
        a = coeff.values
    elif case == "hexagon":
        tri, a = _hexagon_refined(2)
    else:
        tri, coeff = checkerboard_mesh(4)
        a = coeff.values
    tables, _, _ = tables_of(sine_target(), tri, 1, 4, dirichlet)
    _check_level_solve(tables, a, beta)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), dirichlet=st.booleans(),
       beta=st.sampled_from([0.0, 1e-3, 1.0, 1e6]))
@example(seed=0, n=1, dirichlet=True, beta=0.0)  # every node is fixed: nothing to solve
def test_level_factor_matches_a_dense_solve_on_perturbed_grids(seed, n, dirichlet, beta):
    rng = np.random.default_rng(seed)
    tri = _perturbed_grid(n, rng)
    tables, _, _ = tables_of(sine_target(), tri, 1, 4, dirichlet)
    _check_level_solve(tables, 10.0 ** rng.uniform(-6.0, 0.0, tri.n_elements), beta)


def test_level_factor_across_parts_split_by_dirichlet_nodes():
    """Dirichlet nodes on one whole level empty it and split the free graph
    in two: the levels on either side do not couple, and the solve stays
    exact; a mesh of two separate squares has two components."""
    tri = square_mesh(3)
    tables, _, space = tables_of(sine_target(), tri, 1, 4)
    levels = space.node_levels
    cut = replace(space, dirichlet=levels == levels.max() // 2)
    tables = replace(tables, space=cut)
    assert len(np.unique(levels[~cut.dirichlet])) == levels.max()
    a = np.random.default_rng(1).uniform(0.5, 2.0, tri.n_elements)
    _check_level_solve(tables, a)
    _check_level_solve(tables, a, 1.0)
    one = square_mesh(2)
    two = build_triangulation(np.vstack([one.vertices, one.vertices + 2.0]),
                              np.vstack([one.triangles, one.triangles + one.n_vertices]))
    tables, _, _ = tables_of(sine_target(), two, 1, 4, dirichlet=True)
    _check_level_solve(tables, np.ones(two.n_elements))
    _check_level_solve(tables, np.ones(two.n_elements), 1.0)


def test_level_factor_refuses_what_is_not_positive_definite():
    indefinite = SparseMatrix([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 2.0, 1.0], (2, 2))
    with pytest.raises(SolverFailure, match="^pivot block 1 of the level factor is not "
                                            "positive definite$"):
        LevelFactor(indefinite, np.array([0, 1]))
    with pytest.raises(SolverFailure, match="^pivot block 0 of the level factor is not "):
        LevelFactor(indefinite, np.array([3, 3]))
    with pytest.raises(ValueError, match="levels that are not adjacent"):
        LevelFactor(indefinite, np.array([0, 2]))


@pytest.mark.filterwarnings("error")
def test_level_factor_refuses_what_is_not_finite():
    def matrix(values):
        return SparseMatrix([0, 0, 1, 1], [0, 1, 0, 1], values, (2, 2))

    for values, level in (([np.inf, 0.0, 0.0, 1.0], 0), ([1e-300, 1e200, 1e200, 1.0], 1)):
        with pytest.raises(SolverFailure, match=f"^pivot block {level} of the level factor "
                                                "not finite; the system overflows$"):
            LevelFactor(matrix(values), np.array([0, 1]))
    tiny = matrix([1e-300, 0.0, 0.0, 1e-300])
    system = SpdSystem(matrix=tiny, rhs=np.array([1e10, 1e10]),
                       factor=LevelFactor(tiny, np.array([0, 1])))
    with pytest.raises(SolverFailure, match="^level factor solution not finite; "
                                            "the system overflows$"):
        solve_spd(system)


def test_level_factor_is_priced_before_it_is_built(monkeypatch):
    import qmloc.bestapprox

    tri, coeff = fig1_left_pattern(1e-2, refines=2)
    tables, _, space = tables_of(sine_target(), tri, 1, 4)
    free = np.ones(space.n_nodes, dtype=bool)
    free[0] = False
    A = _free_operator(tables, coeff.values, 0.0, free)
    widths = np.bincount(space.node_levels[free])
    assert (widths > 0).all()
    # 8 bytes per entry of the diagonal and coupling blocks
    need = 8 * (widths @ widths + widths[1:] @ widths[:-1])
    monkeypatch.setattr(A, "entries", lambda: pytest.fail("blocks built before the price"))
    monkeypatch.setattr(qmloc.bestapprox, "_physical_memory", lambda: need - 1)
    with pytest.raises(ParameterOutOfRange, match=(
            f"^a level factor of 40 unknowns, 8 levels up to 9 wide, needs about "
            f"{need / 2**30:.3g} GiB of {(need - 1) / 2**30:.3g} GiB of memory$")):
        LevelFactor(A, space.node_levels[free])
    monkeypatch.undo()
    monkeypatch.setattr(qmloc.bestapprox, "_physical_memory", lambda: need)
    LevelFactor(A, space.node_levels[free])


def test_solve_spd_by_a_factor_ignores_rtol():
    tri, coeff = fig1_left_pattern(1e-6, refines=2)
    tables, _, space = tables_of(sine_target(), tri, 1, 4)
    free = np.ones(space.n_nodes, dtype=bool)
    free[0] = False
    A = _free_operator(tables, coeff.values, 0.0, free)
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    system = SpdSystem(matrix=A, rhs=b, factor=LevelFactor(A, space.node_levels[free]))
    assert np.array_equal(solve_spd(system), solve_spd(system, rtol=0.5))
    assert np.linalg.norm(A @ solve_spd(system) - b) <= 1e-12 * np.linalg.norm(b)


def test_singular_local_solve_raises_solver_failure():
    tri, _ = reference_element()
    tables, _, _ = tables_of(quadratic_target(), tri, 2, 10)
    with pytest.raises(SolverFailure):
        local_ritz(tables, np.zeros(1), csr([[0]]))


def test_singular_region_in_a_batch_is_named():
    tri = square_mesh()
    tables, _, _ = tables_of(sine_target(), tri, 2, 12)
    regions = csr([[k] for k in range(tri.n_elements)] + [(0, 1), (2, 3)])
    # at scale 1e-70 the determinants of the regular regions underflow to 0
    for scale in (1.0, 1e-70):
        a = np.full(tri.n_elements, scale)
        a[5] = 0.0  # only the region [5] has no energy
        with pytest.raises(SolverFailure, match=r"singular local system on elements \[5\]$"):
            local_ritz(tables, a, regions)
    local_ritz(tables, a, regions, beta=1.0)  # the mass term makes it definite


def _perturbed_grid(n, rng):
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    inner = (verts > 0).all(axis=1) & (verts < 1).all(axis=1)
    verts[inner] += rng.uniform(-0.25, 0.25, (inner.sum(), 2)) / n
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = i * (n + 1) + j, (i + 1) * (n + 1) + j
            c, d = b + 1, a + 1
            tris += [(a, b, c), (a, c, d)] if (i + j) % 2 else [(a, b, d), (b, c, d)]
    return build_triangulation(verts, tris)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3), degree=st.sampled_from([1, 2]),
       scale=st.floats(1e-3, 1e3))
def test_ritz_properties_on_perturbed_grids(seed, n, degree, scale):
    rng = np.random.default_rng(seed)
    tri = _perturbed_grid(n, rng)
    a = 10.0 ** rng.uniform(-3.0, 3.0, tri.n_elements)
    target = smooth_target(
        lambda p: np.sin(2.0 * p[:, 0] + 3.0 * p[:, 1]) + p[:, 0] ** 3,
        lambda p: np.column_stack([
            2.0 * np.cos(2.0 * p[:, 0] + 3.0 * p[:, 1]) + 3.0 * p[:, 0] ** 2,
            3.0 * np.cos(2.0 * p[:, 0] + 3.0 * p[:, 1])]),
    )
    tables, _, _ = tables_of(target, tri, degree, 2 * degree + 4)
    kinds = (csr([[k] for k in range(tri.n_elements)]),
             region_rows(tri.edge_elements, tri.interior_edges()),
             tri.vertex_elements)
    for regions in kinds:
        assert (local_ritz(tables, a, regions)[0] >= 0.0).all()
        assert (local_ritz(tables, np.zeros_like(a), regions, 1.0)[0] >= 0.0).all()
    global_sq = ritz(tables, a)[0]
    elements = local_ritz(tables, a, kinds[0])[0].sum()
    assert elements <= global_sq * (1.0 + 1e-10) + 1e-14

    def energy(w, region):
        return ritz(tables, w)[0] if region is None else local_ritz(tables, w, csr([region]))[0][0]

    for region in (None, vertex_patch(tri, n + 2)):
        base = energy(a, region)
        scaled = energy(scale * a, region)
        assert abs(scaled - scale * base) <= 1e-9 * scale * base + 1e-14


def _member(degree, rng):
    """A random polynomial of total degree `degree`, a member of the space."""
    c = rng.standard_normal((degree + 1, degree + 1))
    expo = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    return (lambda p: sum(c[a, b] * p[:, 0] ** a * p[:, 1] ** b for a, b in expo),
            lambda p: np.column_stack([
                sum(a * c[a, b] * p[:, 0] ** (a - 1) * p[:, 1] ** b for a, b in expo if a)
                + 0.0 * p[:, 0],
                sum(b * c[a, b] * p[:, 0] ** a * p[:, 1] ** (b - 1) for a, b in expo if b)
                + 0.0 * p[:, 0]]))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3), degree=st.integers(1, 3),
       sign=st.sampled_from([-1.0, 1.0]), exponent=st.floats(-4.0, 4.0))
@example(seed=0, n=3, degree=2, sign=1.0, exponent=4.0)
def test_errors_see_only_the_distance_to_the_space(seed, n, degree, sign, exponent):
    """Element, pair, star and global errors of u + c v, v a member of the
    space, are those of u, and those of c u are c^2 times those of u, for
    0 < |c| <= 1e4."""
    rng = np.random.default_rng(seed)
    tri = _perturbed_grid(n, rng)
    a = 10.0 ** rng.uniform(-1.0, 1.0, tri.n_elements)
    c = sign * 10.0**exponent
    value, gradient = _member(degree, rng)

    def u(p):
        return np.sin(2.0 * p[:, 0] + 3.0 * p[:, 1]) + p[:, 0] ** 4

    def gu(p):
        t = 3.0 * np.cos(2.0 * p[:, 0] + 3.0 * p[:, 1])
        return np.column_stack([2.0 / 3.0 * t + 4.0 * p[:, 0] ** 3, t])

    kinds = (csr([[k] for k in range(tri.n_elements)]),
             region_rows(tri.edge_elements, tri.interior_edges()),
             tri.vertex_elements)

    def errors(val, grad):
        tables, _, _ = tables_of(smooth_target(val, grad), tri, degree, 2 * degree + 4)
        return np.concatenate([local_ritz(tables, a, regions)[0] for regions in kinds]
                              + [[ritz(tables, a)[0]]])

    base = errors(u, gu)
    shifted = errors(lambda p: u(p) + c * value(p), lambda p: gu(p) + c * gradient(p))
    scaled = errors(lambda p: c * u(p), lambda p: c * gu(p))
    assert np.all(np.abs(shifted - base) <= 1e-8 * base)
    assert np.all(np.abs(scaled - c * c * base) <= 1e-8 * c * c * base)


def _scaled_target(target, c):
    """c u as a TargetField that keeps u's singular points, its offset
    evaluation and its period."""
    def fn(p, about=None):
        u, gu = target.evaluate(p, about)
        return c * u, c * gu
    return TargetField(fn, target.singular_points, fn, target.period)


_CU_PROBLEMS = {
    "fig1-left": lambda: (*fig1_left_pattern(1e-4, refines=2), default_smooth_targets()["exp"]),
    "checkerboard": lambda: (*checkerboard_mesh(2), checkerboard_target(2)),
}
_CU_BASE = {}  # (problem, degree) -> (tri, coeff, target, plan, errors of u)


def _kernel_errors(target, tri, coeff, plan, degree):
    """Name -> (errors of `target` by one kernel, energies of u on their
    loci), in the spaces with the lowest-id node pinned and with Dirichlet
    nodes on the boundary."""
    out = {}
    pairs = region_rows(tri.edge_elements, tri.interior_edges())
    for tag, dirichlet in (("pinned", False), ("dirichlet", True)):
        tables = element_tables(target, plan, build_space(tri, degree, dirichlet))
        energy = coeff.values * tables.grad_sq
        out["ritz " + tag] = np.array([ritz(tables, coeff.values)[0]]), energy.sum(keepdims=True)
        for name, (offsets, ids) in (("pairs ", pairs), ("stars ", tri.vertex_elements)):
            out[name + tag] = (local_ritz(tables, coeff.values, (offsets, ids))[0],
                               np.add.reduceat(energy[ids], offsets[:-1]))
        out["elements " + tag] = local_element_errors(tables, coeff), energy
        itp = quasi_interpolate(target, tables, coeff)
        out["interpolant " + tag] = interpolation_error_sq(itp, tables, coeff), energy
    return out


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("problem", sorted(_CU_PROBLEMS))
@settings(max_examples=4, deadline=None)
@given(k=st.integers(-20, 20), sign=st.sampled_from([-1.0, 1.0]), c=st.floats(1e-3, 1e3))
@example(k=20, sign=-1.0, c=1e3)
@example(k=-20, sign=1.0, c=1e-3)
def test_errors_of_c_u_are_c_squared_times_those_of_u(problem, degree, k, sign, c):
    """For c = +-2^k every step scales exactly and CG's stop test does not
    see the scale: each error of c u is 4^k times that of u within 2 ulp.
    For c in [1e-3, 1e3] each is c^2 times within 1e-12, plus the error
    form's floor 4 eps sqrt(E err) with E the energy of c u on the locus.
    Interpolation errors are held to 1e-11: the interpolant's node values
    (about |u|) round at eps relative, which moves a_K d^T S_K d to first
    order; at P2 on fig1-left this reaches 1.7e-12 relative."""
    if (problem, degree) not in _CU_BASE:
        tri, coeff, target = _CU_PROBLEMS[problem]()
        plan = make_quadrature_plan(tri, target, exactness=2 * degree + 6)
        _CU_BASE[problem, degree] = (tri, coeff, target, plan,
                                     _kernel_errors(target, tri, coeff, plan, degree))
    tri, coeff, target, plan, base = _CU_BASE[problem, degree]
    power = _kernel_errors(_scaled_target(target, sign * 2.0**k), tri, coeff, plan, degree)
    general = _kernel_errors(_scaled_target(target, c), tri, coeff, plan, degree)
    eps = np.finfo(float).eps
    for name, (err, energy) in base.items():
        want = np.ldexp(err, 2 * k)
        assert np.all(np.abs(power[name][0] - want) <= 2 * np.spacing(want)), name
        want, floor = c * c * err, 4 * eps * c * c * np.sqrt(energy * err)
        rel = 1e-11 if name.startswith("interpolant") else 1e-12
        assert np.all(np.abs(general[name][0] - want) <= rel * want + floor), name
