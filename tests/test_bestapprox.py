"""Best-approximation errors: element tables, the global Ritz solve, the
batched local Ritz kernel, and the local, regional, global and
combined-norm errors built on them."""
import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmloc.bestapprox import (LocalizationReport, SpdSystem, element_tables,
                              local_element_errors, local_ritz, ritz, solve_spd)
from qmloc.coeff import attach_coefficient
from qmloc.counterexamples import (checkerboard_mesh, checkerboard_target,
                                   fig1_left_pattern, hexagon_mesh, hexagon_target)
from qmloc.errors import PlanMismatch, PointOutsideElement, SolverFailure
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
                            energy_rhs, mass_rhs, monomial_element_fit)


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
    x = solve_spd(SpdSystem(matrix=sp.csr_matrix(A), rhs=b), rtol=1e-14)
    assert np.linalg.norm(x - np.linalg.solve(A, b)) < 1e-10 * np.linalg.norm(b)


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


@pytest.mark.filterwarnings("error")
def test_overflowing_system_raises_solver_failure():
    # b^T D^-1 b overflows to inf; the NaN residual it gave was read as converged
    system = SpdSystem(matrix=sp.identity(2, format="csr"), rhs=np.array([1e200, 1e200]))
    with pytest.raises(SolverFailure, match="CG scalar not finite at iteration 0"):
        solve_spd(system)


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
