"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py``: the PASSED/FAILED line of
each ``test_criterion_*`` entry is the per-criterion verdict.
"""
import json

import numpy as np
import pytest

from qmloc.bestapprox import element_tables, local_element_errors, local_ritz, ritz
from qmloc.coeff import attach_coefficient, check_quasi_monotonicity
from qmloc.counterexamples import (analytic_energy_reference,
                                   checkerboard_mesh, fig1_meshes,
                                   hexagon_mesh, hexagon_target,
                                   radial_profile, radial_profile_derivative)
from qmloc.errors import NoMonotonePath
from qmloc.fespace import build_space, element_dual_basis, element_mass_matrix
from qmloc.fields import smooth_target
from qmloc.harness import (DEFAULT_ALPHA, DEFAULT_BETA, DEFAULT_EPS,
                           default_smooth_targets, render_report,
                           run_alpha_robustness, run_hexagon_sweep,
                           run_reaction_diffusion, run_star_sweep)
from qmloc.interp import (l2_quasi_interpolate, operator_report,
                          quasi_interpolate)
from qmloc.mesh import build_triangulation, uniform_refine
from qmloc.quadrature import (make_quadrature_plan, polar_triangle_rule,
                              radial_rule)

from fespace_reference import eval_basis, face_dual_basis
from interp_reference import energy_norm_sq
from mesh_reference import csr
from ritz_reference import assemble, dense_ritz_error, energy_rhs
from test_coeff import brute_force_quasi_monotone
from test_interp import fe_target


def _log(n, text):
    print(f"criterion {n:2d} PASS: {text}")


def square_mesh(refines=1):
    tri = build_triangulation(
        [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]]
    )
    for _ in range(refines):
        tri = uniform_refine(tri)
    return tri


def test_criterion_01_qm_classifier():
    cases = []
    for M in (2, 4, 8):
        cases.append((fig1_meshes(M, "left"), True))
    for M in (10, 100):
        cases.append((fig1_meshes(M, "right"), False))
    tri, _ = hexagon_mesh(0.1)
    cases.append(((tri, attach_coefficient(tri, np.full(6, 2.0))), True))
    for (tri, coeff), expected in cases:
        report = check_quasi_monotonicity(tri, coeff)
        assert report.quasi_monotone is expected
        assert brute_force_quasi_monotone(tri, coeff) is expected
    for tri, coeff in (hexagon_mesh(0.1), checkerboard_mesh(2)):
        report = check_quasi_monotonicity(tri, coeff)
        assert not report.quasi_monotone
        assert len(report.witnesses) > 0
        _, k, kk = report.witnesses[0]
        assert coeff.values[k] <= coeff.values[kk]
        assert brute_force_quasi_monotone(tri, coeff) is False
    _log(1, "classifier verdicts and witnesses agree with exhaustive path "
            "enumeration on all stars")


def test_criterion_02_quadrature_oracle():
    for eps in (0.1, 0.01):
        corners = np.array([[eps, eps], [-eps, eps], [-eps, -eps], [eps, -eps]])
        total = 0.0
        for i in range(4):
            pts, wts = polar_triangle_rule(
                np.zeros(2), corners[i], corners[(i + 1) % 4],
                np.zeros(2), eps, (eps, 1.0),
            )
            r = np.hypot(pts[:, 0], pts[:, 1])
            mask = r <= eps
            d = radial_profile_derivative(eps, r[mask])
            total += float(wts[mask] @ (d * d))
        exact = np.pi * eps * (1.0 - eps) ** 2
        assert abs(total - exact) < 1e-6 * exact

        pts, wts = radial_rule(1.0, eps, (eps, 1.0))
        rho = radial_profile(eps, pts)
        val = float(wts @ (rho * rho / pts))
        ref = analytic_energy_reference(eps)
        assert abs(val - ref["profile_sq_over_r"]) < 1e-8 * ref["profile_sq_over_r"]
        assert val <= 1.0 / (2.0 * eps) - np.log(eps)
    _log(2, "singular quadrature reproduces both closed-form references for "
            "eps in {0.1, 0.01}")


def test_criterion_03_dual_bases():
    tri = build_triangulation([[0.2, 0.1], [1.3, 0.4], [0.5, 1.6]], [[0, 1, 2]])
    rng = np.random.default_rng(2024)
    for ell in (1, 2, 3):
        space = build_space(tri, ell)
        pts, wts = make_quadrature_plan(
            tri, smooth_target(lambda p: p[:, 0], lambda p: p),
            exactness=2 * ell + 2).element_rule(0)
        D = element_dual_basis(space, 0)
        nodes = space.nodes[space.element_nodes[0]]
        vphi, _ = eval_basis(space, 0, pts)
        for _ in range(100):
            c = rng.standard_normal((ell + 1, ell + 1))
            expo = [(a, b) for a in range(ell + 1) for b in range(ell + 1 - a)]

            def poly(p):
                return sum(c[a, b] * p[:, 0] ** a * p[:, 1] ** b for a, b in expo)

            moments = vphi.T @ (wts * poly(pts))
            recovered = D @ moments
            assert np.max(np.abs(recovered - poly(nodes))) < 1e-12 * max(
                1.0, np.max(np.abs(poly(nodes))))
        # face duals reproduce polynomial traces on every edge
        for e in range(tri.n_edges):
            ids, Df = face_dual_basis(space, e)
            enodes = space.nodes[list(ids)]
            a, b = tri.vertices[tri.edges[e]]
            x1d, w1d = np.polynomial.legendre.leggauss(ell + 4)
            t = 0.5 * (x1d + 1.0)
            epts = a + np.outer(t, b - a)
            L = np.linalg.norm(b - a)
            for _ in range(5):
                cc = rng.standard_normal(ell + 1)
                poly1 = lambda p: sum(cc[j] * (p[:, 0] + p[:, 1]) ** j
                                      for j in range(ell + 1))
                from qmloc.fespace import edge_basis_1d
                phi1 = edge_basis_1d(ell, t)
                mom = phi1.T @ (0.5 * L * w1d * poly1(epts))
                rec = Df @ mom
                assert np.max(np.abs(rec - poly1(enodes))) < 1e-11 * max(
                    1.0, np.max(np.abs(rec)))
    # L2 norm of the linear element dual functions
    space = build_space(tri, 1)
    D = element_dual_basis(space, 0)
    M = element_mass_matrix(space, 0)
    area = float(tri.areas[0])
    norms = np.diag(D @ M @ D.T)
    assert np.max(np.abs(norms - 9.0 / area)) < 1e-12 * 9.0 / area
    _log(3, "element/face dual bases reproduce point values of 100 random "
            "polynomials per degree; ||psi||^2 = 9/|K| for degree 1")


def test_criterion_04_local_best_error_oracle():
    tri = build_triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    coeff = attach_coefficient(tri, [1.0])
    target = smooth_target(
        lambda p: p[:, 0] ** 2,
        lambda p: np.column_stack([2 * p[:, 0], np.zeros(len(p))]),
    )
    plan = make_quadrature_plan(tri, target, exactness=10)
    tables = element_tables(target, plan, build_space(tri, 1))
    assert abs(local_element_errors(tables, coeff)[0] - 1.0 / 9.0) < 1e-10

    tri = square_mesh()  # 8 elements
    coeff = attach_coefficient(tri, [1.0, 5.0, 0.5, 2.0, 1.0, 3.0, 0.25, 4.0])
    target = smooth_target(
        lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
        lambda p: np.pi * np.column_stack([
            np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
            np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
        ]),
    )
    for ell in (1, 2):
        space = build_space(tri, ell, dirichlet_on_boundary=True)
        plan = make_quadrature_plan(tri, target, exactness=12)
        tables = element_tables(target, plan, space)
        err, _ = ritz(tables, coeff.values)
        A = assemble(space, coeff.values)
        b = energy_rhs(space, coeff.values, target, plan)
        free = ~space.dirichlet
        x = np.linalg.solve(A[np.ix_(free, free)], b[free])
        dense = energy_norm_sq(target, coeff, plan) - b[free] @ x
        assert abs(err - dense) < 1e-8 * max(1.0, dense)
        # the same mesh and degree without a mask: the pairs are unconstrained
        free_space = build_space(tri, ell)
        free_tables = element_tables(target, plan, free_space)
        for k in range(tri.n_elements):
            region = [k, (k + 1) % tri.n_elements]
            # dense reference: same minimization assembled densely, unconstrained
            # on the unmasked space and with the Dirichlet nodes held at zero
            r1 = local_ritz(free_tables, coeff.values, csr([region]))[0][0]
            r2, _ = dense_ritz_error(free_space, coeff.values, target, plan, region)
            assert abs(r1 - r2) < 1e-8 * max(1.0, r1)
            r1 = local_ritz(tables, coeff.values, csr([region]))[0][0]
            r2, _ = dense_ritz_error(space, coeff.values, target, plan, region,
                                     fixed=space.dirichlet)
            assert abs(r1 - r2) < 1e-8 * max(1.0, r1)
    _log(4, "x^2 best error = 1/9 on the reference triangle; all Ritz "
            "energies match dense solves to 1e-8")


def test_criterion_05_zero_ritz_symmetry():
    for eps in DEFAULT_EPS:
        tri, coeff = hexagon_mesh(eps)
        target = hexagon_target(eps)
        space = build_space(tri, 1, dirichlet_on_boundary=True)
        plan = make_quadrature_plan(tri, target)
        err, x = ritz(element_tables(target, plan, space), coeff.values)
        assert np.max(np.abs(x)) <= 1e-8
        uu = energy_norm_sq(target, coeff, plan)
        assert abs(err - uu) < 1e-6 * uu
    _log(5, "point-symmetric hexagon target has zero Ritz projection and "
            "error^2 = ||u||_a^2 for every default eps")


def test_criterion_06_element_pair_non_robustness():
    reports = run_hexagon_sweep(DEFAULT_EPS)
    globals_sq = [r.global_error_sq for r in reports]
    assert max(globals_sq) / min(globals_sq) < 1.2
    for kind in ("element", "pair"):
        ratios = [r.ratio(kind) for r in reports]
        growth = [b / a for a, b in zip(ratios, ratios[1:])]
        assert all(g >= 1.4 for g in growth), (kind, ratios, growth)
    _log(6, "global error stable to <20% while element and pair localization "
            "ratios grow by >=1.4 per eps-halving")


def test_criterion_07_star_non_robustness():
    reports = run_star_sweep((2, 4, 8))
    globals_sq = [r.global_error_sq for r in reports]
    assert max(globals_sq) / min(globals_sq) < 1.2
    sums = [r.locus_sum("star") for r in reports]
    assert sums[-1] <= 0.5 * sums[0]
    for rep in reports:
        star = dict(rep.loci["star"])
        for z, bound in rep.metadata["candidate_upper_bounds"].items():
            assert star[int(z)] <= bound + 1e-10 * max(1.0, bound)
    _log(7, "global error stable while the star error sum decays (N=8 sum "
            "<= 0.5 x N=2 sum); explicit candidates bound every star minimum")


def test_criterion_08_robustness_under_qm():
    reports = run_alpha_robustness("fig1-left", DEFAULT_ALPHA)
    by_target = {}
    for rep in reports:
        by_target.setdefault(rep.metadata["target"], []).append(rep)
    assert len(by_target) == 3
    for name, reps in by_target.items():
        loc = [r.ratio("element") for r in reps]
        assert max(loc) / min(loc) <= 2.0, (name, loc)
        near = [r.metadata["interp_error_sq"] / r.locus_sum("element")
                for r in reps]
        assert max(near) / min(near) <= 2.0, (name, near)
    _log(8, "localization and near-best ratios vary by a factor <= 2 across "
            "six decades of contrast on a quasi-monotone tiling")


def test_criterion_09_operator_identities():
    tri = square_mesh()
    coeff = attach_coefficient(tri, [1.0, 5.0, 0.5, 2.0, 1.0, 3.0, 0.25, 4.0])
    rng = np.random.default_rng(909)
    done = 0
    for ell in (1, 2, 3):
        space = build_space(tri, ell)
        for _ in range(7 if ell < 3 else 6):
            x = rng.standard_normal(space.n_nodes)
            target = fe_target(space, x)
            plan = make_quadrature_plan(tri, target, exactness=2 * ell + 4)
            tables = element_tables(target, plan, space)
            skel = quasi_interpolate(target, tables, coeff)
            assert np.max(np.abs(skel.coefficients - x)) < 1e-10
            l2 = l2_quasi_interpolate(tables, coeff)
            assert np.max(np.abs(l2.coefficients - x)) < 1e-10
            done += 1
    assert done == 20

    # L2 stability of the element-dual operator across the contrast sweep
    # on a non-quasi-monotone tiling
    target = default_smooth_targets()["sine"]
    ratios = []
    for alpha in DEFAULT_ALPHA:
        tri, coeff = fig1_meshes(1.0 / alpha, "right")
        space = build_space(tri, 1)
        plan = make_quadrature_plan(tri, target, exactness=8)
        rec = operator_report(target, space, coeff, plan, which="l2")
        ratios.append(rec["l2_stability_ratio"])
    assert max(ratios) / min(ratios) <= 2.0, ratios

    tri, coeff = hexagon_mesh(0.1)
    htarget = hexagon_target(0.1)
    space = build_space(tri, 1)
    plan = make_quadrature_plan(tri, htarget)
    with pytest.raises(NoMonotonePath):
        operator_report(htarget, space, coeff, plan, which="l2",
                        energy_diagnostic=True)
    _log(9, "both operators are projections (20 random members), the L2 "
            "operator is contrast-stable on non-QM meshes, and the energy "
            "diagnostic refuses them")


def test_criterion_10_reaction_diffusion():
    reports = run_reaction_diffusion("fig1-left", (1.0, 1e-4), DEFAULT_BETA)
    for rep in reports:
        ratio = rep.metadata["equivalence_ratio"]
        assert 0.25 <= ratio <= 4.0, rep.metadata
        assert rep.metadata["splitting_ratio"] >= 1.0 - 1e-10
    _log(10, "combined-norm equivalence ratio within a factor 4 over the "
             "(alpha, beta) grid; splitting lower bound holds")


def test_criterion_11_determinism():
    first = run_hexagon_sweep((0.1, 0.05))
    second = run_hexagon_sweep((0.1, 0.05))
    assert render_report(first, "csv") == render_report(second, "csv")
    assert render_report(first, "json") == render_report(second, "json")
    stars = run_star_sweep((2,))
    stars2 = run_star_sweep((2,))
    assert render_report(stars, "json") == render_report(stars2, "json")
    json.loads(render_report(first, "json"))
    _log(11, "repeated sweeps render bit-identical CSV and JSON reports")
