"""Reference sweeps.

Star candidates: the per-vertex loops that built the `stars` report's
`star_kinds` and `candidate_upper_bounds`, one Python dict per interior
vertex.  `qmloc.harness._star_candidates` must match them bit for bit.

The fig1 sweeps: `alpha_reports` and `rd_reports` are the per-target loops
that the shared tables and operators of `qmloc.harness` replace, one table
pass and one `masked_ritz` operator per target and solve.  Their JSON must
match the sweeps' byte for byte.

Inequality constants: `inequality_constants` measures on element 0 of each
whole uniform refinement of the 2-triangle square, where
`qmloc.harness.estimate_inequality_constants` builds that element alone.
Its JSON must match the estimator's byte for byte.
"""
import numpy as np

from qmloc.bestapprox import LocalizationReport, _error, element_tables, local_ritz
from qmloc.coeff import Coefficient, attach_coefficient
from qmloc.counterexamples import fig1_left_values, fig1_refined
from qmloc.fespace import build_space, element_dual_basis, element_mass_matrix
from qmloc.interp import interpolation_error_sq, quasi_interpolate
from qmloc.mesh import (Triangulation, build_triangulation, region_rows, uniform_refine,
                        vertex_patch)
from qmloc.quadrature import _leggauss01, make_quadrature_plan, triangle_rule

from ritz_reference import masked_ritz


def _classify_checkerboard_vertex(v, N: int) -> str:
    """Interior mesh vertices: macro centers, macro corners, or macro-edge
    midpoints (cell corners on the boundary between two macros)."""
    s = np.asarray(v) * 2 * N  # integer lattice of cell corners
    i, j = int(round(s[0])), int(round(s[1]))
    if i % 2 == 1 and j % 2 == 1:
        return "center"
    if i % 2 == 0 and j % 2 == 0:
        return "corner"
    return "edge-midpoint"


def _star_candidate_error(tables, coeff, z, values: dict) -> float:
    """Energy of an explicit star candidate given its nonzero nodal values."""
    region = vertex_patch(tables.space.tri, z)
    v = np.array([[values.get(int(g), 0.0) for g in tables.space.element_nodes[k]]
                  for k in region])
    return float(_error(tables, coeff.values, 0.0, region, v).sum())


def _star_candidate_values(tri: Triangulation, coeff: Coefficient, z: int, N: int) -> dict:
    """Hat-function candidate for the star of an interior checkerboard
    vertex: +-1/N values chosen per high-coefficient triangle that touches
    a macro center, zero at macro corners."""
    kind = _classify_checkerboard_vertex(tri.vertices[z], N)
    if kind == "corner":
        return {}
    values: dict[int, float] = {}
    for k in vertex_patch(tri, z):
        if coeff.values[k] != 1.0:
            continue
        verts = tri.triangles[k]
        coords = tri.vertices[verts]
        # macro center among the triangle's vertices?
        for loc, v in enumerate(verts):
            if _classify_checkerboard_vertex(coords[loc], N) != "center":
                continue
            c = coords[loc]
            mid = coords.mean(axis=0) - c
            sigma = 1.0 if mid[0] + mid[1] > 0 else -1.0
            if int(v) == z:
                for other in verts:
                    if int(other) != z:
                        values[int(other)] = -sigma / N
            else:
                values[int(v)] = sigma / N
    # admissibility: candidates must vanish on the domain boundary
    return {g: val for g, val in values.items() if not tri.boundary_vertices[g]}


def star_metadata(tables, coeff: Coefficient, N: int):
    """The `star_kinds` and `candidate_upper_bounds` of the interior
    vertices of the checkerboard of `tables`."""
    tri = tables.space.tri
    inner = tri.interior_vertices()
    kinds = {z: _classify_checkerboard_vertex(tri.vertices[z], N) for z in inner}
    candidates = {z: _star_candidate_error(tables, coeff, z,
                                           _star_candidate_values(tri, coeff, z, N))
                  for z in inner}
    return kinds, candidates


def _fig1_per_target(alpha_values, targets, degree, refines):
    """The fig1 tiling, a coefficient per alpha and, per target in order,
    (name, target, tables) from its own plan and table pass."""
    tri, coarse = fig1_refined(refines)
    coeffs = [attach_coefficient(tri, fig1_left_values(alpha)[coarse]) for alpha in alpha_values]
    space = build_space(tri, degree)
    return tri, coeffs, [(name, target, element_tables(
        target, make_quadrature_plan(tri, target, 2 * degree + 6), space))
        for name, target in targets.items()]


def alpha_reports(alpha_values, targets, degree, refines):
    """`qmloc.harness.run_alpha_robustness` on fig1-left, target by target."""
    tri, coeffs, per_target = _fig1_per_target(alpha_values, targets, degree, refines)
    reports = [[] for _ in alpha_values]
    for name, target, tables in per_target:
        for alpha, coeff, out in zip(alpha_values, coeffs, reports):
            itp = quasi_interpolate(target, tables, coeff)
            out.append(LocalizationReport(
                global_error_sq=masked_ritz(tables, coeff.values)[0],
                loci={"element": list(enumerate((coeff.values * tables.grad_residual).tolist()))},
                metadata={"experiment": "alpha", "pattern": "fig1-left", "alpha": alpha,
                          "target": name, "degree": degree, "refines": refines,
                          "n_elements": tri.n_elements, "quasi_monotone": True,
                          "interp_error_sq": float(interpolation_error_sq(itp, tables,
                                                                         coeff).sum())}))
    return [rep for out in reports for rep in out]


def rd_reports(alpha_values, beta_values, targets, degree, refines):
    """`qmloc.harness.run_reaction_diffusion` on fig1-left, target by target."""
    tri, coeffs, per_target = _fig1_per_target(alpha_values, targets, degree, refines)
    zero, edges = np.zeros(tri.n_elements), tri.interior_edges()
    reports = [[] for _ in alpha_values]
    for name, _, tables in per_target:
        l2_sq = masked_ritz(tables, zero, 1.0)[0]
        pair_sq = local_ritz(tables, zero, region_rows(tri.edge_elements, edges), 1.0)[0]
        pairs = list(zip(edges, pair_sq.tolist()))
        for alpha, coeff, out in zip(alpha_values, coeffs, reports):
            gradient_sq = masked_ritz(tables, coeff.values)[0]
            element_sq = (coeff.values * tables.grad_residual).tolist()
            for beta in beta_values:
                combined = masked_ritz(tables, coeff.values, float(beta))[0]
                localized = float(sum(element_sq)) + beta * float(sum(pair_sq.tolist()))
                split_floor = gradient_sq + beta * l2_sq
                out.append(LocalizationReport(
                    global_error_sq=combined,
                    loci={"element": list(enumerate(element_sq)), "pair": pairs},
                    metadata={
                        "experiment": "rd", "pattern": "fig1-left", "alpha": alpha,
                        "beta": beta, "target": name, "degree": degree,
                        "refines": refines, "quasi_monotone": True,
                        "gradient_global_sq": gradient_sq, "l2_global_sq": l2_sq,
                        "localized_sum_sq": localized,
                        "equivalence_ratio":
                            combined / localized if localized > 0 else float("inf"),
                        "splitting_ratio":
                            combined / split_floor if split_floor > 0 else float("inf")}))
    return [rep for out in reports for rep in out]


def inequality_constants(refine_levels: int, degree: int) -> dict:
    """`qmloc.harness.estimate_inequality_constants` on the meshes of the
    2-triangle square and its refinements."""
    V = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    T = np.array([[0, 1, 2], [0, 2, 3]])
    tri = build_triangulation(V, T)
    per_level = []
    for level in range(refine_levels):
        space = build_space(tri, degree)
        # nodal and dual-basis scalings on element 0
        k = 0
        area = float(tri.areas[k])
        M = element_mass_matrix(space, k)
        D = element_dual_basis(space, k)
        phi_scale = float(np.sqrt(M[0, 0]) / np.sqrt(area))
        psi_scale = float(np.sqrt((D @ M @ D.T)[0, 0]) * np.sqrt(area))
        # single-sample trace and Poincare constants for v = x - mean on K
        p = tri.vertices[tri.triangles[k]]
        h = float(tri.diameters[k])
        qp, qw = triangle_rule(4, p[0], p[1], p[2])
        vals = qp[:, 0] - float(qw @ qp[:, 0]) / area
        norm_sq = float(qw @ vals**2)
        grad_sq = area  # |grad v| = 1
        edge = p[1] - p[0]
        L = float(np.linalg.norm(edge))
        t, w1d = _leggauss01(6)
        ep = p[0] + np.outer(t, edge)
        evals = ep[:, 0] - float(qw @ qp[:, 0]) / area
        trace_sq = float((L * w1d) @ evals**2)
        per_level.append({
            "h": h,
            "phi_over_sqrt_area": phi_scale,
            "psi_times_sqrt_area": psi_scale,
            "poincare": float(np.sqrt(norm_sq / grad_sq) / h),
            "trace": float(np.sqrt(trace_sq) / np.sqrt(norm_sq / h + h * grad_sq)),
        })
        if level + 1 < refine_levels:
            tri = uniform_refine(tri)
    record = {"degree": degree, "levels": per_level}
    for key in ("phi_over_sqrt_area", "psi_times_sqrt_area", "poincare", "trace"):
        vals = [lv[key] for lv in per_level]
        record[key + "_spread"] = max(vals) / min(vals)
    return record
