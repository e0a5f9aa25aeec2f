"""Experiment driver: contrast sweeps, robustness checks, constant
estimation, and deterministic CSV/JSON emission."""
from __future__ import annotations

import io
import json

import numpy as np

from .bestapprox import (LocalizationReport, _error, element_tables, global_best_error,
                         local_element_errors, local_ritz, reaction_diffusion_errors)
from .coeff import Coefficient, check_quasi_monotonicity
from .counterexamples import (analytic_energy_reference, checkerboard_mesh,
                              checkerboard_target, fig1_left_pattern,
                              hexagon_mesh, hexagon_target)
from .errors import IoFailure, ParameterOutOfRange, RefusesNonQM
from .fespace import build_space, element_dual_basis, element_mass_matrix
from .fields import TargetField
from .interp import interpolation_error_sq, quasi_interpolate
from .mesh import Triangulation, build_triangulation, region_rows, uniform_refine, vertex_patch
from .quadrature import _leggauss01, make_quadrature_plan, plan_key, triangle_rule

DEFAULT_EPS = (0.1, 0.05, 0.025, 0.0125)
DEFAULT_N = (2, 4, 8)
DEFAULT_ALPHA = (1.0, 1e-2, 1e-4, 1e-6)
DEFAULT_BETA = (1e-4, 1.0, 1e4)


# ---------------------------------------------------------------------------
# smooth targets for the robustness sweeps


def _sine(p):
    sx, sy = np.sin(np.pi * p[:, 0]), np.sin(np.pi * p[:, 1])
    cx, cy = np.cos(np.pi * p[:, 0]), np.cos(np.pi * p[:, 1])
    return sx * sy, np.stack([np.pi * cx * sy, np.pi * sx * cy], axis=1)


def _exp(p):
    e = np.exp(p[:, 0] + 0.5 * p[:, 1])
    return e, np.stack([e, 0.5 * e], axis=1)


def _cubic(p):
    x, y2 = p[:, 0], p[:, 1] ** 2
    return x**3 - 3.0 * x * y2, np.stack([3.0 * x**2 - 3.0 * y2, -6.0 * x * p[:, 1]], axis=1)


def default_smooth_targets() -> dict:
    """Three fixed smooth targets, each one closed-form evaluator of values
    and gradients."""
    return {"sine": TargetField(_sine), "exp": TargetField(_exp), "cubic": TargetField(_cubic)}


# ---------------------------------------------------------------------------
# sweeps


def run_hexagon_sweep(eps_values=DEFAULT_EPS, degree: int = 1) -> list:
    """Per contrast: global best error (Dirichlet gauge) against element,
    pair, and vertex-star localized errors."""
    reports = []
    for eps in eps_values:
        tri, coeff = hexagon_mesh(eps)
        target = hexagon_target(eps)
        plan = make_quadrature_plan(tri, target, exactness=2 * degree + 6)
        space = build_space(tri, degree, dirichlet_on_boundary=True)
        tables = element_tables(target, plan, space)
        global_sq, _ = global_best_error(tables, coeff, "dirichlet")
        elements = list(enumerate(local_element_errors(tables, coeff).tolist()))
        edges = tri.interior_edges()
        pair_sq = local_ritz(tables, coeff.values, region_rows(tri.edge_elements, edges),
                             fixed=space.dirichlet)[0]
        star_sq = local_ritz(tables, coeff.values, tri.vertex_elements, fixed=space.dirichlet)[0]
        pairs = list(zip(edges, pair_sq.tolist()))
        stars = list(enumerate(star_sq.tolist()))
        qm = check_quasi_monotonicity(tri, coeff)
        reports.append(LocalizationReport(
            global_error_sq=global_sq,
            loci={"element": elements, "pair": pairs, "star": stars},
            metadata={
                "experiment": "hexagon", "eps": eps, "degree": degree,
                "alpha": coeff.alpha, "n_elements": tri.n_elements,
                "quasi_monotone": qm.quasi_monotone,
                "analytic": analytic_energy_reference(eps),
            },
        ))
    return reports


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


def run_star_sweep(n_values=DEFAULT_N, degree: int = 1) -> list:
    """Per N: global best error on the checkerboard against per-interior-
    vertex star errors, with patch classification and explicit candidate
    upper bounds."""
    # every target first: a bad N is refused before any mesh is built
    targets = [checkerboard_target(N) for N in n_values]
    reports = []
    for N, target in zip(n_values, targets):
        tri, coeff = checkerboard_mesh(N)
        plan = make_quadrature_plan(tri, target, exactness=2 * degree + 6)
        space = build_space(tri, degree, dirichlet_on_boundary=True)
        tables = element_tables(target, plan, space)
        global_sq, _ = global_best_error(tables, coeff, "dirichlet")
        inner = tri.interior_vertices()
        star_sq = local_ritz(tables, coeff.values, region_rows(tri.vertex_elements, inner),
                             fixed=space.dirichlet)[0]
        stars = list(zip(inner, star_sq.tolist()))
        kinds = {z: _classify_checkerboard_vertex(tri.vertices[z], N) for z in inner}
        candidates = {z: _star_candidate_error(tables, coeff, z,
                                               _star_candidate_values(tri, coeff, z, N))
                      for z in inner}
        qm = check_quasi_monotonicity(tri, coeff)
        reports.append(LocalizationReport(
            global_error_sq=global_sq,
            loci={"star": stars},
            metadata={
                "experiment": "stars", "N": N, "degree": degree,
                "alpha": coeff.alpha, "n_elements": tri.n_elements,
                "quasi_monotone": qm.quasi_monotone,
                "star_kinds": kinds,
                "candidate_upper_bounds": candidates,
            },
        ))
    return reports


def _shared_plans(tri: Triangulation, targets: dict, exactness: int) -> dict:
    """One quadrature plan per target name; targets with equal `plan_key`
    share a plan."""
    by_points: dict = {}
    plans = {}
    for name, target in targets.items():
        key = plan_key(target)
        if key not in by_points:
            by_points[key] = make_quadrature_plan(tri, target, exactness=exactness)
        plans[name] = by_points[key]
    return plans


def _pattern_mesh(pattern: str, alpha: float, refines: int = 2):
    if pattern == "fig1-left":
        return fig1_left_pattern(alpha, refines=refines)
    raise ParameterOutOfRange(f"unknown pattern {pattern!r}")


def run_alpha_robustness(pattern: str = "fig1-left", alpha_values=DEFAULT_ALPHA,
                         targets: dict | None = None, degree: int = 1,
                         refines: int = 2) -> list:
    """Localization and near-best ratios across a contrast sweep on a
    quasi-monotone tiling; refuses non-quasi-monotone configurations."""
    targets = default_smooth_targets() if targets is None else targets
    reports = []
    for alpha in alpha_values:
        tri, coeff = _pattern_mesh(pattern, alpha, refines)
        qm = check_quasi_monotonicity(tri, coeff)
        if not qm.quasi_monotone:
            raise RefusesNonQM(
                f"pattern {pattern!r} at alpha={alpha} is not quasi-monotone; "
                f"witness {qm.witnesses[:1]}"
            )
        space = build_space(tri, degree)
        plans = _shared_plans(tri, targets, 2 * degree + 6)
        for name, target in targets.items():
            tables = element_tables(target, plans[name], space)
            global_sq, _ = global_best_error(tables, coeff, "meanzero")
            elements = list(enumerate(local_element_errors(tables, coeff).tolist()))
            itp = quasi_interpolate(target, tables, coeff)
            interp_sq = float(interpolation_error_sq(itp, tables, coeff).sum())
            reports.append(LocalizationReport(
                global_error_sq=global_sq,
                loci={"element": elements},
                metadata={
                    "experiment": "alpha", "pattern": pattern, "alpha": alpha,
                    "target": name, "degree": degree, "refines": refines,
                    "n_elements": tri.n_elements,
                    "quasi_monotone": True,
                    "interp_error_sq": interp_sq,
                },
            ))
    return reports


def run_reaction_diffusion(pattern: str = "fig1-left", alpha_values=(1.0, 1e-4),
                           beta_values=DEFAULT_BETA, targets: dict | None = None,
                           degree: int = 1, refines: int = 2) -> list:
    """Combined-norm equivalence sweep on a quasi-monotone tiling."""
    targets = default_smooth_targets() if targets is None else targets
    reports = []
    for alpha in alpha_values:
        tri, coeff = _pattern_mesh(pattern, alpha, refines)
        qm = check_quasi_monotonicity(tri, coeff)
        if not qm.quasi_monotone:
            raise RefusesNonQM(f"pattern {pattern!r} at alpha={alpha} is not quasi-monotone")
        space = build_space(tri, degree)
        plans = _shared_plans(tri, targets, 2 * degree + 6)
        for name, target in targets.items():
            rd = reaction_diffusion_errors(element_tables(target, plans[name], space), coeff,
                                           beta_values)
            grad_sum = float(sum(rd["element_gradient_locals"]))
            pair_sum = float(sum(rd["pair_l2_locals"]))
            for beta, combined in zip(beta_values, rd["combined_global_sq"]):
                localized = grad_sum + beta * pair_sum
                split_floor = rd["gradient_global_sq"] + beta * rd["l2_global_sq"]
                reports.append(LocalizationReport(
                    global_error_sq=combined,
                    loci={
                        "element": list(enumerate(rd["element_gradient_locals"])),
                        "pair": list(zip(space.tri.interior_edges(), rd["pair_l2_locals"])),
                    },
                    metadata={
                        "experiment": "rd", "pattern": pattern, "alpha": alpha,
                        "beta": beta, "target": name, "degree": degree,
                        "refines": refines, "quasi_monotone": True,
                        "gradient_global_sq": rd["gradient_global_sq"],
                        "l2_global_sq": rd["l2_global_sq"],
                        "localized_sum_sq": localized,
                        "equivalence_ratio": combined / localized if localized > 0 else float("inf"),
                        "splitting_ratio": combined / split_floor if split_floor > 0 else float("inf"),
                    },
                ))
    return reports


# ---------------------------------------------------------------------------
# inequality-constant estimation


def estimate_inequality_constants(refine_levels: int = 4, degree: int = 1) -> dict:
    """Measure basis scalings and trace/Poincare constants on a family of
    uniform refinements of the 2-triangle square (refine_levels >= 1 meshes)."""
    if refine_levels < 1:
        raise ParameterOutOfRange(f"levels must be >= 1, got {refine_levels}")
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


# ---------------------------------------------------------------------------
# emission


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _hexagon_csv(reports) -> str:
    buf = io.StringIO()
    buf.write("# experiment: hexagon\n")
    buf.write("eps,global_sq,sum_element_sq,sum_pair_sq,sum_star_sq,"
              "ratio_element,ratio_pair,ratio_star\n")
    for rep in reports:
        row = [rep.metadata["eps"], rep.global_error_sq,
               rep.locus_sum("element"), rep.locus_sum("pair"), rep.locus_sum("star"),
               rep.ratio("element"), rep.ratio("pair"), rep.ratio("star")]
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def _generic_csv(reports) -> str:
    buf = io.StringIO()
    if reports:
        kind = reports[0].metadata.get("experiment", "unknown")
        buf.write(f"# experiment: {kind}\n")
    keys = sorted({
        key for rep in reports for key in rep.metadata
        if isinstance(rep.metadata[key], (int, float, str, bool, np.integer, np.floating))
    })
    buf.write(",".join(["sweep_index"] + keys +
                       ["global_sq", "locus_kind", "locus_id", "error_sq"]) + "\n")
    for idx, rep in enumerate(reports):
        meta = [_fmt(rep.metadata.get(key, "")) for key in keys]
        if not rep.loci:
            buf.write(",".join([str(idx)] + meta + [_fmt(rep.global_error_sq), "", "", ""]) + "\n")
        for kind in sorted(rep.loci):
            for locus_id, err in rep.loci[kind]:
                buf.write(",".join(
                    [str(idx)] + meta +
                    [_fmt(rep.global_error_sq), kind, str(int(locus_id)), _fmt(err)]
                ) + "\n")
    return buf.getvalue()


def render_report(reports, fmt: str = "csv") -> str:
    """Deterministic serialization of a report list."""
    if fmt == "json":
        payload = [rep.to_json_dict() for rep in reports]
        return json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"
    if fmt != "csv":
        raise ParameterOutOfRange(f"unknown format {fmt!r}")
    if reports and reports[0].metadata.get("experiment") == "hexagon":
        return _hexagon_csv(reports)
    return _generic_csv(reports)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def emit_report(reports, fmt: str = "csv", path: str | None = None) -> str:
    """Write (or return) the rendered report; byte-stable for fixed input."""
    if not reports:
        raise ParameterOutOfRange("no reports to emit")
    text = render_report(reports, fmt)
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoFailure(f"cannot write report to {path}: {exc}") from exc
    return text
