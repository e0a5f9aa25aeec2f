"""Experiment driver: contrast sweeps, robustness checks, constant
estimation, and deterministic CSV/JSON emission."""
from __future__ import annotations

import io
import json
from dataclasses import fields, replace

import numpy as np

from .bestapprox import (LocalizationReport, _physical_memory, _region_errors,
                         element_tables_each, local_element_errors, local_ritz, ritz, ritz_each)
from .coeff import Coefficient, attach_coefficient, check_quasi_monotonicity
from .counterexamples import (_checkerboard_eps, _hexagon_eps, analytic_energy_reference,
                              checkerboard_mesh, checkerboard_target, fig1_left_values,
                              fig1_refined, hexagon_mesh, hexagon_target)
from .errors import IoFailure, ParameterOutOfRange, RefusesNonQM
from .fespace import build_space, element_dual_basis, element_mass_matrix, require_degree
from .fields import TargetField
from .interp import interpolation_error_sq, quasi_interpolate
from .mesh import Triangulation, build_triangulation, region_rows
from .quadrature import (_KEY_DECIMALS, _leggauss01, make_quadrature_plan, plan_key,
                         triangle_rule)

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


def _tables(tri: Triangulation, targets, degree: int, dirichlet: bool = False) -> list:
    """The element tables of each of `targets` on `tri` in the degree-`degree`
    space, with Dirichlet nodes on the boundary if `dirichlet`, in target
    order.  The targets of one (`plan_key`, period) share one plan of
    exactness 2 degree + 6 and one `element_tables_each` pass.

    For targets with a lattice period p the tables are built once per
    period: each element is keyed by its vertices, in order, less p times
    the lattice cell floor(centroid / p), divided by p and rounded to
    `_KEY_DECIMALS`.  Elements of one key are translates of each other by
    the period, so their tables agree; the plan and the tables are built
    on the sub-mesh of the first element of each key and gathered.  On a
    mesh that is not periodic more keys only mean more work."""
    space = build_space(tri, degree, dirichlet_on_boundary=dirichlet)
    groups: dict = {}  # (plan key, period) -> the indices of its targets
    for i, target in enumerate(targets):
        groups.setdefault((plan_key(target), target.period), []).append(i)
    tables = [None] * len(targets)
    for (_, period), ids in groups.items():
        group, sub, sub_space = [targets[i] for i in ids], tri, space
        if period is not None:
            v = tri.vertices[tri.triangles]
            cell = np.floor(v.mean(axis=1) / period)
            keys = np.round(v / period - cell[:, None], _KEY_DECIMALS) + 0.0
            _, first, inverse = np.unique(keys.reshape(len(v), -1), axis=0, return_index=True,
                                          return_inverse=True)
            nodes, local = np.unique(tri.triangles[first], return_inverse=True)
            sub = build_triangulation(tri.vertices[nodes], local.reshape(-1, 3))
            sub_space = build_space(sub, degree)
        plan = make_quadrature_plan(sub, group[0], exactness=2 * degree + 6)
        for i, tab in zip(ids, element_tables_each(group, plan, sub_space)):
            if period is not None:
                tab = replace(tab, space=space, **{f.name: getattr(tab, f.name)[inverse.ravel()]
                                                   for f in fields(tab) if f.name != "space"})
            tables[i] = tab
    return tables


def run_hexagon_sweep(eps_values=DEFAULT_EPS, degree: int = 1) -> list:
    """Per contrast: global best error against element, pair, and
    vertex-star localized errors, all in the space with Dirichlet nodes on
    the boundary."""
    require_degree(degree)
    for eps in eps_values:  # every eps before any mesh is built
        _hexagon_eps(eps)
    reports = []
    for eps in eps_values:
        tri, coeff = hexagon_mesh(eps)
        tables = _tables(tri, [hexagon_target(eps)], degree, dirichlet=True)[0]
        global_sq = ritz(tables, coeff.values)[0]
        elements = list(enumerate(local_element_errors(tables, coeff).tolist()))
        edges = tri.interior_edges()
        pair_sq = local_ritz(tables, coeff.values, region_rows(tri.edge_elements, edges))[0]
        star_sq = local_ritz(tables, coeff.values, tri.vertex_elements)[0]
        pairs = list(zip(edges, pair_sq.tolist()))
        stars = list(enumerate(star_sq.tolist()))
        reports.append(LocalizationReport(
            global_error_sq=global_sq,
            loci={"element": elements, "pair": pairs, "star": stars},
            metadata={
                "experiment": "hexagon", "eps": eps, "degree": degree,
                "alpha": coeff.alpha, "n_elements": tri.n_elements,
                "quasi_monotone": check_quasi_monotonicity(tri, coeff).quasi_monotone,
                "analytic": analytic_energy_reference(eps),
            },
        ))
    return reports


def _star_candidates(tables, coeff: Coefficient, N: int, inner, regions):
    """Kinds and candidate energies of the stars `regions` (CSR) of the
    interior checkerboard vertices `inner`, as two (P,) arrays.  A vertex is
    a macro corner, macro-edge midpoint or macro center by the parity of its
    cell-corner lattice index 2N x.  The candidate of a star that is not a
    corner's takes its values from the star's white triangles that hold a
    macro center c, with sigma = 1/N if (centroid - c) . (1, 1) > 0, else
    -1/N: -sigma at the triangle's other vertices if c is the star's vertex,
    else sigma at c; zero elsewhere, the space's Dirichlet vertices included."""
    tri, space = tables.space.tri, tables.space
    kind = (np.rint(2 * N * tri.vertices).astype(np.int64) % 2).sum(axis=1)
    verts = tri.triangles
    # each white triangle's macro center (at most one) and the sign of its side
    is_center = kind[verts] == 2
    center = verts[np.arange(len(verts)), is_center.argmax(axis=1)]
    side = (tri.vertices[verts].mean(axis=1) - tri.vertices[center]).sum(axis=1)
    sigma = np.where(side > 0, 1.0, -1.0) / N
    lit = (coeff.values == 1.0) & is_center.any(axis=1)
    inner, (offsets, ids) = np.asarray(inner, dtype=np.int64), regions
    star = np.repeat(np.arange(len(inner)), np.diff(offsets))  # the star of each entry
    own, w = center[ids] == inner[star], verts[ids]
    # an entry writes at all its vertices but c if c is its star's vertex, else
    # at c; a corner's star and the Dirichlet vertices take no write
    write = ((w == center[ids, None]) != own[:, None]) & ~space.dirichlet[space.vertex_nodes[w]]
    write &= (lit[ids] & (kind[inner[star]] != 0))[:, None]
    # one key per star and vertex id w, the last write to a key holding; read
    # below at node ids, so not the hat candidates, which key by
    # space.vertex_nodes[w] (ROADMAP item 1)
    keys = (star[:, None] * space.n_nodes + w)[write]
    vals = np.broadcast_to(np.where(own, -sigma[ids], sigma[ids])[:, None], w.shape)[write]
    keys, last = np.unique(keys[::-1], return_index=True)
    vals = np.append(vals[::-1][last], 0.0)
    read = star[:, None] * space.n_nodes + space.element_nodes[ids]
    at = np.searchsorted(keys, read)
    v = np.zeros((len(inner), np.diff(offsets).max(initial=0), read.shape[1]))
    v[star, np.arange(len(ids)) - offsets[star]] = np.where(np.append(keys, -1)[at] == read,
                                                            vals[at], 0.0)
    names = np.array(["corner", "edge-midpoint", "center"])  # by odd lattice coordinates
    return names[kind[inner]], _region_errors(tables, coeff.values, regions, v)


def run_star_sweep(n_values=DEFAULT_N, degree: int = 1) -> list:
    """Per N: global best error on the checkerboard against per-interior-
    vertex star errors, with patch classification and explicit candidate
    upper bounds."""
    # the degree, then every N, its range and the memory of its 8 N^2
    # elements, before any target (N^2 singular points) or mesh is built
    require_degree(degree)
    for N in n_values:
        _checkerboard_eps(N)
        _require_memory(f"N={N}", 8.0 * N**2, degree, _STAR_BYTES_PER_ELEMENT)
    reports = []
    for N in n_values:
        tri, coeff = checkerboard_mesh(N)
        tables = _tables(tri, [checkerboard_target(N)], degree, dirichlet=True)[0]
        global_sq = ritz(tables, coeff.values)[0]
        inner = tri.interior_vertices()
        regions = region_rows(tri.vertex_elements, inner)
        star_sq = local_ritz(tables, coeff.values, regions)[0]
        kinds, candidates = _star_candidates(tables, coeff, N, inner, regions)
        stars = list(zip(inner, star_sq.tolist()))
        reports.append(LocalizationReport(
            global_error_sq=global_sq,
            loci={"star": stars},
            metadata={
                "experiment": "stars", "N": N, "degree": degree,
                "alpha": coeff.alpha, "n_elements": tri.n_elements,
                "quasi_monotone": check_quasi_monotonicity(tri, coeff).quasi_monotone,
                "star_kinds": dict(zip(inner, kinds.tolist())),
                "candidate_upper_bounds": dict(zip(inner, candidates.tolist())),
            },
        ))
    return reports


# Peak memory per element, in bytes by degree 1..4, so that `_require_memory`
# refuses a request too large for the machine before anything is built.
# For the fig1 sweeps: twice the larger peak-RSS slope of `alpha` and `rd`
# (default alphas and betas; `rd` has the larger at every degree) between
# --refines 4 and 5, by getrusage of a fresh process on 2 cores, Python 3.11,
# numpy 2.4, with every target's tables held at once.
_BYTES_PER_ELEMENT = {1: 21_640, 2: 23_620, 3: 36_190, 4: 75_898}
# The same for `stars`: twice the peak-RSS slope between --n 16 and --n 32
# (2,048 and 8,192 elements), measured the same way.
_STAR_BYTES_PER_ELEMENT = {1: 4_762, 2: 13_546, 3: 35_348, 4: 79_150}


def _require_memory(what: str, n_elements: float, degree: int, per_element: dict) -> None:
    """Raises ParameterOutOfRange when `n_elements` elements at `degree`, at
    the bytes per element of the table `per_element`, need more than the
    machine's physical memory."""
    need = n_elements * per_element[degree]
    have = _physical_memory()
    if need > have:
        raise ParameterOutOfRange(f"{what} at degree {degree} needs about "
                                  f"{need / 2**30:.3g} GiB of {have / 2**30:.3g} GiB of memory")


def _checked_betas(betas) -> list:
    """`betas` as floats; raises ValueError for one not finite and >= 0."""
    betas = [float(beta) for beta in betas]
    for beta in betas:
        if not (np.isfinite(beta) and beta >= 0):
            raise ValueError(f"beta must be finite and >= 0, got {beta}")
    return betas


def _fig1_tables(pattern: str, alpha_values, targets: dict, degree: int, refines: int):
    """The refined tiling of `pattern`, the coefficient per alpha on it, and
    the element tables of each target in target order (`_tables`).  The
    degree, every alpha and the tiling's memory estimate are checked before
    the tiling is built, and a coefficient that is not quasi-monotone is
    refused."""
    require_degree(degree)
    if pattern != "fig1-left":
        raise ParameterOutOfRange(f"unknown pattern {pattern!r}")
    values = [fig1_left_values(alpha) for alpha in alpha_values]
    # 4^(refines + 1) elements, as a capped float: a huge `refines` costs nothing
    _require_memory(f"refines={refines}", 4.0 ** min(refines + 1, 256), degree,
                    _BYTES_PER_ELEMENT)
    tri, coarse = fig1_refined(refines)
    coeffs = [attach_coefficient(tri, v[coarse]) for v in values]
    for alpha, coeff in zip(alpha_values, coeffs):
        qm = check_quasi_monotonicity(tri, coeff)
        if not qm.quasi_monotone:
            raise RefusesNonQM(f"pattern {pattern!r} at alpha={alpha} is not quasi-monotone; "
                               f"witness {qm.witnesses[:1]}")
    return tri, coeffs, _tables(tri, list(targets.values()), degree)


def _global_sq(tables: list, a, beta: float = 0.0) -> list:
    """The global best error of each of `tables`, by one shared operator."""
    return [err for err, _ in ritz_each(tables, a, beta)]


def run_alpha_robustness(pattern: str = "fig1-left", alpha_values=DEFAULT_ALPHA,
                         targets: dict | None = None, degree: int = 1,
                         refines: int = 2) -> list:
    """Localization and near-best ratios across a contrast sweep on a
    quasi-monotone tiling; refuses non-quasi-monotone configurations."""
    targets = default_smooth_targets() if targets is None else targets
    tri, coeffs, tables = _fig1_tables(pattern, alpha_values, targets, degree, refines)
    reports = []  # per alpha, in target order
    for alpha, coeff in zip(alpha_values, coeffs):
        for (name, target), tab, global_sq in zip(targets.items(), tables,
                                                  _global_sq(tables, coeff.values)):
            elements = list(enumerate(local_element_errors(tab, coeff).tolist()))
            itp = quasi_interpolate(target, tab, coeff)
            interp_sq = float(interpolation_error_sq(itp, tab, coeff).sum())
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
    """Combined-norm equivalence sweep on a quasi-monotone tiling.  The L2
    global error and pair list are computed once per target, the gradient
    ones once per target and alpha, each locus list shared by its reports;
    each global operator is built once for all targets."""
    targets = default_smooth_targets() if targets is None else targets
    betas = _checked_betas(beta_values)
    tri, coeffs, tables = _fig1_tables(pattern, alpha_values, targets, degree, refines)
    zero, edges = np.zeros(tri.n_elements), tri.interior_edges()
    regions = region_rows(tri.edge_elements, edges)
    l2 = _global_sq(tables, zero, 1.0)
    pair_lists = []  # per target: the pair list and its sum
    for tab in tables:
        pair_sq = local_ritz(tab, zero, regions, 1.0)[0].tolist()
        pair_lists.append((list(zip(edges, pair_sq)), float(sum(pair_sq))))
    reports = []  # per alpha, in target and beta order
    for alpha, coeff in zip(alpha_values, coeffs):
        gradient = _global_sq(tables, coeff.values)
        combined = [_global_sq(tables, coeff.values, b) for b in betas]  # per beta, per target
        for t, (name, tab) in enumerate(zip(targets, tables)):
            element_sq = local_element_errors(tab, coeff).tolist()
            elements, grad_sum = list(enumerate(element_sq)), float(sum(element_sq))
            pairs, pair_sum = pair_lists[t]
            for beta, per_target in zip(beta_values, combined):
                combined_sq = per_target[t]
                localized = grad_sum + beta * pair_sum
                split_floor = gradient[t] + beta * l2[t]
                reports.append(LocalizationReport(
                    global_error_sq=combined_sq,
                    loci={"element": elements, "pair": pairs},
                    metadata={
                        "experiment": "rd", "pattern": pattern, "alpha": alpha,
                        "beta": beta, "target": name, "degree": degree,
                        "refines": refines, "quasi_monotone": True,
                        "gradient_global_sq": gradient[t],
                        "l2_global_sq": l2[t],
                        "localized_sum_sq": localized,
                        "equivalence_ratio":
                            combined_sq / localized if localized > 0 else float("inf"),
                        "splitting_ratio":
                            combined_sq / split_floor if split_floor > 0 else float("inf"),
                    },
                ))
    return reports


# ---------------------------------------------------------------------------
# inequality-constant estimation


def estimate_inequality_constants(refine_levels: int = 4, degree: int = 1) -> dict:
    """Measure basis scalings and trace/Poincare constants on element 0 of the
    uniform refinements 0..refine_levels-1 (1..200) of the 2-triangle square."""
    require_degree(degree)
    if refine_levels < 1:
        raise ParameterOutOfRange(f"levels must be >= 1, got {refine_levels}")
    # at 200 levels h^4 = 2^-798 is still a normal double; far beyond, a
    # constant underflows to 0
    if refine_levels > 200:
        raise ParameterOutOfRange(f"levels must be <= 200, got {refine_levels}")
    per_level = []
    for level in range(refine_levels):
        # element 0 of refinement `level` is the square's element 0 scaled
        # by 2^-level, bit for bit
        V = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]) * 0.5**level
        tri = build_triangulation(V, np.array([[0, 1, 2]]))
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
    """One row per locus: the report's columns as one prefix string, then
    the locus id and error, each locus list formatted once."""
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
    lists: dict = {}  # id of a locus list -> its "id,error_sq" cells
    for idx, rep in enumerate(reports):
        head = ",".join([str(idx)] + [_fmt(rep.metadata.get(key, "")) for key in keys] +
                        [_fmt(rep.global_error_sq)])
        if not rep.loci:
            buf.write(head + ",,,\n")
        for kind in sorted(rep.loci):
            entries = rep.loci[kind]
            if id(entries) not in lists:
                lists[id(entries)] = [f"{int(i)},{_fmt(e)}" for i, e in entries]
            if entries:
                prefix = f"{head},{kind},"
                buf.write(prefix + ("\n" + prefix).join(lists[id(entries)]) + "\n")
    return buf.getvalue()


def _json_value(obj) -> str:
    """`obj` as json.dumps(sort_keys=True, indent=2) writes it as a value of
    a report's dict; JSON escapes newlines in strings, so re-indenting is
    exact."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default).replace(
        "\n", "\n    ")


def _json_loci(entries) -> str:
    """The JSON of a locus list, [{"error_sq": float(e), "id": int(i)}, ...],
    as it reads at the depth of a report's loci."""
    if not entries:
        return "[]"
    ids, errs = zip(*entries)
    # json.dumps writes floats by float.__repr__, and NaN, Infinity, -Infinity
    errs = json.dumps(list(map(float, errs)))[1:-1].split(", ")
    cells = map(',\n          "id": '.join, zip(errs, map(str, map(int, ids))))
    return ('[\n        {\n          "error_sq": '
            + '\n        },\n        {\n          "error_sq": '.join(cells)
            + "\n        }\n      ]")


def _render_json(reports) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) of the reports, with no
    payload: the small parts by `_json_value`, each distinct locus list once
    by `_json_loci` and summed once as `LocalizationReport.locus_sum` does,
    all joined once."""
    lists: dict = {}  # id of a locus list -> its JSON and its sum
    out = []
    for n, rep in enumerate(reports):
        out.append(",\n  {\n" if n else "[\n  {\n")
        out.append(f'    "global_error_sq": {_json_value(rep.global_error_sq)},\n    "loci": ')
        kinds, sums = sorted(rep.loci), {}
        for j, kind in enumerate(kinds):
            entries = rep.loci[kind]
            if id(entries) not in lists:
                lists[id(entries)] = _json_loci(entries), float(sum(e for _, e in entries))
            text, sums[kind] = lists[id(entries)]
            out += [",\n      " if j else "{\n      ", json.dumps(kind), ": ", text]
        out.append("\n    },\n" if kinds else "{},\n")
        g = rep.global_error_sq  # the ratios as `LocalizationReport.ratio`
        ratios = {k: g / s if s > 0 else float("inf") for k, s in sums.items()}
        out.append(f'    "metadata": {_json_value(rep.metadata)},\n'
                   f'    "ratios": {_json_value(ratios)},\n'
                   f'    "sums": {_json_value(sums)}\n  }}')
    out.append("\n]\n" if reports else "[]\n")
    return "".join(out)


def render_report(reports, fmt: str = "csv") -> str:
    """Deterministic serialization of a report list.  JSON is byte-identical
    to json.dumps(sort_keys=True, indent=2) of each report as a dict of
    global_error_sq, loci ([{"id", "error_sq"}, ...] per kind), sums, ratios
    and metadata."""
    if fmt == "json":
        return _render_json(reports)
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
