"""Two quasi-interpolation operators onto the continuous Lagrange space,
both gathers from element tables and one array selection of K_max(z) and
F_z (`coeff.select_kmax_fz`).

``quasi_interpolate`` assigns skeleton nodes face-dual moments on F_z, a
face of the maximal-coefficient element of the node's star, all chosen
edges integrated in one stacked edge rule; element-interior nodes take the
value of the element's gradient fit stored in the tables.
``quasi_interpolate_each`` does so for several targets on one space: one
selection and one layout of the chosen edges per coefficient for all
targets, the edge rule, points and basis once per singular-point key, and
each target's moments summed by `np.bincount`; ``quasi_interpolate`` is its
one-target call.
``l2_quasi_interpolate`` assigns every node its value in the element L2 fit
on K_max(z), i.e. an element-dual moment.  Both reproduce members of the
space and are robust with respect to the coefficient contrast.  Their
errors come from the tables' error form and the norms of u from the tables'
sums, with no further quadrature of the target.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bestapprox import ElementTables, _error, element_tables, local_element_errors
from .coeff import Coefficient, build_omega_hat, select_kmax_fz
from .errors import QuadratureFailure
from .fespace import LagrangeSpace, _reference_face_dual, edge_basis_1d
from .mesh import _sorted_distinct, region_rows
from .quadrature import QuadraturePlan, _leggauss01, plan_key, radial_rule

_GAUSS_1D = 12


@dataclass(frozen=True)
class InterpolantResult:
    """Coefficient vector of an interpolant plus per-node provenance:
    provenance[i] is one of 'face-dual', 'interior-best-fit',
    'boundary-zero' or 'element-dual'."""

    space: LagrangeSpace
    coefficients: np.ndarray
    provenance: np.ndarray


def _edge_quadrature(space: LagrangeSpace, target, edges):
    """Rules on the edge parameter t in [0, 1] (from the lower-id endpoint)
    of the edges `edges`, graded toward a singular point at an endpoint.

    Returns flat arrays (owner, t, w): owner indexes `edges`, w includes the
    edge length.  A singular point within 1e-12 L of an endpoint of an edge
    of length L is at that endpoint.  Raises QuadratureFailure for a
    singular point strictly inside one of the edges.
    """
    tri = space.tri
    p0 = tri.vertices[tri.edges[edges, 0]]
    d = tri.vertices[tri.edges[edges, 1]] - p0
    L = np.linalg.norm(d, axis=1)
    tol = 1e-12 * L
    points = tuple(getattr(target, "singular_points", ()) or ())
    sing = np.full(len(edges), -1)    # the singular point at an endpoint
    far = np.zeros(len(edges), dtype=bool)  # ... at the higher-id endpoint
    for i, s in enumerate(points):
        r = np.asarray(s.location, float) - p0
        at0 = np.linalg.norm(r, axis=1) <= tol
        at1 = ~at0 & (np.linalg.norm(r - d, axis=1) <= tol)
        u = np.einsum("ed,ed->e", d, r) / (L * L)  # edge parameter of the projection
        inside = (~at0 & ~at1 & (1e-12 < u) & (u < 1.0 - 1e-12)
                  & (np.abs(d[:, 0] * r[:, 1] - d[:, 1] * r[:, 0]) <= 1e-12 * L))
        if inside.any():
            raise QuadratureFailure(f"singular point strictly inside edge "
                                    f"{edges[inside][0]}; refine the mesh instead")
        hit = at0 | at1
        sing[hit], far[hit] = i, at1[hit]
    t, w = _leggauss01(_GAUSS_1D)
    plain = np.flatnonzero(sing < 0)
    owner, ts = [np.repeat(plain, len(t))], [np.tile(t, len(plain))]
    ws = [np.outer(L[plain], w).ravel()]
    for e in np.flatnonzero(sing >= 0):
        s = points[sing[e]]
        # u psi on the edge: r**(mu+k), k <= degree, in the singular part
        r, wr = radial_rule(L[e], s.exponent, tuple(s.radial_breakpoints), space.degree)
        owner.append(np.full(len(r), e))
        ts.append(1.0 - r / L[e] if far[e] else r / L[e])
        ws.append(wr)
    return np.concatenate(owner), np.concatenate(ts), np.concatenate(ws)


def _face_dual_values(space: LagrangeSpace, targets, edges) -> list:
    """Face-dual node values (m, degree+1) of each of `targets` on the edges
    `edges`, nodes in the order of `LagrangeSpace.edge_nodes`: int_F u psi_z
    for each.  The edge rule, its points and the edge basis are built once
    per distinct singular-point key; each target is evaluated once, and its
    moments int_F u phi_y ds are summed by one `bincount` per basis
    function, in the rule's order as `np.add.at` would add them."""
    tri = space.tri
    p0 = tri.vertices[tri.edges[edges, 0]]
    d = tri.vertices[tri.edges[edges, 1]] - p0
    L = np.linalg.norm(d, axis=1)[:, None]
    D = _reference_face_dual(space.degree)
    groups: dict = {}  # singular-point key -> the indices of its targets
    for i, target in enumerate(targets):
        groups.setdefault(_edge_rule_key(target), []).append(i)
    out = [None] * len(targets)
    for ids in groups.values():
        owner, t, w = _edge_quadrature(space, targets[ids[0]], edges)
        pts, phi = p0[owner] + t[:, None] * d[owner], edge_basis_1d(space.degree, t)
        for i in ids:
            wphi = (w * targets[i].value(pts))[:, None] * phi
            moments = np.stack([np.bincount(owner, c, minlength=len(edges)) for c in wphi.T],
                               axis=1)
            out[i] = moments @ D.T / L
    return out


def _edge_rule_key(target) -> tuple:
    """What `_edge_quadrature` reads of `target`: each singular point's
    location, exponent and breakpoints, hashable whatever their types."""
    return tuple((np.asarray(s.location, float).tobytes(), float(s.exponent),
                  tuple(np.asarray(s.radial_breakpoints, float).tolist()))
                 for s in plan_key(target))


def quasi_interpolate(target, tables: ElementTables, coeff: Coefficient) -> InterpolantResult:
    """Skeleton nodes: face-dual moments on F_z; element-interior nodes: the
    values of the gradient fit of K_max(z) (`ElementTables.grad_fits`); nodes
    under a Dirichlet mask: zero.  The tables are those of `target` on the
    space of the interpolant: `quasi_interpolate_each` of the one target."""
    return quasi_interpolate_each([target], [tables], coeff)[0]


def quasi_interpolate_each(targets, tables: list, coeff: Coefficient) -> list:
    """`quasi_interpolate` of each of `targets`, tables[i] those of
    targets[i], all on one space.  The selection of K_max(z) and F_z, the
    split into face and interior nodes, the chosen edges and each face
    node's row and position among them are made once for all targets, and
    the face-dual moments come from one `_face_dual_values` call.  Each
    result holds its own arrays.  Raises ValueError for tables of different
    spaces or a count other than that of the targets."""
    if len(tables) != len(targets):
        raise ValueError(f"{len(targets)} targets but {len(tables)} tables")
    if not tables:
        return []
    space = tables[0].space
    if any(t.space is not space for t in tables):
        raise ValueError("quasi_interpolate_each needs the tables of one space")
    kmax, loc, fz = select_kmax_fz(space, coeff)
    prov = np.where(fz < 0, "interior-best-fit", "face-dual")
    prov[space.dirichlet] = "boundary-zero"
    interior = np.flatnonzero((fz < 0) & ~space.dirichlet)
    face = np.flatnonzero((fz >= 0) & ~space.dirichlet)
    xs = [np.zeros(space.n_nodes) for _ in tables]
    for x, tab in zip(xs, tables):
        x[interior] = tab.grad_fits[kmax[interior], loc[interior]]
    if len(face):
        edges, row = np.unique(fz[face], return_inverse=True)
        pos = np.argmax(space.edge_nodes[edges][row] == face[:, None], axis=1)
        for x, values in zip(xs, _face_dual_values(space, targets, edges)):
            x[face] = values[row, pos]
    return [InterpolantResult(space=space, coefficients=x, provenance=prov.copy()) for x in xs]


def l2_quasi_interpolate(tables: ElementTables, coeff: Coefficient) -> InterpolantResult:
    """Every node value is the element-dual moment int_Kmax u psi_z: the
    value at z of the L2(K_max) fit of u (`ElementTables.value_fits`)."""
    kmax, loc, _ = select_kmax_fz(tables.space, coeff)
    n = tables.space.n_nodes
    return InterpolantResult(space=tables.space, coefficients=tables.value_fits[kmax, loc],
                             provenance=np.full(n, "element-dual"))


def interpolation_error_sq(interp: InterpolantResult, tables: ElementTables,
                           coeff: Coefficient) -> np.ndarray:
    """||a^(1/2) grad(u - Iu)||^2_K for every element K, an (nt,) array, from
    the error form of the tables of u on the space of the interpolant."""
    return _error(tables, coeff.values, 0.0, slice(None),
                  interp.coefficients[interp.space.element_nodes])


def operator_report(target, space: LagrangeSpace, coeff: Coefficient,
                    plan: QuadraturePlan, which: str = "skeleton",
                    energy_diagnostic: bool = False) -> dict:
    """Stability / near-best record for one of the two operators, from one
    element-table pass.

    which='skeleton': per-element weighted error of the face-dual operator
    against the patch-local best-error sums.  which='l2': L2-stability ratio
    of the element-dual operator, the norms of Iu exact from the element
    mass matrices; with energy_diagnostic the energy stability ratio is
    added, which requires monotone paths and therefore raises
    NoMonotonePath on non-quasi-monotone coefficients.
    """
    if which not in ("skeleton", "l2"):
        raise ValueError(f"unknown operator {which!r}")
    tri = space.tri
    tables = element_tables(target, plan, space)
    if which == "skeleton":
        itp = quasi_interpolate(target, tables, coeff)
        locals_sq = local_element_errors(tables, coeff)
        errs = interpolation_error_sq(itp, tables, coeff)
        # omega_K: the elements of the stars of K's vertices, each pair (K, K') once
        nt = tri.n_elements
        offsets, nbr = region_rows(tri.vertex_elements, tri.triangles.ravel())
        owner = np.repeat(np.arange(3 * nt) // 3, np.diff(offsets))
        pairs = _sorted_distinct(owner * nt + nbr)
        patch_sums = np.bincount(pairs // nt, weights=locals_sq[pairs % nt], minlength=nt)
        total_err, total_loc = float(errs.sum()), float(locals_sq.sum())
        ratio = 0.0 if total_err <= 1e-28 else (
            float("inf") if total_loc == 0 else total_err / total_loc
        )
        return {
            "operator": "skeleton",
            "error_sq": total_err,
            "local_sum_sq": total_loc,
            "near_best_ratio": ratio,
            "per_element": [
                {"element": k, "error_sq": e, "patch_local_sum_sq": s}
                for k, (e, s) in enumerate(zip(errs.tolist(), patch_sums.tolist()))
            ],
        }
    itp = l2_quasi_interpolate(tables, coeff)
    xe = itp.coefficients[space.element_nodes]
    uu = float(tables.value_sq.sum())
    vv = float(np.einsum("ki,kij,kj->", xe, tables.mass, xe))
    rec = {
        "operator": "l2",
        "l2_norm_sq_target": uu,
        "l2_norm_sq_interpolant": vv,
        "l2_stability_ratio": 0.0 if uu == 0 else np.sqrt(vv / uu),
    }
    if energy_diagnostic:
        omega_hats = {
            k: build_omega_hat(tri, coeff, k, space=space)
            for k in range(tri.n_elements)
        }
        eu = float(coeff.values @ tables.grad_sq)
        ev = float(coeff.values @ np.einsum("ki,kij,kj->k", xe, tables.stiffness, xe))
        rec["energy_stability_ratio"] = 0.0 if eu == 0 else np.sqrt(ev / eu)
        rec["omega_hat_sizes"] = {int(k): len(v) for k, v in omega_hats.items()}
    return rec
