"""Two quasi-interpolation operators onto the continuous Lagrange space.

``quasi_interpolate`` assigns skeleton nodes face-dual moments taken on a
face of the maximal-coefficient element of the node's star, and
element-interior nodes the value of the per-element best polynomial fit
(a one-element Ritz solve, its constant matched to the element mean).
``l2_quasi_interpolate`` assigns every node an element-dual moment on the
maximal-coefficient element.  Both reproduce members of the space and are
robust with respect to the coefficient contrast.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bestapprox import (element_tables, energy_norm_sq, l2_norm_sq,
                         local_element_error, ritz)
from .coeff import Coefficient, build_omega_hat, select_fz, select_kmax_of_node
from .errors import QuadratureFailure
from .fespace import (LagrangeSpace, element_dual_basis, eval_basis, face_dual_basis)
from .quadrature import QuadraturePlan, radial_rule
from .mesh import element_patch

_GAUSS_1D = 12


@dataclass(frozen=True)
class InterpolantResult:
    """Coefficient vector of an interpolant plus per-node provenance.

    provenance[i] is one of 'face-dual', 'interior-best-fit',
    'boundary-zero' or 'element-dual'; selections[i] records the element
    (and face, when applicable) the node value was read from.
    """

    space: LagrangeSpace
    coefficients: np.ndarray
    provenance: tuple
    selections: tuple

    def value(self, k: int, pts) -> np.ndarray:
        vals, _ = eval_basis(self.space, k, pts)
        return vals @ self.coefficients[self.space.element_nodes[k]]

    def gradient(self, k: int, pts) -> np.ndarray:
        _, grads = eval_basis(self.space, k, pts)
        return np.einsum("qid,i->qd", grads, self.coefficients[self.space.element_nodes[k]])


def _edge_quadrature(space: LagrangeSpace, target, e: int):
    """1D rule along edge e: points (n,2) and weights, graded toward a
    singular point sitting at an endpoint of the edge."""
    tri = space.tri
    i, j = tri.edges[e]
    p0, p1 = tri.vertices[i], tri.vertices[j]
    L = float(np.linalg.norm(p1 - p0))
    sing = None
    for s in getattr(target, "singular_points", ()) or ():
        loc = np.asarray(s.location, float)
        if np.linalg.norm(loc - p0) <= 1e-12 * max(L, 1.0):
            sing = (p0, p1, s)
        elif np.linalg.norm(loc - p1) <= 1e-12 * max(L, 1.0):
            sing = (p1, p0, s)
        elif np.linalg.norm(loc - p0) < L - 1e-12 and abs(
            (p1[0] - p0[0]) * (loc[1] - p0[1]) - (p1[1] - p0[1]) * (loc[0] - p0[0])
        ) <= 1e-12 * L:
            raise QuadratureFailure(
                f"singular point strictly inside edge {e}; refine the mesh instead"
            )
    if sing is None:
        x, w = np.polynomial.legendre.leggauss(_GAUSS_1D)
        t = 0.5 * (x + 1.0) * L
        pts = p0 + np.outer(t / L, p1 - p0)
        return pts, 0.5 * L * w
    origin, other, s = sing
    r, w = radial_rule(L, s.exponent, tuple(s.radial_breakpoints))
    pts = origin + np.outer(r / L, other - origin)
    return pts, w


def _edge_moment_values(space: LagrangeSpace, target, e: int):
    """Face-dual node values on edge e: for every edge node z,
    int_e u psi_z ds, returned as {node-id: value}."""
    ids, D = face_dual_basis(space, e)
    pts, wts = _edge_quadrature(space, target, e)
    tri = space.tri
    i, j = tri.edges[e]
    p0, p1 = tri.vertices[i], tri.vertices[j]
    L = float(np.linalg.norm(p1 - p0))
    t = np.linalg.norm(pts - p0, axis=1) / L
    from .fespace import edge_basis_1d

    phi = edge_basis_1d(space.degree, t)
    moments = phi.T @ (wts * target.value(pts))  # int u phi_y ds
    vals = D @ moments
    return dict(zip(ids, vals))


def _element_fit(tables, coeff: Coefficient, k: int) -> dict:
    """Node values of the best P_degree(K) fit of u in the energy on K, with
    its constant shifted so the fit and u share the element mean."""
    _, nodes, x = ritz(tables, coeff.values, region=[k])
    local = x[np.searchsorted(nodes, tables.space.element_nodes[k])]
    fit_mass = float(local @ tables.mass[k].sum(axis=1))
    shift = (float(tables.value_moments[k].sum()) - fit_mass) / float(tables.space.tri.areas[k])
    return dict(zip(nodes.tolist(), x + shift))


def quasi_interpolate(target, space: LagrangeSpace, coeff: Coefficient,
                      plan: QuadraturePlan) -> InterpolantResult:
    """Skeleton nodes: face-dual moments on a face of the star's maximal
    element; element-interior nodes: best-fit polynomial values; nodes under
    a Dirichlet mask: zero."""
    n = space.n_nodes
    x = np.zeros(n)
    prov = [None] * n
    sel = [None] * n
    edge_cache: dict[int, dict] = {}
    fit_cache: dict[int, dict] = {}
    # element-interior nodes exist from degree 3 on
    tables = element_tables(target, plan, space) if space.degree >= 3 else None
    for z in range(n):
        if space.dirichlet[z]:
            prov[z] = "boundary-zero"
            sel[z] = None
            continue
        kind = space.node_kind[z]
        if kind == "interior":
            k = int(space.node_entity[z])
            if k not in fit_cache:
                fit_cache[k] = _element_fit(tables, coeff, k)
            x[z] = fit_cache[k][z]
            prov[z] = "interior-best-fit"
            sel[z] = ("element", k)
        else:
            e = select_fz(space, coeff, z)
            if e not in edge_cache:
                edge_cache[e] = _edge_moment_values(space, target, e)
            x[z] = edge_cache[e][z]
            prov[z] = "face-dual"
            sel[z] = ("edge", e, select_kmax_of_node(space, coeff, z))
    return InterpolantResult(space=space, coefficients=x,
                             provenance=tuple(prov), selections=tuple(sel))


def l2_quasi_interpolate(target, space: LagrangeSpace, coeff: Coefficient,
                         plan: QuadraturePlan) -> InterpolantResult:
    """Every node value is an element-dual moment int_Kmax u psi_z."""
    n = space.n_nodes
    x = np.zeros(n)
    sel = [None] * n
    moment_cache: dict[int, np.ndarray] = {}
    dual_cache: dict[int, np.ndarray] = {}
    for z in range(n):
        k = select_kmax_of_node(space, coeff, z)
        if k not in moment_cache:
            pts, wts = plan.element_rule(k)
            vphi, _ = eval_basis(space, k, pts)
            moment_cache[k] = vphi.T @ (wts * target.value(pts))
            dual_cache[k] = element_dual_basis(space, k)
        loc = int(np.nonzero(space.element_nodes[k] == z)[0][0])
        x[z] = float(dual_cache[k][loc] @ moment_cache[k])
        sel[z] = ("element", k)
    return InterpolantResult(space=space, coefficients=x,
                             provenance=("element-dual",) * n, selections=tuple(sel))


def interpolation_error_sq(target, interp: InterpolantResult, coeff: Coefficient,
                           plan: QuadraturePlan, region=None) -> float:
    """||a^(1/2) grad(u - Iu)||^2 over a region (default: whole mesh)."""
    tri = interp.space.tri
    region = range(tri.n_elements) if region is None else sorted(region)
    total = 0.0
    for k in region:
        pts, wts = plan.element_rule(k)
        d = target.gradient(pts) - interp.gradient(k, pts)
        total += coeff.values[k] * float(wts @ np.einsum("qd,qd->q", d, d))
    return total


def interpolant_l2_norm_sq(interp: InterpolantResult, plan: QuadraturePlan) -> float:
    total = 0.0
    for k in range(interp.space.tri.n_elements):
        pts, wts = plan.element_rule(k)
        v = interp.value(k, pts)
        total += float(wts @ (v * v))
    return total


def operator_report(target, space: LagrangeSpace, coeff: Coefficient,
                    plan: QuadraturePlan, which: str = "skeleton",
                    energy_diagnostic: bool = False) -> dict:
    """Stability / near-best record for one of the two operators.

    which='skeleton': per-element weighted error of the face-dual operator
    against the patch-local best-error sums.  which='l2': L2-stability ratio
    of the element-dual operator; with energy_diagnostic the energy
    stability ratio is added, which requires monotone paths and therefore
    raises NoMonotonePath on non-quasi-monotone coefficients.
    """
    tri = space.tri
    if which == "skeleton":
        itp = quasi_interpolate(target, space, coeff, plan)
        tables = element_tables(target, plan, space)
        locals_sq = [local_element_error(tables, coeff, k) for k in range(tri.n_elements)]
        per_element = []
        for k in range(tri.n_elements):
            err_k = interpolation_error_sq(target, itp, coeff, plan, region=[k])
            patch_sum = float(sum(locals_sq[kk] for kk in element_patch(tri, k)))
            per_element.append((err_k, patch_sum))
        total_err = float(sum(e for e, _ in per_element))
        total_loc = float(sum(locals_sq))
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
                for k, (e, s) in enumerate(per_element)
            ],
        }
    if which == "l2":
        itp = l2_quasi_interpolate(target, space, coeff, plan)
        uu = l2_norm_sq(target, plan)
        vv = interpolant_l2_norm_sq(itp, plan)
        rec = {
            "operator": "l2",
            "l2_norm_sq_target": uu,
            "l2_norm_sq_interpolant": vv,
            "l2_stability_ratio": 0.0 if uu == 0 else np.sqrt(vv / uu),
        }
        if energy_diagnostic:
            omega_hats = {
                k: build_omega_hat(tri, coeff, k, degree=space.degree, space=space)
                for k in range(tri.n_elements)
            }
            eu = energy_norm_sq(target, coeff, plan)
            ev = 0.0
            for k in range(tri.n_elements):
                pts, wts = plan.element_rule(k)
                g = itp.gradient(k, pts)
                ev += coeff.values[k] * float(wts @ np.einsum("qd,qd->q", g, g))
            rec["energy_stability_ratio"] = 0.0 if eu == 0 else np.sqrt(ev / eu)
            rec["omega_hat_sizes"] = {int(k): len(v) for k, v in omega_hats.items()}
        return rec
    raise ValueError(f"unknown operator {which!r}")
