"""Best-approximation errors: one table of element matrices, target
moments, norms and element fits, the global Ritz solve by CG, and one
batched local Ritz kernel (`local_ritz`) for every element, pair and star.

Every error, of a best approximation, an explicit candidate or an
interpolant, comes from one element-layout form (`_error`): by Galerkin
orthogonality of the element fits, a_K ||grad(u - V)||^2_K = a_K (e_K + d^T
S_K d) with d = V|_K - pi_K and e_K the residual energy of the fit, and the
same with the mass matrix and the L2 fit.  Each term is non-negative and
accurate relative to itself, so no error is a difference of energies of u.

All error values are squared energies.  Pure-seminorm problems are gauged by
pinning one node; the reported error is invariant under that choice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .coeff import Coefficient
from .errors import SolverFailure
from .fespace import LagrangeSpace, reference_basis
from .mesh import _region_groups, element_affine
from .quadrature import QuadraturePlan, reference_triangle_rule


# ---------------------------------------------------------------------------
# element tables


@dataclass(frozen=True)
class ElementTables:
    """Per-element matrices of a space, and moments, norms and element fits
    of one target, its integrals by the plan's quadrature.

    stiffness, mass: (nt, nloc, nloc) unweighted element matrices in the
    local lattice order of ``space.element_nodes``.  grad_moments (nt, nloc):
    int_K grad u . grad phi_i; grad_sq (nt,): int_K |grad u|^2.  grad_fits
    (nt, nloc): the node values of pi_K, the best P_degree(K) fit of u in
    |grad .|_K with the element mean of u; grad_residual (nt,): int_K
    |grad(u - pi_K)|^2.  value_*: the same for u, u^2 and the L2(K) fit pi0_K.
    """

    space: LagrangeSpace
    stiffness: np.ndarray
    mass: np.ndarray
    grad_moments: np.ndarray
    grad_sq: np.ndarray
    value_moments: np.ndarray
    value_sq: np.ndarray
    grad_fits: np.ndarray
    grad_residual: np.ndarray
    value_fits: np.ndarray
    value_residual: np.ndarray


def element_tables(target, plan: QuadraturePlan, space: LagrangeSpace) -> ElementTables:
    """The tables of one target: `element_tables_each` of [target]."""
    return element_tables_each([target], plan, space)[0]


def element_tables_each(targets, plan: QuadraturePlan, space: LagrangeSpace) -> list:
    """The tables of each of `targets`, which share one plan: the element
    matrices from the reference basis and each affine map, built once and
    shared by every table, and each target's moments, norms, fits and fit
    residuals from one pass over the class blocks of the plan
    (`QuadraturePlan.blocks`), the basis and its derivatives evaluated once
    per class and block and one `evaluate` call on each target per block, a
    polar block's at its offsets from the singular point.  Raises as
    `QuadraturePlan.require_mesh`: PlanMismatch for a plan of another
    element count, PointOutsideElement for one of another mesh.
    """
    pts_ref, w_ref = reference_triangle_rule(2 * space.degree + 2)
    vals, gref = reference_basis(space.degree, pts_ref)
    B = element_affine(space.tri)[1]
    det, Binv = np.abs(np.linalg.det(B)), np.linalg.inv(B)
    # grad phi = gref @ Binv, so S_K = |det B_K| sum_ab (Binv Binv^T)_ab R_ab
    R = np.einsum("q,qia,qjb->abij", w_ref, gref, gref)
    G = det[:, None, None] * (Binv @ Binv.transpose(0, 2, 1))
    stiffness = np.einsum("kab,abij->kij", G, R)
    mass_ref = (vals.T * w_ref) @ vals
    mass = det[:, None, None] * mass_ref
    # S_K + (tr S_K / nloc^2) 1 1^T is definite, about as well conditioned as
    # S_K off its kernel, and maps load vectors that sum to zero to fits whose
    # node values do
    nloc = vals.shape[1]
    gauged_inv = np.linalg.inv(
        stiffness + (np.trace(stiffness, axis1=1, axis2=2) / nloc**2)[:, None, None])
    mass_ref_inv = np.linalg.inv(mass_ref)  # M_K^-1 = mass_ref_inv / |det B_K|

    T, nt = len(targets), space.tri.n_elements
    moments, fits = np.empty((T, nt, 2, nloc)), np.empty((T, nt, 2, nloc))
    sums = np.empty((T, nt, 4))
    plan.require_mesh(space.tri)
    last = None
    for cls, ks, pts, wts, about in plan.blocks():
        if cls != last:
            phi, gref = reference_basis(space.degree, plan.rules[cls][2])
            stacked = gref.transpose(1, 0, 2).reshape(nloc, -1)  # (nloc, 2n)
            last = cls
        if about is not None:
            about = np.repeat(about, wts.shape[1])
        Bk, gk, dk = Binv[ks], gauged_inv[ks], det[ks, None]
        dphi = (gref.reshape(-1, 2) @ Bk).reshape(*wts.shape, *gref.shape[1:])
        for t, target in enumerate(targets):
            u, gu = target.evaluate(pts.reshape(-1, 2), about)
            u, gu = u.reshape(wts.shape), gu.reshape(*wts.shape, 2)
            m = np.einsum("kq,kqd,kqid->ki", wts, gu, dphi)
            m0 = ((wts * u)[:, None, :] @ phi)[:, 0]
            pi = (gk @ m[..., None])[..., 0]
            pi0 = m0 @ mass_ref_inv.T / dk
            moments[t, ks, 0], moments[t, ks, 1], fits[t, ks, 0], fits[t, ks, 1] = m, m0, pi, pi0
            # the residuals at the nodes: grad pi = (pi @ gref) Binv, pi0 = pi0 @ phi
            r = gu - (pi @ stacked).reshape(gu.shape) @ Bk
            r0 = u - pi0 @ phi.T
            sums[t, ks, 0] = np.einsum("kq,kqd,kqd->k", wts, r, r)
            sums[t, ks, 1] = np.einsum("kq,kq,kq->k", wts, r0, r0)
            sums[t, ks, 2] = np.einsum("kq,kqd,kqd->k", wts, gu, gu)
            sums[t, ks, 3] = np.einsum("kq,kq,kq->k", wts, u, u)
    out, mass_rows = [], mass.sum(axis=2)
    for mo, fi, su in zip(moments, fits, sums):
        grad_fits = fi[:, 0]  # a view: its constant becomes the element mean of u
        grad_fits += ((mo[:, 1].sum(axis=1) - np.einsum("ki,ki->k", grad_fits, mass_rows))
                      / space.tri.areas)[:, None]
        out.append(ElementTables(space=space, stiffness=stiffness, mass=mass,
                                 grad_moments=mo[:, 0], grad_sq=su[:, 2], value_moments=mo[:, 1],
                                 value_sq=su[:, 3], grad_fits=grad_fits, grad_residual=su[:, 0],
                                 value_fits=fi[:, 1], value_residual=su[:, 1]))
    return out


# ---------------------------------------------------------------------------
# SPD solver


@dataclass
class SpdSystem:
    """Sparse SPD system; ``fixed`` marks the nodes held at zero (the pinned
    node of pure-seminorm problems, or a Dirichlet mask), None when the
    matrix is definite as given (already restricted to its free nodes)."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    fixed: np.ndarray | None = None

    def free_mask(self) -> np.ndarray:
        if self.fixed is None:
            return np.ones(self.matrix.shape[0], dtype=bool)
        return ~np.asarray(self.fixed, dtype=bool)


def solve_spd(system: SpdSystem, rtol: float = 1e-12) -> np.ndarray:
    """Jacobi-preconditioned CG on the gauged system.

    Converged when the preconditioned relative residual drops below rtol.
    Returns the full coefficient vector (constrained entries zero).  The
    matrix is restricted to the free nodes by a copy unless ``fixed`` is None.
    """
    A, b, free = system.matrix.tocsr(), system.rhs, None
    if system.fixed is not None:
        free = system.free_mask()
        A, b = A[free][:, free].tocsr(), b[free]
    n = A.shape[0]
    xf = np.zeros(n)
    d = A.diagonal()
    if np.any(d <= 0):
        raise SolverFailure("gauged system has a non-positive diagonal entry")
    minv = 1.0 / d
    r = b.copy()
    z = minv * r
    p = z.copy()
    limit, it = 50 * n, 0
    # overflow makes inf or NaN scalars, and NaN > rtol is False: test each one
    with np.errstate(over="ignore", invalid="ignore"):
        rz, bz = float(r @ z), float(b @ (minv * b))
        while bz != 0.0:  # b = 0: x = 0
            res = _finite(math.sqrt(rz / bz), it)
            if res <= rtol:
                break
            if it >= limit:
                raise SolverFailure(
                    f"CG did not converge in {limit} iterations (residual {res:.3e})")
            Ap = A @ p
            alpha = rz / _finite(float(p @ Ap), it)
            xf += alpha * p
            r -= alpha * Ap
            z = minv * r
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
            it += 1
    if free is None:
        return xf
    x = np.zeros(len(free))
    x[free] = xf
    return x


def _finite(value: float, it: int) -> float:
    if not math.isfinite(value):
        raise SolverFailure(f"CG scalar not finite at iteration {it}; the system overflows")
    return value


# ---------------------------------------------------------------------------
# the Ritz kernel and the best errors built on it


def ritz(tables: ElementTables, a, beta: float = 0.0):
    """Global best approximation of the tables' target, by CG.

    Minimizes sum_K a_K ||grad(u - V)||^2_K + beta ||u - V||^2 over the
    whole continuous space, with V = 0 at the space's Dirichlet nodes.  On a
    space with none and beta = 0 the lowest-id node is pinned.

    Returns (error_sq, x): the energy of u - V and the coefficients of V.
    """
    return ritz_each([tables], a, beta)[0]


def ritz_each(tables: list, a, beta: float = 0.0) -> list:
    """`ritz` of each of `tables`, the tables of several targets in one
    space: the operator is assembled and restricted to the free nodes once,
    and each target takes one CG solve with it.  Returns a list of
    (error_sq, x).  Raises ValueError for tables of different spaces.
    """
    if not tables:
        return []
    w, first = np.asarray(a, dtype=float), tables[0]
    if any(t.space is not first.space for t in tables):
        raise ValueError("ritz_each needs the tables of one space")
    en, m = first.space.element_nodes, first.space.n_nodes
    free = ~first.space.dirichlet
    if free.all() and beta == 0.0:
        free[0] = False
    K = _element_matrices(first, w, beta, slice(None))
    # element order, row-major within each element matrix
    rows = np.repeat(en, en.shape[1], axis=1).ravel()
    cols = np.tile(en, (1, en.shape[1])).ravel()
    A = sp.coo_matrix((K.ravel(), (rows, cols)), shape=(m, m)).tocsr()[free][:, free].tocsr()
    out = []
    for t in tables:
        f = _element_loads(t, w, beta, slice(None))
        b = np.bincount(en.ravel(), weights=f.ravel(), minlength=m)
        x = np.zeros(m)
        x[free] = solve_spd(SpdSystem(matrix=A, rhs=b[free]))
        # the energy of the computed approximant: an error in x enters only to second order
        out.append((float(_error(t, w, beta, slice(None), x[en]).sum()), x))
    return out


def _element_matrices(tables: ElementTables, a, beta: float, elems):
    """a_K S_K + beta M_K of the elements `elems` (a slice or an int array of
    any shape)."""
    return a[elems][..., None, None] * tables.stiffness[elems] + beta * tables.mass[elems]


def _element_loads(tables: ElementTables, a, beta: float, elems):
    """The load vectors of `_element_matrices`, of the tables' target."""
    return a[elems][..., None] * tables.grad_moments[elems] + beta * tables.value_moments[elems]


def _error(tables: ElementTables, a, beta: float, elems, v):
    """a_K ||grad(u - V)||^2_K + beta ||u - V||^2_K on each of the elements
    `elems` (a slice or an int array of any shape), V given by its local node
    values v (elems' shape + (nloc,)): a_K (e_K + d^T S_K d) with d = v - pi_K
    less its mean (S_K 1 is zero only to rounding), plus beta (e0_K + d0^T M_K
    d0) with d0 = v - pi0_K."""
    d = v - tables.grad_fits[elems]
    d -= d.mean(axis=-1, keepdims=True)
    err = a[elems] * (tables.grad_residual[elems]
                      + np.einsum("...i,...ij,...j->...", d, tables.stiffness[elems], d))
    if beta:
        d = v - tables.value_fits[elems]
        err += beta * (tables.value_residual[elems]
                       + np.einsum("...i,...ij,...j->...", d, tables.mass[elems], d))
    return err


def local_ritz(tables: ElementTables, a, regions, beta: float = 0.0):
    """Best approximation of the tables' target on each region by itself.

    `regions` holds distinct element ids per region, as CSR (`qmloc.mesh`).
    Each minimizes the energy of `ritz` on its elements, with V = 0 at the
    space's Dirichlet nodes and the lowest-id node pinned as there.  Regions
    of equal element and node count share one scatter and one batched dense
    solve, fixed nodes as identity rows.  Returns the (P,) errors and V at
    the local nodes of each region's elements (P, E, nloc), zero-padded to
    the largest region.  Raises SolverFailure naming a singular region.
    """
    a = np.asarray(a, dtype=float)
    en_all, n = tables.space.element_nodes, tables.space.n_nodes
    sizes = np.diff(regions[0])
    x = np.zeros((len(sizes), sizes.max(initial=0), en_all.shape[1]))
    for ids, elems in _region_groups(regions):
        E = elems.shape[1]
        en = en_all[elems].reshape(len(ids), -1)
        s = np.sort(en, axis=1)
        new = np.diff(s, axis=1, prepend=-1) != 0  # first of each node id
        counts = new.sum(axis=1)
        for m in np.unique(counts):
            sub, P = counts == m, ids[counts == m]
            G = len(P)
            nodes = s[sub][new[sub]].reshape(G, m)  # ascending per region
            # index into the stacked (G * m) nodes: search each region's own
            off = np.arange(G)[:, None] * n
            loc = np.searchsorted((nodes + off).ravel(), (en[sub] + off).ravel()).reshape(G, E, -1)
            K = _element_matrices(tables, a, beta, elems[sub])
            f = _element_loads(tables, a, beta, elems[sub])
            flat = loc[..., :, None] * m + loc[..., None, :] % m
            A = np.bincount(flat.ravel(), K.ravel(), G * m * m).reshape(G, m, m)
            b = np.bincount(loc.ravel(), f.ravel(), G * m).reshape(G, m)
            free = ~tables.space.dirichlet[nodes]
            if beta == 0.0:
                free[free.all(axis=1), 0] = False
            A *= free[:, :, None] & free[:, None, :]
            A[:, np.arange(m), np.arange(m)] += ~free
            try:
                x[P, :E] = np.linalg.solve(A, (free * b)[..., None]).ravel()[loc]
            except np.linalg.LinAlgError:  # singular: slogdet sign 0 (det may underflow)
                bad = elems[sub][np.argmin(np.abs(np.linalg.slogdet(A)[0]))].tolist()
                raise SolverFailure(f"singular local system on elements {bad}") from None
    return _region_errors(tables, a, regions, x, beta), x


def _region_errors(tables: ElementTables, a, regions, v, beta: float = 0.0):
    """The (P,) energies of `ritz` on each of the CSR `regions` of V given
    by its local node values v, in the (P, E, nloc) layout of `local_ritz`."""
    err = np.zeros(len(regions[0]) - 1)
    for ids, elems in _region_groups(regions):
        err[ids] = _error(tables, a, beta, elems, v[ids, :elems.shape[1]]).sum(axis=-1)
    return err


def local_element_errors(tables: ElementTables, coeff: Coefficient) -> np.ndarray:
    """a_K * min over P_degree(K) of ||grad(u - P)||^2_K for every element K,
    the residual energy of the element fit; returns an (nt,) array."""
    return coeff.values * tables.grad_residual


# ---------------------------------------------------------------------------
# report container


@dataclass
class LocalizationReport:
    """Global vs. localized squared errors for one sweep point.  Reports of
    one sweep may share a locus list; `qmloc.harness.render_report` formats
    each distinct list once."""

    global_error_sq: float
    loci: dict = field(default_factory=dict)  # kind -> list of (locus-id, error_sq)
    metadata: dict = field(default_factory=dict)

    def locus_sum(self, kind: str) -> float:
        return float(sum(err for _, err in self.loci.get(kind, ())))

    def ratio(self, kind: str) -> float:
        s = self.locus_sum(kind)
        return self.global_error_sq / s if s > 0 else float("inf")
