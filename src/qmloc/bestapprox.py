"""Best-approximation errors: one table of element matrices and target
moments, one Ritz kernel over any element set, and the SPD solver.

All error values are squared energies.  Pure-seminorm problems are gauged by
pinning one node; the reported error is invariant under that choice.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .coeff import Coefficient
from .errors import SolverFailure
from .fespace import LagrangeSpace, eval_basis, reference_basis
from .quadrature import QuadraturePlan, reference_triangle_rule


# ---------------------------------------------------------------------------
# element tables


@dataclass(frozen=True)
class ElementTables:
    """Per-element matrices of a space and moments of one target.

    stiffness, mass: (nt, nloc, nloc) unweighted element matrices in the
    local lattice order of ``space.element_nodes``.  grad_moments (nt, nloc):
    int_K grad u . grad phi_i; grad_sq (nt,): int_K |grad u|^2;
    value_moments (nt, nloc): int_K u phi_i; value_sq (nt,): int_K u^2.
    """

    space: LagrangeSpace
    stiffness: np.ndarray
    mass: np.ndarray
    grad_moments: np.ndarray
    grad_sq: np.ndarray
    value_moments: np.ndarray
    value_sq: np.ndarray


def element_tables(target, plan: QuadraturePlan, space: LagrangeSpace) -> ElementTables:
    """Element matrices from the reference basis and each affine map, and
    the target's moments from one pass over the plan's nodes."""
    tri = space.tri
    pts_ref, w_ref = reference_triangle_rule(2 * space.degree + 2)
    vals, gref = reference_basis(space.degree, pts_ref)
    v = tri.vertices[tri.triangles]
    B = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)  # columns
    det = np.abs(np.linalg.det(B))
    Binv = np.linalg.inv(B)
    # grad phi = gref @ Binv, so S_K = |det B_K| sum_ab (Binv Binv^T)_ab R_ab
    R = np.einsum("q,qia,qjb->abij", w_ref, gref, gref)
    G = det[:, None, None] * (Binv @ Binv.transpose(0, 2, 1))
    stiffness = np.einsum("kab,abij->kij", G, R)
    mass = det[:, None, None] * ((vals.T * w_ref) @ vals)

    nt, nloc = space.element_nodes.shape
    grad_moments, value_moments = np.empty((nt, nloc)), np.empty((nt, nloc))
    grad_sq, value_sq = np.empty(nt), np.empty(nt)
    for k in range(nt):
        pts, wts = plan.element_rule(k)
        phi, dphi = eval_basis(space, k, pts)
        gu = target.gradient(pts)
        u = target.value(pts)
        grad_moments[k] = np.einsum("q,qd,qid->i", wts, gu, dphi)
        grad_sq[k] = float(wts @ np.einsum("qd,qd->q", gu, gu))
        value_moments[k] = (wts * u) @ phi
        value_sq[k] = float(wts @ (u * u))
    return ElementTables(space=space, stiffness=stiffness, mass=mass,
                         grad_moments=grad_moments, grad_sq=grad_sq,
                         value_moments=value_moments, value_sq=value_sq)


def energy_norm_sq(target, coeff: Coefficient, plan: QuadraturePlan, region=None) -> float:
    """||a^(1/2) grad u||^2 over a region (default: all elements)."""
    region = range(coeff.tri.n_elements) if region is None else sorted(region)
    total = 0.0
    for k in region:
        pts, wts = plan.element_rule(k)
        gu = target.gradient(pts)
        total += coeff.values[k] * float(wts @ np.einsum("qd,qd->q", gu, gu))
    return total


def l2_norm_sq(target, plan: QuadraturePlan, region=None) -> float:
    region = range(plan.tri.n_elements) if region is None else sorted(region)
    total = 0.0
    for k in region:
        pts, wts = plan.element_rule(k)
        u = target.value(pts)
        total += float(wts @ (u * u))
    return total


# ---------------------------------------------------------------------------
# SPD solver


@dataclass
class SpdSystem:
    """Sparse SPD system; ``fixed`` marks the nodes held at zero (the gauge
    of pure-seminorm problems, or a Dirichlet mask), None when definite."""

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
    Returns the full coefficient vector (constrained entries zero).
    """
    free = system.free_mask()
    A = system.matrix[free][:, free].tocsr()
    b = system.rhs[free]
    n = A.shape[0]
    x = np.zeros(system.matrix.shape[0])
    if n == 0:
        return x
    d = A.diagonal()
    if np.any(d <= 0):
        raise SolverFailure("gauged system has a non-positive diagonal entry")
    minv = 1.0 / d
    xf = np.zeros(n)
    r = b.copy()
    z = minv * r
    p = z.copy()
    rz = float(r @ z)
    bz = float(b @ (minv * b))
    if bz > 0:
        limit = 50 * n
        it = 0
        while np.sqrt(rz / bz) > rtol:
            if it >= limit:
                raise SolverFailure(
                    f"CG did not converge in {limit} iterations "
                    f"(residual {np.sqrt(rz / bz):.3e})"
                )
            Ap = A @ p
            alpha = rz / float(p @ Ap)
            xf += alpha * p
            r -= alpha * Ap
            z = minv * r
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
            it += 1
    x[free] = xf
    return x


# ---------------------------------------------------------------------------
# the Ritz kernel and the best errors built on it


def ritz(tables: ElementTables, a, beta: float = 0.0, region=None, fixed=None):
    """Best approximation of the tables' target in the restricted space.

    Minimizes sum_K a_K ||grad(u - V)||^2_K + beta ||u - V||^2 over the
    continuous space restricted to the elements of `region` (default: the
    whole mesh), with V = 0 at the nodes of the bool mask `fixed`.  With no
    node fixed and beta = 0 the lowest-id node is pinned.  The whole mesh is
    solved by CG, a proper region by one dense solve.

    Returns (error_sq, nodes, x): the energy of u - V, the region's global
    node ids in ascending order, and the coefficients of V on them.
    """
    space = tables.space
    whole = region is None
    elems = (np.arange(space.tri.n_elements) if whole
             else np.unique(np.asarray(region, dtype=np.int64)))
    w = np.asarray(a, dtype=float)[elems]
    en = space.element_nodes[elems]
    if whole:
        nodes, loc = np.arange(space.n_nodes), en
    else:
        nodes, inv = np.unique(en, return_inverse=True)
        loc = inv.reshape(en.shape)
    m, nloc = len(nodes), en.shape[1]
    K = w[:, None, None] * tables.stiffness[elems] + beta * tables.mass[elems]
    f = w[:, None] * tables.grad_moments[elems] + beta * tables.value_moments[elems]
    uu = float(w @ tables.grad_sq[elems]) + beta * float(tables.value_sq[elems].sum())
    b = np.bincount(loc.ravel(), weights=f.ravel(), minlength=m)
    free = np.ones(m, dtype=bool) if fixed is None else ~np.asarray(fixed, dtype=bool)[nodes]
    if free.all() and beta == 0.0:
        free[0] = False
    # element order, row-major within each element matrix
    rows = np.repeat(loc, nloc, axis=1).ravel()
    cols = np.tile(loc, (1, nloc)).ravel()
    if whole:
        A = sp.coo_matrix((K.ravel(), (rows, cols)), shape=(m, m)).tocsr()
        x = solve_spd(SpdSystem(matrix=A, rhs=b, fixed=~free))
    else:
        A = np.bincount(rows * m + cols, weights=K.ravel(), minlength=m * m).reshape(m, m)
        x = np.zeros(m)
        try:
            x[free] = np.linalg.solve(A[np.ix_(free, free)], b[free])
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"singular local system on elements {elems.tolist()}") from exc
    # the energy of the computed approximant: an error in x enters only to second order
    err = uu - 2.0 * float(b @ x) + float(x @ (A @ x))
    return max(err, 0.0), nodes, x


def local_element_error(tables: ElementTables, coeff: Coefficient, k: int) -> float:
    """a_K * min over P_degree(K) of ||grad(u - P)||^2_K."""
    return ritz(tables, coeff.values, region=[k])[0]


def global_best_error(tables: ElementTables, coeff: Coefficient, gauge: str):
    """Global Ritz projection; returns (error_sq, coefficient vector).

    gauge='dirichlet' holds the space's Dirichlet nodes at zero; 'meanzero'
    minimizes the pure seminorm over all of S and shifts the constant so the
    projection matches the mean of u.
    """
    space = tables.space
    if gauge == "dirichlet":
        if not space.dirichlet.any():
            raise ValueError("dirichlet gauge requested but the space has no Dirichlet mask")
        err, _, x = ritz(tables, coeff.values, fixed=space.dirichlet)
        return err, x
    if gauge != "meanzero":
        raise ValueError(f"unknown gauge {gauge!r}")
    err, _, x = ritz(tables, coeff.values)
    vol = float(space.tri.areas.sum())
    mean_u = float(tables.value_moments.sum()) / vol
    mean_v = float(np.sum(x[space.element_nodes] * tables.mass.sum(axis=2))) / vol
    return err, x + (mean_u - mean_v)


def reaction_diffusion_errors(tables: ElementTables, coeff: Coefficient, betas):
    """Combined-norm global best errors, one per beta, and their localized
    companions.

    Returns a dict with the combined errors (aligned with `betas`), the
    gradient and L2 global squared errors, the per-element gradient locals
    and the per-interior-edge L2 pair locals.
    """
    betas = [float(beta) for beta in betas]
    if any(beta < 0 for beta in betas):
        raise ValueError("beta must be >= 0")
    tri = tables.space.tri
    zero = np.zeros(tri.n_elements)
    return {
        "combined_global_sq": [ritz(tables, coeff.values, beta)[0] for beta in betas],
        "gradient_global_sq": ritz(tables, coeff.values)[0],
        "l2_global_sq": ritz(tables, zero, 1.0)[0],
        "element_gradient_locals": [
            local_element_error(tables, coeff, k) for k in range(tri.n_elements)
        ],
        "pair_l2_locals": [
            ritz(tables, zero, 1.0, region=tri.edge_elements[e])[0]
            for e in tri.interior_edges()
        ],
    }


# ---------------------------------------------------------------------------
# report container


@dataclass
class LocalizationReport:
    """Global vs. localized squared errors for one sweep point."""

    global_error_sq: float
    loci: dict = field(default_factory=dict)  # kind -> list of (locus-id, error_sq)
    metadata: dict = field(default_factory=dict)

    def locus_sum(self, kind: str) -> float:
        return float(sum(err for _, err in self.loci.get(kind, ())))

    def ratio(self, kind: str) -> float:
        s = self.locus_sum(kind)
        return self.global_error_sq / s if s > 0 else float("inf")

    def to_json_dict(self):
        return {
            "global_error_sq": self.global_error_sq,
            "loci": {
                kind: [{"id": int(i), "error_sq": float(e)} for i, e in entries]
                for kind, entries in self.loci.items()
            },
            "sums": {kind: self.locus_sum(kind) for kind in self.loci},
            "ratios": {kind: self.ratio(kind) for kind in self.loci},
            "metadata": self.metadata,
        }
