"""Best-approximation errors: one table of element matrices, target
moments, norms and element fits, the global Ritz solve (a level-set block
factor at degree 1, Jacobi-CG above), and one
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
import os
from dataclasses import dataclass, field

import numpy as np

from .coeff import Coefficient
from .errors import ParameterOutOfRange, SolverFailure
from .fespace import LagrangeSpace, reference_basis
from .mesh import _region_groups, _sorted_distinct, element_affine
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


class SparseMatrix:
    """A sparse matrix from (row, col, value) entries, duplicates summed in
    the order given.

    The rows are stored padded to three widths, the median, 90th-percentile
    and largest row length: the rows of each width slot by slot as (width,
    rows) arrays of columns and values, column -1 and value 0 in the padding.
    The product ``m @ p`` sums each row left to right in column order, as
    `scipy.sparse`'s CSR product sums it, so on the same entries the two
    agree bit for bit.  ``m[mask]`` and ``m[:, mask]`` are the matrices of
    the entries in the rows or columns a boolean mask keeps, renumbered.
    The constructor raises ValueError for a `shape` that is not two
    non-negative integers, and for entries that are not 1-D arrays of equal
    length or that lie outside `shape`; ``m @ p`` for a `p` that is not of
    shape (ncols,).
    """

    def __init__(self, rows, cols, values, shape):
        dims = tuple(shape) if isinstance(shape, (tuple, list)) else ()
        if len(dims) != 2 or not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                                     and n >= 0 for n in dims):
            raise ValueError(f"SparseMatrix shape {shape!r} is not two non-negative integers")
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        values = np.asarray(values)
        if not (rows.ndim == cols.ndim == values.ndim == 1
                and len(rows) == len(cols) == len(values)):
            raise ValueError("SparseMatrix rows, cols and values must be 1-D arrays of "
                             f"equal length, got shapes {rows.shape}, {cols.shape}, "
                             f"{values.shape}")
        for axis, ids, n in (("row", rows, int(shape[0])), ("column", cols, int(shape[1]))):
            outside = ids[(ids < 0) | (ids >= n)]
            if len(outside):
                raise ValueError(f"SparseMatrix {axis} {outside[0]} lies outside [0, {n})")
        self._set(*_summed(rows * max(int(shape[1]), 1) + cols, values), shape)

    @classmethod
    def _of(cls, keys, values, shape):
        """The matrix of distinct entries sorted by key row * max(ncols, 1) + col."""
        m = cls.__new__(cls)
        m._set(keys, values, shape)
        return m

    def _set(self, keys, values, shape):
        self.shape = (int(shape[0]), int(shape[1]))
        nr, nc = self.shape[0], max(self.shape[1], 1)
        cols = keys // nc  # the rows, then the columns in their memory
        lengths = np.bincount(cols, minlength=nr)
        cols *= nc
        np.subtract(keys, cols, out=cols)
        # row r is entries offsets[r]:offsets[r + 1]; row -1, offsets[-1]:offsets[0], none
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        s = np.sort(lengths) if nr else np.zeros(1, dtype=np.intp)
        widths = sorted({int(s[len(s) // 2]), int(s[9 * len(s) // 10]), int(s[-1])})
        kind = np.searchsorted(widths, lengths)  # every width is some row's length
        self._blocks = []
        for j, w in enumerate(widths):
            R = np.flatnonzero(kind == j)
            if len(R) < 2:  # numpy sums a (w, 1) array pairwise, not slot by slot
                R = np.append(R, [-1] * (2 - len(R)))
            at = offsets[R] + np.arange(w)[:, None]  # slot k of row r: entry offsets[r] + k
            pad = at >= offsets[R + 1]
            at[pad] = 0
            C, V = cols[at], values[at].astype(float, copy=False)  # bincount([]) is int64
            C[pad], V[pad] = -1, 0.0
            self._blocks.append((R, C, V))
        # each row's place in the blocks' sums, None when that is its row
        order = np.concatenate([R for R, _, _ in self._blocks])
        where = np.empty(nr, dtype=np.intp)
        where[order[order >= 0]] = np.flatnonzero(order >= 0)
        self._where = None if np.array_equal(order, np.arange(nr)) else where

    def diagonal(self) -> np.ndarray:
        """The diagonal entries, zero where none is stored."""
        return self._in_row_order(
            [np.where(C == R, V, 0.0).sum(axis=0) for R, C, V in self._blocks])[:min(self.shape)]

    def __matmul__(self, p):
        if np.shape(p) != self.shape[1:]:
            raise ValueError(f"SparseMatrix of shape {self.shape} cannot multiply an operand "
                             f"of shape {np.shape(p)}")
        if not self.shape[1]:
            return np.zeros(self.shape[0])
        sums = []
        for _, C, V in self._blocks:
            g = p.take(C)
            g *= V
            sums.append(np.add.reduce(g, axis=0))
        return self._in_row_order(sums)

    def _in_row_order(self, sums):
        """The rows' entries of the per-block sums."""
        y = np.concatenate(sums) if len(sums) > 1 else sums[0]
        return y if self._where is None else y.take(self._where)

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        if len(key) > 2:
            raise ValueError(f"a SparseMatrix takes at most 2 indices, not {len(key)}")
        masks = [_axis_mask(k, n) for k, n in zip(key + (slice(None),), self.shape)]
        rows, cols, values = self.entries()
        rows, cols = _renumbered(masks[0])[rows], _renumbered(masks[1])[cols]
        kept = (rows >= 0) & (cols >= 0)
        shape = tuple(int(np.count_nonzero(m)) for m in masks)
        return SparseMatrix._of(rows[kept] * max(shape[1], 1) + cols[kept], values[kept], shape)

    def entries(self):
        """The stored (rows, cols, values), sorted by row and column."""
        rows = np.concatenate([np.broadcast_to(R, C.shape).ravel() for R, C, _ in self._blocks])
        cols = np.concatenate([C.ravel() for _, C, _ in self._blocks])
        values = np.concatenate([V.ravel() for _, _, V in self._blocks])
        real = (rows >= 0) & (cols >= 0)
        rows, cols, values = rows[real], cols[real], values[real]
        order = np.lexsort((cols, rows))
        return rows[order], cols[order], values[order]


def _summed(keys, values):
    """The distinct `keys`, sorted, and the sum of the `values` of each, in
    the order given.  Pass arrays the call may free: it keeps no copy."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    values = values[order]
    del order
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    group = np.cumsum(first)
    group -= 1
    return keys[first], np.bincount(group, values)


def _axis_mask(index, n: int) -> np.ndarray:
    """The boolean mask of an axis of length n that `index` selects: ':' or a
    boolean mask of length n; raises ValueError for any other index."""
    if isinstance(index, slice) and index == slice(None):
        return np.ones(n, dtype=bool)
    mask = np.asarray(index)
    if mask.dtype != bool or mask.shape != (n,):
        raise ValueError(f"a SparseMatrix index is ':' or a boolean mask of length {n}")
    return mask


def _renumbered(mask) -> np.ndarray:
    """The new index of each entry a boolean mask keeps, -1 for the others."""
    return np.where(mask, np.cumsum(mask) - 1, -1)


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class LevelFactor:
    """Block Cholesky factor of an SPD matrix whose graph is block
    tridiagonal over node levels (`LagrangeSpace.node_levels` restricted to
    the unknowns), for a direct solve: A = L L^T with L block lower
    bidiagonal, the diagonal blocks G_i the Cholesky factors of
    S_i = D_i - H_i H_i^T and the coupling blocks H_i = C_i G_(i-1)^-T, with
    D_i and C_i the blocks of A within level i and between levels i and
    i - 1 (George and Liu, 1981).  Emptied levels are dropped: the levels on
    either side of one do not couple.  Only the lower triangle is read.

    Raises ParameterOutOfRange, before any block is allocated, when the
    factor's blocks need more than the machine's physical memory;
    SolverFailure for a pivot block that is not finite or not positive
    definite; ValueError for entries between levels that are not adjacent.
    """

    def __init__(self, matrix: SparseMatrix, levels):
        levels = np.asarray(levels)
        distinct = _sorted_distinct(levels)
        level = np.searchsorted(distinct, levels)
        widths = np.bincount(level, minlength=len(distinct))
        pairs = widths[1:] * widths[:-1]
        need, have = 8 * (int(widths @ widths) + int(pairs.sum())), _physical_memory()
        if need > have:
            raise ParameterOutOfRange(
                f"a level factor of {len(level)} unknowns, {len(widths)} levels up to "
                f"{widths.max()} wide, needs about {need / 2**30:.3g} GiB of "
                f"{have / 2**30:.3g} GiB of memory")
        self._order = np.argsort(level, kind="stable")
        ends = np.cumsum(widths)
        rank = np.empty(len(level), dtype=np.intp)
        rank[self._order] = np.arange(len(level)) - np.repeat(ends - widths, widths)
        # every block of the lower triangle in one flat buffer, by level pair;
        # each becomes its block of the factor in place
        rows, cols, values = matrix.entries()
        if np.any(np.abs(levels[rows] - levels[cols]) > 1):
            raise ValueError("the matrix couples levels that are not adjacent")
        i, j = level[rows], level[cols]
        size = np.concatenate([[0], widths * widths, pairs])
        start = np.cumsum(size)[:-1]
        lower = i >= j
        i, j, rows, cols = i[lower], j[lower], rows[lower], cols[lower]
        blocks = np.zeros(int(size.sum()))
        blocks[start[np.where(i > j, i - 1 + len(widths), i)] + rank[rows] * widths[j]
               + rank[cols]] = values[lower]
        self._slices = [slice(e - w, e) for e, w in zip(ends, widths)]
        self._ginv, self._h = [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for k, w in enumerate(widths):
                S = blocks[start[k]:start[k] + w * w].reshape(w, w)
                if k:
                    at = start[k - 1 + len(widths)]
                    H = blocks[at:at + w * widths[k - 1]].reshape(w, -1)
                    H[...] = H @ self._ginv[-1].T
                    S -= H @ H.T
                    self._h.append(H)
                if not np.isfinite(S).all():
                    raise SolverFailure(f"pivot block {k} of the level factor not finite; "
                                        "the system overflows")
                try:
                    S[...] = np.linalg.inv(np.linalg.cholesky(S))
                except np.linalg.LinAlgError:
                    raise SolverFailure(f"pivot block {k} of the level factor is not "
                                        "positive definite") from None
                self._ginv.append(S)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b, by one forward and one backward sweep over the
        levels; raises SolverFailure for a solution that is not finite."""
        b, y = b[self._order], []
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (s, g) in enumerate(zip(self._slices, self._ginv)):
                y.append(g @ (b[s] - self._h[k - 1] @ y[-1] if k else b[s]))
            for k in range(len(y) - 1, -1, -1):
                r = y[k] - self._h[k].T @ y[k + 1] if k + 1 < len(y) else y[k]
                y[k] = self._ginv[k].T @ r
        x = np.empty(len(b))
        x[self._order] = np.concatenate([x[:0]] + y)
        if not np.isfinite(x).all():
            raise SolverFailure("level factor solution not finite; the system overflows")
        return x


@dataclass
class SpdSystem:
    """Sparse SPD system, definite as given.  ``matrix`` supports ``@`` with a
    vector, ``diagonal()`` and ``shape``, as `SparseMatrix` does; ``factor``,
    if given, is a `LevelFactor` of it."""

    matrix: SparseMatrix
    rhs: np.ndarray
    factor: LevelFactor | None = None

    def free_mask(self) -> np.ndarray:
        """All True: every unknown is free (`perfbench/tracing.py` reads it)."""
        return np.ones(self.matrix.shape[0], dtype=bool)


def solve_spd(system: SpdSystem, rtol: float = 1e-12) -> np.ndarray:
    """The solution of the system as given: by its factor when it has one
    (rtol does not apply), else by Jacobi-preconditioned CG, converged when
    the preconditioned relative residual drops below rtol.
    """
    if system.factor is not None:
        return system.factor.solve(system.rhs)
    A, b = system.matrix, system.rhs
    n = A.shape[0]
    x = np.zeros(n)
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
            x += alpha * p
            r -= alpha * Ap
            z = minv * r
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
            it += 1
    return x


def _finite(value: float, it: int) -> float:
    if not math.isfinite(value):
        raise SolverFailure(f"CG scalar not finite at iteration {it}; the system overflows")
    return value


# ---------------------------------------------------------------------------
# the Ritz kernel and the best errors built on it


def ritz(tables: ElementTables, a, beta: float = 0.0):
    """Global best approximation of the tables' target.

    Minimizes sum_K a_K ||grad(u - V)||^2_K + beta ||u - V||^2 over the
    whole continuous space, with V = 0 at the space's Dirichlet nodes.  On a
    space with none and beta = 0 the lowest-id node is pinned.

    Returns (error_sq, x): the energy of u - V and the coefficients of V.
    """
    return ritz_each([tables], a, beta)[0]


def ritz_each(tables: list, a, beta: float = 0.0) -> list:
    """`ritz` of each of `tables`, the tables of several targets in one
    space: the operator is assembled and restricted to the free nodes once,
    at degree 1 factored once (`LevelFactor`), and each target takes one
    solve with it, by the factor or by CG above degree 1.  Returns a list of
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
    A = _free_operator(first, w, beta, free)
    factor = LevelFactor(A, first.space.node_levels[free]) if first.space.degree == 1 else None
    out = []
    for t in tables:
        f = _element_loads(t, w, beta, slice(None))
        b = np.bincount(en.ravel(), weights=f.ravel(), minlength=m)
        x = np.zeros(m)
        x[free] = solve_spd(SpdSystem(matrix=A, rhs=b[free], factor=factor))
        # the energy of the computed approximant: an error in x enters only to second order
        out.append((float(_error(t, w, beta, slice(None), x[en]).sum()), x))
    return out


def _free_operator(tables: ElementTables, a, beta: float, free) -> SparseMatrix:
    """The operator of `_element_matrices` restricted to the `free` nodes,
    renumbered: the entries of other rows and columns are dropped before
    assembly."""
    node = _renumbered(free)[tables.space.element_nodes]
    n = int(np.count_nonzero(free))
    nc = max(n, 1)
    # element order, row-major within each element matrix
    keep = ((node[:, :, None] >= 0) & (node[:, None, :] >= 0)).ravel()
    return SparseMatrix._of(*_summed((node[:, :, None] * nc + node[:, None, :]).ravel()[keep],
                                     _element_matrices(tables, a, beta, slice(None)).ravel()[keep]),
                            (n, n))


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
        for m in _sorted_distinct(counts):
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
