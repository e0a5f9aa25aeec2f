"""Best-approximation errors: one table of element matrices, target
moments, norms and element fits, the global Ritz solve (a level-set block
factor at degree 1, Jacobi-CG above) of several operators and targets at
once, and one batched local Ritz kernel (`local_ritz_each`) for every
element, pair and star and every target.

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
from functools import cached_property

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

    The geometry is read once: |det B_K| is twice the element area, and
    B_K^-1 the adjugate over the signed determinant.  The gradient moments
    int_K grad u . grad phi_i are summed as the einsum "kq,kqd,kqid->ki"
    sums them, bit for bit: at each node the two-term dot of w grad u with
    grad phi_i, then the nodes in order.  They are written as two broadcast
    products and one einsum over the nodes, which adds them in order as
    `sum` does and runs several times faster on a (K, n, nloc) block.
    """
    pts_ref, w_ref = reference_triangle_rule(2 * space.degree + 2)
    vals, gref = reference_basis(space.degree, pts_ref)
    B = element_affine(space.tri)[1]
    det = 2.0 * space.tri.areas  # |det B_K|, as `build_triangulation` forms it
    signed = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
    Binv = (np.stack([B[:, 1, 1], -B[:, 0, 1], -B[:, 1, 0], B[:, 0, 0]], axis=1)
            / signed[:, None]).reshape(-1, 2, 2)  # the adjugate over the determinant
    # grad phi = gref @ Binv, so S_K = |det B_K| sum_ab (Binv Binv^T)_ab R_ab
    nloc = vals.shape[1]
    R = np.einsum("q,qia,qjb->abij", w_ref, gref, gref).reshape(4, nloc * nloc)
    G = det[:, None, None] * (Binv @ Binv.transpose(0, 2, 1))
    stiffness = (G.reshape(-1, 4) @ R).reshape(-1, nloc, nloc)
    mass_ref = (vals.T * w_ref) @ vals
    mass = det[:, None, None] * mass_ref
    # S_K + (tr S_K / nloc^2) 1 1^T is definite, about as well conditioned as
    # S_K off its kernel, and maps load vectors that sum to zero to fits whose
    # node values do
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
            wg = wts[..., None] * gu
            m = wg[:, :, None, 0] * dphi[..., 0]
            m += wg[:, :, None, 1] * dphi[..., 1]
            m = np.einsum("kqi->ki", m)
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

    It stores its distinct entries as their sorted keys row * max(ncols, 1)
    + col and the values of those keys: ``entries()``, ``m[mask]``,
    ``m[:, mask]`` and `LevelFactor` read them from there.  The product ``m
    @ p`` and ``diagonal()`` run on a padded layout of the rows built on the
    first call of either (`_padded_rows`); ``m @ p`` sums each row left to
    right in column order, as `scipy.sparse`'s CSR product sums it, so on the
    same entries the two agree bit for bit.  ``m[mask]`` and ``m[:, mask]``
    are the matrices of the entries in the rows or columns a boolean mask
    keeps, renumbered.  The constructor raises ValueError for a `shape` that
    is not two non-negative integers, and for entries that are not 1-D
    arrays of equal length or that lie outside `shape`; ``m @ p`` for a `p`
    that is not of shape (ncols,).
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
        self._keys, self._values = keys, values.astype(float, copy=False)  # bincount([]) is int64

    @cached_property
    def _layout(self):
        """The padded blocks and each row's place in their sums (`_padded_rows`)."""
        return _padded_rows(self._keys, self._values, self.shape)

    def diagonal(self) -> np.ndarray:
        """The diagonal entries, zero where none is stored."""
        blocks, where = self._layout
        return _in_row_order([np.where(C == R, V, 0.0).sum(axis=0) for R, C, V in blocks],
                             where)[:min(self.shape)]

    def __matmul__(self, p):
        if np.shape(p) != self.shape[1:]:
            raise ValueError(f"SparseMatrix of shape {self.shape} cannot multiply an operand "
                             f"of shape {np.shape(p)}")
        if not self.shape[1]:
            return np.zeros(self.shape[0])
        blocks, where = self._layout
        sums = []
        for _, C, V in blocks:
            g = p.take(C)
            g *= V
            sums.append(np.add.reduce(g, axis=0))
        return _in_row_order(sums, where)

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
        nc = max(self.shape[1], 1)
        rows = self._keys // nc
        return rows, self._keys - rows * nc, self._values.copy()

    def _same_pattern(self, other) -> bool:
        """Whether `other` stores its entries at the same rows and columns."""
        return self.shape == other.shape and np.array_equal(self._keys, other._keys)


def _padded_rows(keys, values, shape):
    """The layout of ``SparseMatrix @ p`` of the entries of sorted `keys`:
    the rows padded to three widths, the median, 90th-percentile and largest
    row length, the rows of each width slot by slot as (rows R, (width,
    rows) columns C, values V), column -1 and value 0 in the padding; and
    each row's place in the blocks' sums, None when that is its row."""
    nr, nc = shape[0], max(shape[1], 1)
    cols = keys // nc  # the rows, then the columns in their memory
    lengths = np.bincount(cols, minlength=nr)
    cols *= nc
    np.subtract(keys, cols, out=cols)
    # row r is entries offsets[r]:offsets[r + 1]; row -1, offsets[-1]:offsets[0], none
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    s = np.sort(lengths) if nr else np.zeros(1, dtype=np.intp)
    widths = sorted({int(s[len(s) // 2]), int(s[9 * len(s) // 10]), int(s[-1])})
    kind = np.searchsorted(widths, lengths)  # every width is some row's length
    blocks = []
    for j, w in enumerate(widths):
        R = np.flatnonzero(kind == j)
        if len(R) < 2:  # numpy sums a (w, 1) array pairwise, not slot by slot
            R = np.append(R, [-1] * (2 - len(R)))
        at = offsets[R] + np.arange(w)[:, None]  # slot k of row r: entry offsets[r] + k
        pad = at >= offsets[R + 1]
        at[pad] = 0
        C, V = cols[at], values[at]
        C[pad], V[pad] = -1, 0.0
        blocks.append((R, C, V))
    order = np.concatenate([R for R, _, _ in blocks])
    where = np.empty(nr, dtype=np.intp)
    where[order[order >= 0]] = np.flatnonzero(order >= 0)
    return blocks, None if np.array_equal(order, np.arange(nr)) else where


def _in_row_order(sums, where):
    """The rows' entries of the per-block sums of `_padded_rows`."""
    y = np.concatenate(sums) if len(sums) > 1 else sums[0]
    return y if where is None else y.take(where)


def _keyed(keys):
    """The distinct `keys`, sorted, and the index of each key among them.
    Pass an array the call may free: it keeps no copy."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    group = np.cumsum(first)
    group -= 1
    keys = keys[first]
    slot = np.empty_like(group)
    slot[order] = group
    return keys, slot


def _summed(keys, values):
    """The distinct `keys`, sorted, and the sum of the `values` of each, in
    the order given (`bincount` adds each bin's values in input order)."""
    keys, slot = _keyed(keys)
    return keys, np.bincount(slot, values, minlength=len(keys))


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


def _held_memory() -> int:
    """The bytes this process holds resident, from /proc/self/statm; 0
    where that file does not exist."""
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


class LevelFactor:
    """Block Cholesky factor of an SPD matrix whose graph is block
    tridiagonal over node levels (`LagrangeSpace.node_levels` restricted to
    the unknowns), for a direct solve.  The levels present are taken in
    groups of consecutive levels, none wider than the widest level
    (`_level_groups`), so the matrix is block tridiagonal over the groups
    too: A = L L^T with L block lower bidiagonal, the diagonal blocks G_i the
    Cholesky factors of S_i = D_i - H_i H_i^T and the coupling blocks
    H_i = C_i G_(i-1)^-T, with D_i and C_i the blocks of A within group i and
    between groups i and i - 1 (George and Liu, 1981).  Emptied levels are
    dropped: the levels on either side of one do not couple.  Only the lower
    triangle of the blocks is read, from the matrix's sorted keys.

    `LevelFactor.each` factors several matrices of one pattern as one stack:
    each step runs on the (T, w, w) blocks of all T at once, bit for bit as
    on each alone, and each matrix gets its member of the stack.

    Raises ValueError, before anything else, for a matrix that is not square,
    levels that are not one per unknown, or an empty stack; ParameterOutOfRange,
    before any block is allocated or any entry read, when the factors' blocks
    and what the process already holds need more than the machine's physical
    memory; SolverFailure for a pivot block that is not finite or not
    positive definite, naming the group; ValueError for entries between
    levels that are not adjacent, or matrices of different patterns.
    """

    def __init__(self, matrix: SparseMatrix, levels):
        self._member(_level_blocks([matrix], levels), 0)

    @classmethod
    def each(cls, matrices, levels) -> list:
        """The factor of each of `matrices`, which share one pattern."""
        stack = _level_blocks(matrices, levels)
        out = [cls.__new__(cls) for _ in matrices]
        for t, factor in enumerate(out):
            factor._member(stack, t)
        return out

    def _member(self, stack, t: int) -> None:
        self._order, self._slices, ginv, h = stack
        self._ginv, self._h = [g[t] for g in ginv], [c[t] for c in h]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b, by one forward and one backward sweep over the
        groups; raises ValueError for a `b` that is not of shape (n,),
        SolverFailure for a solution that is not finite."""
        n = len(self._order)
        if np.shape(b) != (n,):
            raise ValueError(f"a level factor of {n} unknowns cannot solve a right-hand side "
                             f"of shape {np.shape(b)}")
        b, y = b[self._order], []
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (s, g) in enumerate(zip(self._slices, self._ginv)):
                y.append(g @ (b[s] - self._h[k - 1] @ y[-1] if k else b[s]))
            for k in range(len(y) - 1, -1, -1):
                r = y[k] - self._h[k].T @ y[k + 1] if k + 1 < len(y) else y[k]
                y[k] = self._ginv[k].T @ r
        x = np.empty(n)
        x[self._order] = np.concatenate([x[:0]] + y)
        if not np.isfinite(x).all():
            raise SolverFailure("level factor solution not finite; the system overflows")
        return x


def _level_groups(widths):
    """Consecutive levels of these `widths` taken in groups greedily: a
    group closes when the next level would make it wider than the widest
    level.  Returns the group of each level and the width of each group."""
    widths = widths.tolist()
    widest, group, sizes = max(widths, default=0), [], []
    for w in widths:
        if not sizes or sizes[-1] + w > widest:
            sizes.append(0)
        sizes[-1] += w
        group.append(len(sizes) - 1)
    return np.array(group, dtype=np.intp), np.array(sizes, dtype=np.intp)


def _factor_bytes(sizes) -> int:
    """The bytes of one level factor's blocks over groups of these widths,
    8 (sum g_i^2 + sum g_i g_(i-1))."""
    return 8 * (int(sizes @ sizes) + int(sizes[1:] @ sizes[:-1]))


def _level_blocks(matrices, levels):
    """The stacked level factor of `matrices` (`LevelFactor`): the unknowns'
    order by group, each group's slice of that order, and per group the
    (T, w, w) inverses G_i^-1 and the (T, w, w') coupling blocks H_i."""
    if not matrices:
        raise ValueError("a stack of level factors needs at least one matrix")
    levels, T, first = np.asarray(levels), len(matrices), matrices[0]
    n = first.shape[0]
    if first.shape != (n, n):
        raise ValueError(f"a level factor needs a square matrix, not one of shape {first.shape}")
    if levels.shape != (n,):
        raise ValueError(f"a level factor of {n} unknowns needs one level per unknown, not "
                         f"levels of shape {levels.shape}")
    distinct = _sorted_distinct(levels)
    level = np.searchsorted(distinct, levels)
    widths = np.bincount(level, minlength=len(distinct))
    group, sizes = _level_groups(widths)
    need = T * _factor_bytes(sizes) + _held_memory()
    have = _physical_memory()
    if need > have:
        stack = f"a stack of {T} level factors" if T > 1 else "a level factor"
        raise ParameterOutOfRange(
            f"{stack} of {n} unknowns, {len(widths)} levels up to "
            f"{widths.max()} wide, needs about {need / 2**30:.3g} GiB of "
            f"{have / 2**30:.3g} GiB of memory")
    if not all(first._same_pattern(m) for m in matrices[1:]):
        raise ValueError("a stack of level factors needs matrices of one pattern")
    rows, cols, _ = first.entries()
    if np.any(np.abs(levels[rows] - levels[cols]) > 1):
        raise ValueError("the matrix couples levels that are not adjacent")
    group = group[level]
    order = np.argsort(group, kind="stable")
    ends = np.cumsum(sizes)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n) - np.repeat(ends - sizes, sizes)
    # each entry of the lower triangle at its place in its row's group: the
    # diagonal block D_i, then the coupling block C_i
    i, j = group[rows], group[cols]
    lower = i >= j
    i, j = i[lower], j[lower]
    at = np.where(i > j, sizes[i] ** 2, 0) + rank[rows[lower]] * sizes[j] + rank[cols[lower]]
    values = np.stack([m._values[lower] for m in matrices])
    by_group = np.argsort(i, kind="stable")  # group k's entries: cuts[k]:cuts[k + 1]
    at, values = at[by_group], values[:, by_group]
    cuts = np.concatenate([[0], np.cumsum(np.bincount(i, minlength=len(sizes)))])
    del rows, cols, lower, i, j, by_group
    # each group's blocks of all T factors in an array of its own, which
    # become the blocks of the factor in place
    ginv, h = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, w in enumerate(sizes):
            prev = sizes[k - 1] if k else 0
            group_blocks = np.zeros((T, w * (w + prev)))
            group_blocks[:, at[cuts[k]:cuts[k + 1]]] = values[:, cuts[k]:cuts[k + 1]]
            S = group_blocks[:, :w * w].reshape(T, w, w)
            if k:
                H = group_blocks[:, w * w:].reshape(T, w, prev)
                H[...] = H @ ginv[-1].transpose(0, 2, 1)
                S -= H @ H.transpose(0, 2, 1)
                h.append(H)
            if not np.isfinite(S).all():
                raise SolverFailure(f"pivot block {k} of the level factor not finite; "
                                    "the system overflows")
            try:
                S[...] = np.linalg.inv(np.linalg.cholesky(S))
            except np.linalg.LinAlgError:
                raise SolverFailure(f"pivot block {k} of the level factor is not "
                                    "positive definite") from None
            ginv.append(S)
    return order, [slice(e - w, e) for e, w in zip(ends, sizes)], ginv, h


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
    space, by one operator: `ritz_family` of the one (a, beta)."""
    return ritz_family(tables, [(a, beta)])[0]


def ritz_family(tables: list, operators) -> list:
    """`ritz_each` of each (a, beta) of `operators`.  The operators of one
    free set (all but the Dirichlet nodes; on a space without any, at
    beta = 0, all but the lowest-id node) share one free-entry pattern
    (`_operators`), each assembled over it by one `bincount`; at degree 1
    they are factored as one stack (`LevelFactor.each`), above it built and
    solved one at a time by CG.  Each target takes one `solve_spd` per
    operator.  Returns, per operator, the list of (error_sq, x) per target.
    Raises ValueError for tables of different spaces.
    """
    operators = [(np.asarray(a, dtype=float), beta) for a, beta in operators]
    out = [[] for _ in operators]
    if not tables:
        return out
    first = tables[0]
    if any(t.space is not first.space for t in tables):
        raise ValueError("ritz_each needs the tables of one space")
    dirichlet = first.space.dirichlet
    pinned = [beta == 0.0 and not dirichlet.any() for _, beta in operators]
    for pin in dict.fromkeys(pinned):  # each free set, in the order of first use
        ids = [k for k, p in enumerate(pinned) if p == pin]
        free = ~dirichlet
        if pin:
            free[0] = False
        for k, per_target in zip(ids, _ritz_free_set(tables, [operators[k] for k in ids], free)):
            out[k] = per_target
    return out


def _ritz_free_set(tables: list, operators, free) -> list:
    """`ritz_family` of operators of one free set: per operator, the list of
    (error_sq, x) per target.  What it builds is freed on return."""
    space = tables[0].space
    en, m = space.element_nodes, space.n_nodes
    systems = _operators(tables[0], operators, free)
    if space.degree == 1:  # the whole stack, factored at once
        matrices = list(systems)
        systems = zip(matrices, LevelFactor.each(matrices, space.node_levels[free]))
    else:  # one at a time
        systems = ((A, None) for A in systems)
    out = []
    for (a, beta), (A, factor) in zip(operators, systems):
        out.append([])
        for t in tables:
            f = _element_loads(t, a, beta, slice(None))
            b = np.bincount(en.ravel(), weights=f.ravel(), minlength=m)
            x = np.zeros(m)
            x[free] = solve_spd(SpdSystem(matrix=A, rhs=b[free], factor=factor))
            # the energy of the computed approximant: an error in x enters only to
            # second order
            out[-1].append((float(_error(t, a, beta, slice(None), x[en]).sum()), x))
    return out


def _operators(tables: ElementTables, operators, free):
    """The operator of each (a, beta) of `operators` restricted to the `free`
    nodes, renumbered, in turn.  All are assembled over one free-entry
    pattern: the sorted distinct keys row * max(n, 1) + col of the element
    entries in free rows and columns, and the key of each such entry, in
    element order and row-major within each element matrix, so one
    `bincount` sums each key's entries in element order, as `SparseMatrix`
    sums duplicates.  The entries of other rows and columns are dropped
    before assembly, and the pattern before the first matrix is built."""
    node = _renumbered(free)[tables.space.element_nodes]
    n = int(np.count_nonzero(free))
    kept = ((node[:, :, None] >= 0) & (node[:, None, :] >= 0)).ravel()
    keys, slot = _keyed((node[:, :, None] * max(n, 1) + node[:, None, :]).ravel()[kept])
    values = [np.bincount(slot, _element_matrices(tables, a, beta, slice(None)).ravel()[kept],
                          minlength=len(keys)) for a, beta in operators]
    del node, kept, slot
    while values:
        yield SparseMatrix._of(keys, values.pop(0), (n, n))


def _free_operator(tables: ElementTables, a, beta: float, free) -> SparseMatrix:
    """The operator of `_element_matrices` restricted to the `free` nodes,
    renumbered, as `ritz_family` assembles it."""
    return next(_operators(tables, [(a, beta)], free))


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
    space's Dirichlet nodes and the lowest-id node pinned as there.  Returns
    the (P,) errors and V at the local nodes of each region's elements
    (P, E, nloc), zero-padded to the largest region.  Raises SolverFailure
    naming a singular region.  The one-target call of `local_ritz_each`.
    """
    return local_ritz_each([tables], a, regions, beta)[0]


def local_ritz_each(tables: list, a, regions, beta: float = 0.0) -> list:
    """`local_ritz` of each of `tables`, the tables of several targets in
    one space.  Regions of equal element and node count share one layout,
    one scatter of their systems, fixed nodes as identity rows, and one
    broadcast dense solve of every target's loads, one LU solve per target
    and region as in a call of its own.  Returns a list of (errors, V) per
    target.  Raises ValueError for tables of different spaces.
    """
    if not tables:
        return []
    a, first, T = np.asarray(a, dtype=float), tables[0], len(tables)
    if any(t.space is not first.space for t in tables):
        raise ValueError("local_ritz_each needs the tables of one space")
    en_all, n = first.space.element_nodes, first.space.n_nodes
    sizes = np.diff(regions[0])
    x = np.zeros((T, len(sizes), sizes.max(initial=0), en_all.shape[1]))
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
            K = _element_matrices(first, a, beta, elems[sub])
            flat = loc[..., :, None] * m + loc[..., None, :] % m
            A = np.bincount(flat.ravel(), K.ravel(), G * m * m).reshape(G, m, m)
            b = np.stack([np.bincount(loc.ravel(), _element_loads(t, a, beta, elems[sub]).ravel(),
                                      G * m) for t in tables]).reshape(T, G, m)
            free = ~first.space.dirichlet[nodes]
            if beta == 0.0:
                free[free.all(axis=1), 0] = False
            A *= free[:, :, None] & free[:, None, :]
            A[:, np.arange(m), np.arange(m)] += ~free
            b *= free
            try:
                v = np.linalg.solve(A, b[..., None])
            except np.linalg.LinAlgError:  # singular: slogdet sign 0 (det may underflow)
                bad = elems[sub][np.argmin(np.abs(np.linalg.slogdet(A)[0]))].tolist()
                raise SolverFailure(f"singular local system on elements {bad}") from None
            for xt, vt in zip(x, v):
                xt[P, :E] = vt.ravel()[loc]
    return [(_region_errors(t, a, regions, v, beta), v) for t, v in zip(tables, x)]


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
