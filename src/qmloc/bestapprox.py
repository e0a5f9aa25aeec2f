"""Best-approximation errors: one table of element matrices, target
moments, norms and element fits, the global Ritz solve of several operators
and targets at once (one block-elimination factor, `FrontFactor`, over the
elimination tree of one nested dissection at every degree, built once per
space and free set), and one batched local Ritz kernel (`local_ritz_each`)
for every element, pair and star and every target.

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
    + col and the values of those keys, and every method reads them from
    there.  ``m @ p`` is one `bincount` over the rows, which sums each row
    left to right in column order, as `scipy.sparse`'s CSR product sums it,
    so on the same entries the two agree bit for bit.  ``m[mask]`` and ``m[:,
    mask]`` are the matrices of the entries in the rows or columns a boolean
    mask keeps, renumbered.  The constructor raises ValueError for a `shape`
    that is not two non-negative integers, and for entries that are not 1-D
    arrays of equal length or that lie outside `shape`; ``m @ p`` for a `p`
    that is not a real 1-D array-like of ncols entries (read as float).
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

    def __matmul__(self, p):
        p = _vector(p, self.shape[1], f"SparseMatrix of shape {self.shape} cannot multiply an "
                                      "operand")
        rows, cols, values = self.entries()
        values *= p[cols]
        return np.bincount(rows, values, minlength=self.shape[0]).astype(float, copy=False)

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
        return (*self._pattern(), self._values.copy())

    def _pattern(self):
        """The stored (rows, cols), sorted by row and column."""
        nc = max(self.shape[1], 1)
        rows = self._keys // nc
        return rows, self._keys - rows * nc

    def _same_pattern(self, other) -> bool:
        """Whether `other` stores its entries at the same rows and columns."""
        return self.shape == other.shape and np.array_equal(self._keys, other._keys)


def _vector(p, n: int, what: str) -> np.ndarray:
    """`p`, a real 1-D array-like of n entries, as floats; else ValueError."""
    a = np.asarray(p)
    if a.shape != (n,):
        raise ValueError(f"{what} of shape {a.shape}")
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{what} of dtype {a.dtype}")
    return a.astype(float, copy=False)


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


# The most free nodes a leaf of the nested dissection holds.
_LEAF = 64


@dataclass(frozen=True)
class Fronts:
    """An elimination tree of blocks of unknowns ("fronts") in post-order.
    Front f eliminates its nodes E_f, ``order[s_f:s_f + sizes[f]]`` with s_f
    = sum(sizes[:f]), against its boundary B_f, ``boundary[f]``: ascending
    places in `order` of nodes of f's ancestors.  ``parent[f]`` is -1 for a
    root.  Built by `dissection_fronts`."""

    order: np.ndarray
    sizes: np.ndarray
    boundary: tuple
    parent: np.ndarray


def dissection_fronts(space: LagrangeSpace, free) -> Fronts:
    """Nested dissection of the unknowns `free` of `space` (George, 1973):
    the elements bisected recursively at the median centroid along the
    longer side of their box (a stable sort), the free nodes both halves
    share that no front above holds a separator front over both, a part of
    at most `_LEAF` such nodes a leaf, and a front's boundary the nodes of
    its elements that fronts above hold.  An empty separator makes none."""
    node = _renumbered(free)[space.element_nodes]
    centroid = space.tri.vertices[space.tri.triangles].mean(axis=1)
    taken = np.zeros(int(np.count_nonzero(free)), dtype=bool)
    seen = np.zeros_like(taken)
    nodes, bounds, parent = [], [], []

    def touched(elems) -> np.ndarray:
        """The free nodes of `elems`, ascending."""
        ids = _sorted_distinct(node[elems])
        return ids[ids >= 0]

    def split(elems, ids) -> list:
        """The roots of the fronts of `elems`, whose free nodes are `ids`."""
        held = taken[ids]
        if np.count_nonzero(~held) <= _LEAF:
            own, roots, b = ids[~held], [], ids[held]
        else:
            c = centroid[elems]
            half = np.argsort(c[:, int(np.ptp(c[:, 1]) > np.ptp(c[:, 0]))], kind="stable")
            halves = elems[half[:len(elems) // 2]], elems[half[len(elems) // 2:]]
            first, second = touched(halves[0]), touched(halves[1])
            seen[first] = True
            own = second[seen[second] & ~taken[second]]
            seen[first] = False
            taken[own] = True
            roots = split(halves[0], first) + split(halves[1], second)
            b = _sorted_distinct(np.concatenate([own[:0]] + [bounds[r] for r in roots]))
            b = b[np.append(own, -1)[np.searchsorted(own, b)] != b]
        if not len(own):
            return roots
        taken[own] = True
        nodes.append(own)
        bounds.append(b)
        parent.append(-1)
        for r in roots:
            parent[r] = len(nodes) - 1
        return [len(nodes) - 1]

    every = np.arange(space.tri.n_elements)
    split(every, touched(every))
    order = np.concatenate([np.zeros(0, dtype=np.intp)] + nodes)
    place = np.argsort(order)
    return Fronts(order, np.array([len(e) for e in nodes], dtype=np.intp),
                  tuple(np.sort(place[b]) for b in bounds), np.array(parent, dtype=np.intp))


def _front_bytes(sizes, bsizes, parent) -> int:
    """The bytes of one factor over fronts of sizes k, boundary sizes b and
    these parents: 8 (k^2 + b k) per front, its G_f and L_f, and the most
    that lives beside them at one front, 16 (k^2 + b^2) of its pivot's
    factor and inverse, F_BB and update, with 8 b'^2 per update that waits
    for a front above."""
    children = np.bincount(parent[parent >= 0], minlength=len(sizes)).tolist()
    peak, waiting = 0, []
    for k, b, c, p in zip(sizes.tolist(), bsizes.tolist(), children, parent.tolist()):
        peak = max(peak, 2 * (k * k + b * b) + sum(waiting))
        del waiting[len(waiting) - c:]
        waiting += [b * b] if p >= 0 else []
    return 8 * (int(sizes @ sizes) + int(bsizes @ sizes) + peak)


class FrontFactor:
    """Multifrontal block Cholesky factor of an SPD matrix over `Fronts`
    (Liu, 1992).  In post-order, front f scatters the entries whose
    earlier-eliminated end is in E_f into its frontal matrix F over E_f and
    B_f, subtracts its children's updates, keeps G_f = cholesky(F_EE)^-1 and
    L_f = F_BE G_f^T, and passes L_f L_f^T - F_BB up.  `FrontFactor.each` factors matrices of
    one pattern as one (T, ., .) stack, bit for bit as each alone.  Raises
    ValueError, before anything else, for a matrix that is not square,
    fronts of another size or an empty stack; ParameterOutOfRange, before
    any front is allocated or value read, when the factors (`_front_bytes`),
    the entries they keep and what the process holds exceed physical
    memory; ValueError for matrices of two patterns or an entry the fronts
    keep apart; SolverFailure, naming it, for a front not finite or not
    definite."""

    def __init__(self, matrix: SparseMatrix, fronts: Fronts):
        self.fronts, self._steps = fronts, _factor_fronts([matrix], fronts)[0]

    @classmethod
    def each(cls, matrices, fronts: Fronts) -> list:
        """The factor of each of `matrices`, which share one pattern."""
        out = [cls.__new__(cls) for _ in matrices]
        for factor, steps in zip(out, _factor_fronts(matrices, fronts)):
            factor.fronts, factor._steps = fronts, steps
        return out

    def solve(self, b) -> np.ndarray:
        """x with A x = b, by one forward sweep over the fronts in post-order
        and one backward sweep in reverse; raises ValueError for a `b` not a
        real 1-D array-like of n entries, SolverFailure for an x not finite."""
        order = self.fronts.order
        n = len(order)
        y = _vector(b, n, f"a front factor of {n} unknowns cannot solve a right-hand side")[order]
        with np.errstate(over="ignore", invalid="ignore"):
            for s, B, g, l in self._steps:
                y[s] = g @ y[s]
                y[B] -= l @ y[s]
            for s, B, g, l in reversed(self._steps):
                y[s] = g.T @ (y[s] - l.T @ y[B])
        if not np.isfinite(y).all():
            raise SolverFailure("front factor solution not finite; the system overflows")
        x = np.empty(n)
        x[order] = y
        return x


def _factor_fronts(matrices, fronts: Fronts):
    """The stacked factor of `matrices` over `fronts` (`FrontFactor`): per
    matrix, per front its slice of the order of elimination, its boundary,
    G_f and L_f, views of the front's (T, k + b, k) block."""
    if not matrices:
        raise ValueError("a stack of front factors needs at least one matrix")
    T, first, sizes, parent = len(matrices), matrices[0], fronts.sizes, fronts.parent
    n = first.shape[0]
    if first.shape != (n, n):
        raise ValueError(f"a front factor needs a square matrix, not one of shape {first.shape}")
    if len(fronts.order) != n:
        raise ValueError(f"a front factor of {n} unknowns needs fronts of {n} unknowns, not "
                         f"{len(fronts.order)}")
    bsizes = np.array([len(B) for B in fronts.boundary], dtype=np.intp)
    # by the front of their column, the entries whose row is eliminated with
    # or after their column, as places in the order of elimination
    of = np.repeat(np.arange(len(sizes)), sizes)
    rows, cols = np.argsort(fronts.order)[list(first._pattern())]
    lower = of[rows] >= of[cols]
    # the fronts, and the row, column and T values of each entry kept
    need = (T * _front_bytes(sizes, bsizes, parent) + int(np.count_nonzero(lower)) * (16 + 8 * T)
            + _held_memory())
    have = _physical_memory()
    if need > have:
        stack = f"a stack of {T} front factors" if T > 1 else "a front factor"
        raise ParameterOutOfRange(
            f"{stack} of {n} unknowns, {len(sizes)} fronts up to {sizes.max(initial=0)} "
            f"wide, needs about {need / 2**30:.3g} GiB of {have / 2**30:.3g} GiB of memory")
    if not all(first._same_pattern(m) for m in matrices[1:]):
        raise ValueError("a stack of front factors needs matrices of one pattern")
    by_front = np.argsort(of[cols[lower]], kind="stable")
    rows, cols = rows[lower][by_front], cols[lower][by_front]
    values = np.stack([m._values[lower] for m in matrices])[:, by_front]
    cuts = np.searchsorted(of[cols], np.arange(len(sizes) + 1))
    del lower, by_front
    slices = [slice(e - k, e) for e, k in zip(np.cumsum(sizes).tolist(), sizes.tolist())]
    factor, waiting = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for g, (s, B, k) in enumerate(zip(slices, fronts.boundary, sizes.tolist())):
            ix = np.concatenate([np.arange(s.start, s.stop), B])  # E_f, then B_f
            m, e, bb = len(ix), slice(cuts[g], cuts[g + 1]), None
            i = ix.searchsorted(rows[e])
            if (ix.take(i, mode="clip") != rows[e]).any():
                raise ValueError("the matrix couples unknowns that its fronts keep apart")
            F = np.zeros((T, m, k))  # columns E_f, then G_f over L_f; F_BB apart, if reached
            F.reshape(T, -1)[:, i * k + cols[e] - s.start] = values[:, e]
            while waiting and waiting[-1][0] == g:  # the children's updates, last on the stack
                _, Bc, L, bb_c = waiting.pop()
                V = L @ L.transpose(0, 2, 1)  # L L^T - F_BB of the child
                if bb_c is not None:
                    V -= bb_c
                i = ix.searchsorted(Bc)
                c = int(i.searchsorted(k))  # i[:c] in E_f, i[c:] in B_f
                F[:, i[:, None], i[:c]] -= V[:, :, :c]
                if c < len(i):
                    bb = np.zeros((T, m - k, m - k)) if bb is None else bb
                    bb[:, i[c:, None] - k, i[c:] - k] -= V[:, c:, c:]
            if not np.isfinite(F[:, :k]).all():
                raise SolverFailure(f"front {g} of the factor not finite; the system overflows")
            try:
                F[:, :k] = np.linalg.inv(np.linalg.cholesky(F[:, :k]))
            except np.linalg.LinAlgError:
                raise SolverFailure(f"front {g} of the factor is not positive definite") from None
            F[:, k:] = F[:, k:] @ F[:, :k].transpose(0, 2, 1)
            factor.append(F)
            if parent[g] >= 0:  # its update L_f L_f^T - F_BB, formed by its parent
                waiting.append((parent[g], B, F[:, k:], bb))
    return [[(s, B, F[t, :F.shape[2]], F[t, F.shape[2]:])
             for s, B, F in zip(slices, fronts.boundary, factor)] for t in range(T)]


@dataclass
class SpdSystem:
    """Sparse SPD system, definite as given, and a `FrontFactor` of it.
    ``matrix`` supports ``@`` with a vector and ``shape``, as `SparseMatrix`
    does."""

    matrix: SparseMatrix
    rhs: np.ndarray
    factor: FrontFactor

    def free_mask(self) -> np.ndarray:
        """All True: every unknown is free (`perfbench/tracing.py` reads it)."""
        return np.ones(self.matrix.shape[0], dtype=bool)


def solve_spd(system: SpdSystem) -> np.ndarray:
    """The solution of the system as given, by its factor."""
    return system.factor.solve(system.rhs)


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
    (`_operators`), each assembled over it by one `bincount`, and are
    factored as one stack (`FrontFactor.each`) over the nested dissection
    of that set, built once per space and free set (`_space_fronts`).  Each
    target takes one `solve_spd` per operator.  Returns, per operator,
    the list of (error_sq, x) per target.  Raises ValueError for tables of
    different spaces.
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
    matrices = _operators(tables[0], operators, free)
    factors = FrontFactor.each(matrices, _space_fronts(space, free))
    out = []
    for (a, beta), A, factor in zip(operators, matrices, factors):
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


def _space_fronts(space: LagrangeSpace, free) -> Fronts:
    """`dissection_fronts` of `space` and `free`, built once per space and
    free set: kept on the space, as `cached_property` keeps its value, by
    the bytes of the mask."""
    built = space.__dict__.setdefault("_fronts", {})
    key = free.tobytes()
    if key not in built:
        built[key] = dissection_fronts(space, free)
    return built[key]


def _operators(tables: ElementTables, operators, free) -> list:
    """The operator of each (a, beta) of `operators` restricted to the `free`
    nodes, renumbered.  All are assembled over one free-entry pattern: the
    sorted distinct keys row * max(n, 1) + col of the element entries in
    free rows and columns, and the key of each such entry, in element order
    and row-major within each element matrix, so one `bincount` sums each
    key's entries in element order, as `SparseMatrix` sums duplicates.  The
    entries of other rows and columns are dropped before assembly."""
    node = _renumbered(free)[tables.space.element_nodes]
    n = int(np.count_nonzero(free))
    kept = ((node[:, :, None] >= 0) & (node[:, None, :] >= 0)).ravel()
    keys, slot = _keyed((node[:, :, None] * max(n, 1) + node[:, None, :]).ravel()[kept])
    return [SparseMatrix._of(keys, np.bincount(
        slot, _element_matrices(tables, a, beta, slice(None)).ravel()[kept],
        minlength=len(keys)), (n, n)) for a, beta in operators]


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
