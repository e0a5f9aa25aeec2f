"""Per-element loop references for the element tables and the Ritz kernel.

These are the plain loops that the batched tables and the one kernel
replace: each element matrix from its own quadrature, each right-hand side
from the target's plan, a dense regional Ritz solve, and the scaled-monomial
best fit on a single element; `element_tables_broadcast` is the batched
table kernel as it was before `element_tables_each` read the geometry once.
The error of any member of the space has two oracles: quadrature of the
difference u - V at the plan's nodes, and the expanded form uu - 2 b.x +
x^T A x, whose rounding scales with the energy of u rather than with the
error.  Tests compare the fast path against them.
`masked_ritz` is the one-target global solve that the shared operator of
`ritz_each` replaces.  `level_fronts` is the chain of level groups that
ordered the degree-1 factor before nested dissection ordered every degree,
`LevelFactor` the block tridiagonal factor over those groups that
`FrontFactor` generalises, the bit-for-bit oracle of `FrontFactor` over
that chain, and `cg_solve` the Jacobi-preconditioned conjugate gradients
that solved above degree 1 before it.
"""
import math

import numpy as np

from qmloc.bestapprox import (ElementTables, FrontFactor, Fronts, SparseMatrix, SpdSystem,
                              _error, dissection_fronts, solve_spd)
from qmloc.errors import SolverFailure
from qmloc.fespace import element_mass_matrix, reference_basis
from qmloc.mesh import _sorted_distinct, element_affine
from qmloc.quadrature import reference_triangle_rule

from fespace_reference import eval_basis


def element_samples(plan, target, k):
    """The nodes and weights of element k (`plan.element_rule`), and u and
    grad u there: at a polar element's offsets from its singular point, as
    `element_tables` evaluates them, else at the nodes."""
    pts, wts = plan.element_rule(k)
    s = plan.element_point[k]
    if s < 0:
        return pts, wts, *target.evaluate(pts)
    offsets = plan.rules[plan.element_class[k]][0] @ plan.linear[k].T
    return pts, wts, *target.evaluate(offsets, np.full(len(wts), s))


def element_stiffness(space, k):
    pts_ref, w_ref = reference_triangle_rule(2 * space.degree + 2)
    _, B = element_affine(space.tri, k)
    Binv = np.linalg.inv(B)
    detB = abs(np.linalg.det(B))
    _, gref = reference_basis(space.degree, pts_ref)
    g = gref @ Binv  # (nq, nloc, 2)
    return np.einsum("q,qid,qjd->ij", w_ref * detB, g, g)


def assemble(space, weights, beta=0.0, region=None):
    """Dense sum_K weights_K * stiffness_K + beta * mass_K over a region."""
    region = range(space.tri.n_elements) if region is None else sorted(region)
    A = np.zeros((space.n_nodes, space.n_nodes))
    for k in region:
        ids = space.element_nodes[k]
        A[np.ix_(ids, ids)] += (weights[k] * element_stiffness(space, k)
                                + beta * element_mass_matrix(space, k))
    return A


def energy_rhs(space, weights, target, plan, region=None):
    """b_i = int a grad(u) . grad(phi_i), via the target's quadrature plan."""
    region = range(space.tri.n_elements) if region is None else sorted(region)
    b = np.zeros(space.n_nodes)
    for k in region:
        pts, wts, _, gu = element_samples(plan, target, k)
        _, gphi = eval_basis(space, k, pts)
        np.add.at(b, space.element_nodes[k],
                  weights[k] * np.einsum("q,qd,qid->i", wts, gu, gphi))
    return b


def einsum_grad_moments(target, plan, space):
    """(ks, int_K grad u . grad phi_i) for each class block of the plan, by
    the three-operand einsum whose arithmetic `element_tables_each` keeps:
    per node the two-term dot of w grad u with grad phi_i, then the nodes in
    order.  The block data are formed as `element_tables_each` forms them,
    B_K^-1 as the adjugate over the signed determinant."""
    B = element_affine(space.tri)[1]
    signed = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
    Binv = (np.stack([B[:, 1, 1], -B[:, 0, 1], -B[:, 1, 0], B[:, 0, 0]], axis=1)
            / signed[:, None]).reshape(-1, 2, 2)
    for cls, ks, pts, wts, about in plan.blocks():
        gref = reference_basis(space.degree, plan.rules[cls][2])[1]
        if about is not None:
            about = np.repeat(about, wts.shape[1])
        dphi = (gref.reshape(-1, 2) @ Binv[ks]).reshape(*wts.shape, *gref.shape[1:])
        gu = target.evaluate(pts.reshape(-1, 2), about)[1].reshape(*wts.shape, 2)
        yield ks, np.einsum("kq,kqd,kqid->ki", wts, gu, dphi)


def element_tables_broadcast(targets, plan, space):
    """The tables of each of `targets` by the kernel `element_tables_each`
    replaced: |det B_K| and B_K^-1 by batched LAPACK `det` and `inv`, the
    stiffness by one einsum, and the moments' products summed over the
    nodes by `sum`."""
    pts_ref, w_ref = reference_triangle_rule(2 * space.degree + 2)
    vals, gref = reference_basis(space.degree, pts_ref)
    B = element_affine(space.tri)[1]
    det, Binv = np.abs(np.linalg.det(B)), np.linalg.inv(B)
    R = np.einsum("q,qia,qjb->abij", w_ref, gref, gref)
    G = det[:, None, None] * (Binv @ Binv.transpose(0, 2, 1))
    stiffness = np.einsum("kab,abij->kij", G, R)
    mass_ref = (vals.T * w_ref) @ vals
    mass = det[:, None, None] * mass_ref
    nloc = vals.shape[1]
    gauged_inv = np.linalg.inv(
        stiffness + (np.trace(stiffness, axis1=1, axis2=2) / nloc**2)[:, None, None])
    mass_ref_inv = np.linalg.inv(mass_ref)

    T, nt = len(targets), space.tri.n_elements
    moments, fits = np.empty((T, nt, 2, nloc)), np.empty((T, nt, 2, nloc))
    sums = np.empty((T, nt, 4))
    plan.require_mesh(space.tri)
    for cls, ks, pts, wts, about in plan.blocks():
        phi, gref = reference_basis(space.degree, plan.rules[cls][2])
        stacked = gref.transpose(1, 0, 2).reshape(nloc, -1)
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
            m = m.sum(axis=1)
            m0 = ((wts * u)[:, None, :] @ phi)[:, 0]
            pi = (gk @ m[..., None])[..., 0]
            pi0 = m0 @ mass_ref_inv.T / dk
            moments[t, ks, 0], moments[t, ks, 1], fits[t, ks, 0], fits[t, ks, 1] = m, m0, pi, pi0
            r = gu - (pi @ stacked).reshape(gu.shape) @ Bk
            r0 = u - pi0 @ phi.T
            sums[t, ks, 0] = np.einsum("kq,kqd,kqd->k", wts, r, r)
            sums[t, ks, 1] = np.einsum("kq,kq,kq->k", wts, r0, r0)
            sums[t, ks, 2] = np.einsum("kq,kqd,kqd->k", wts, gu, gu)
            sums[t, ks, 3] = np.einsum("kq,kq,kq->k", wts, u, u)
    out, mass_rows = [], mass.sum(axis=2)
    for mo, fi, su in zip(moments, fits, sums):
        grad_fits = fi[:, 0]
        grad_fits += ((mo[:, 1].sum(axis=1) - np.einsum("ki,ki->k", grad_fits, mass_rows))
                      / space.tri.areas)[:, None]
        out.append(ElementTables(space=space, stiffness=stiffness, mass=mass,
                                 grad_moments=mo[:, 0], grad_sq=su[:, 2], value_moments=mo[:, 1],
                                 value_sq=su[:, 3], grad_fits=grad_fits, grad_residual=su[:, 0],
                                 value_fits=fi[:, 1], value_residual=su[:, 1]))
    return out


def mass_rhs(space, target, plan, region=None):
    """b_i = int u phi_i."""
    region = range(space.tri.n_elements) if region is None else sorted(region)
    b = np.zeros(space.n_nodes)
    for k in region:
        pts, wts, u, _ = element_samples(plan, target, k)
        vphi, _ = eval_basis(space, k, pts)
        np.add.at(b, space.element_nodes[k], np.einsum("q,qi->i", wts * u, vphi))
    return b


def dense_ritz_error(space, weights, target, plan, region=None, fixed=None, beta=0.0):
    """Ritz error from dense loop assembly: the nodes of `region` minus the
    `fixed` ones are free, and the first node is pinned when none is fixed
    and beta = 0.  Returns (error_sq, full coefficient vector)."""
    elems = range(space.tri.n_elements) if region is None else sorted(region)
    ids = sorted({int(g) for k in elems for g in space.element_nodes[k]})
    A = assemble(space, weights, beta, elems)
    b = energy_rhs(space, weights, target, plan, elems)
    if beta:
        b = b + beta * mass_rhs(space, target, plan, elems)
    free = np.zeros(space.n_nodes, dtype=bool)
    free[ids] = True
    if fixed is not None:
        free &= ~fixed
    if free[ids].all() and beta == 0.0:
        free[ids[0]] = False
    x = np.zeros(space.n_nodes)
    x[free] = np.linalg.solve(A[np.ix_(free, free)], b[free])
    uu = 0.0
    for k in elems:
        _, wts, u, gu = element_samples(plan, target, k)
        uu += (weights[k] * float(wts @ np.einsum("qd,qd->q", gu, gu))
               + beta * float(wts @ (u * u)))
    return uu - float(b[free] @ x[free]), x


def monomial_element_fit(target, plan, k, degree):
    """min over P_degree(K) of ||grad(u - P)||^2_K in scaled monomials about
    the centroid, the constant matched to the element mean of u.

    Returns (error_sq, fit) with fit evaluable at (n, 2) points.
    """
    tri = plan.tri
    pts, wts, u, gu = element_samples(plan, target, k)
    center = tri.vertices[tri.triangles[k]].mean(axis=0)
    h = float(tri.diameters[k])
    expo = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]

    def basis(p):
        xi = (np.atleast_2d(p) - center) / h
        v = np.stack([xi[:, 0] ** a * xi[:, 1] ** b for a, b in expo], axis=1)
        gx = np.stack([(a / h) * xi[:, 0] ** max(a - 1, 0) * xi[:, 1] ** b
                       for a, b in expo], axis=1)
        gy = np.stack([(b / h) * xi[:, 0] ** a * xi[:, 1] ** max(b - 1, 0)
                       for a, b in expo], axis=1)
        return v, np.stack([gx, gy], axis=-1)

    vals, grads = basis(pts)
    g = grads[:, 1:]  # the constant has no gradient
    G = np.einsum("q,qid,qjd->ij", wts, g, g)
    rhs = np.einsum("q,qd,qid->i", wts, gu, g)
    c = np.linalg.solve(G, rhs)
    err = float(wts @ np.einsum("qd,qd->q", gu, gu)) - float(rhs @ c)
    area = float(tri.areas[k])
    c0 = (float(wts @ u) - float(wts @ (vals[:, 1:] @ c))) / area
    coeffs = np.concatenate([[c0], c])

    def fit(p):
        return basis(p)[0] @ coeffs

    return max(err, 0.0), fit


class QuadratureOracle:
    """sum_K weights_K ||grad(u - V)||^2_K + beta ||u - V||^2_K over the
    elements of a region, V a member of the space, by quadrature of the
    difference at the plan's nodes, one element at a time; the target and
    the basis are sampled once per element and kept."""

    def __init__(self, space, target, plan):
        self.space, self.target, self.plan = space, target, plan
        self._samples = {}

    def _element(self, k):
        if k not in self._samples:
            pts, wts, u, gu = element_samples(self.plan, self.target, k)
            vals, grads = eval_basis(self.space, k, pts)
            self._samples[k] = (wts, vals, grads, u, gu)
        return self._samples[k]

    def local_error(self, weights, elems, v, beta=0.0):
        """The error of V given by its local node values v (len(elems), nloc)."""
        total = 0.0
        for k, c in zip(elems, v):
            wts, vals, grads, u, gu = self._element(int(k))
            # the basis gradients sum to zero only to rounding: drop the mean of c first
            d = gu - np.einsum("qid,i->qd", grads, c - c.mean())
            d0 = u - vals @ c
            total += (weights[k] * float(wts @ np.einsum("qd,qd->q", d, d))
                      + beta * float(wts @ (d0 * d0)))
        return total

    def error(self, weights, x, region=None, beta=0.0):
        """The error of V given by its coefficient vector x."""
        region = range(self.space.tri.n_elements) if region is None else sorted(region)
        return self.local_error(weights, region, x[self.space.element_nodes[list(region)]], beta)


def quadrature_error(space, weights, target, plan, x, region=None, beta=0.0):
    """`QuadratureOracle.error` of the coefficient vector x over a region."""
    return QuadratureOracle(space, target, plan).error(weights, x, region, beta)


def expanded_error(space, weights, target, plan, x, region=None, beta=0.0):
    """The error of `quadrature_error` as uu - 2 b.x + x^T A x, from dense
    loop assembly over the region; not clipped at zero."""
    region = range(space.tri.n_elements) if region is None else sorted(region)
    A = assemble(space, weights, beta, region)
    b = energy_rhs(space, weights, target, plan, region)
    if beta:
        b = b + beta * mass_rhs(space, target, plan, region)
    uu = quadrature_error(space, weights, target, plan, np.zeros(space.n_nodes), region, beta)
    return uu - 2.0 * float(b @ x) + float(x @ (A @ x))


def interpolation_error_loop(target, interp, coeff, plan, region=None):
    """||a^(1/2) grad(u - Iu)||^2 over a region by quadrature of the
    difference at the plan's nodes."""
    return quadrature_error(interp.space, coeff.values, target, plan, interp.coefficients,
                            region)


def masked_ritz(tables, a, beta=0.0):
    """The global best approximation of one table's target, its operator
    assembled for it alone on every node and then restricted to the free
    nodes, ``A[free][:, free]`` and ``b[free]`` (all but the Dirichlet nodes,
    else the lowest-id node at beta = 0), solved as `ritz_each` solves: by a
    `FrontFactor` of that restriction over `dissection_fronts`.  Returns
    (error_sq, x) as `ritz`."""
    w = np.asarray(a, dtype=float)
    en, m = tables.space.element_nodes, tables.space.n_nodes
    K = w[:, None, None] * tables.stiffness + beta * tables.mass
    f = w[:, None] * tables.grad_moments + beta * tables.value_moments
    b = np.bincount(en.ravel(), weights=f.ravel(), minlength=m)
    free = ~tables.space.dirichlet
    if free.all() and beta == 0.0:
        free[0] = False
    rows = np.repeat(en, en.shape[1], axis=1).ravel()
    cols = np.tile(en, (1, en.shape[1])).ravel()
    A = SparseMatrix(rows, cols, K.ravel(), (m, m))
    A = A[free][:, free]
    factor = FrontFactor(A, dissection_fronts(tables.space, free))
    x = np.zeros(m)
    x[free] = solve_spd(SpdSystem(matrix=A, rhs=b[free], factor=factor))
    return float(_error(tables, w, beta, slice(None), x[en]).sum()), x


def level_fronts(levels) -> Fronts:
    """The chain of the groups of consecutive levels (`_level_groups`) of a
    level structure, one level per unknown, each group eliminated against
    all of the next.  Raises ValueError for `levels` that are not 1-D."""
    levels = np.asarray(levels)
    if levels.ndim != 1:
        raise ValueError(f"level fronts need one level per unknown, not levels of shape "
                         f"{levels.shape}")
    distinct = _sorted_distinct(levels)
    level = np.searchsorted(distinct, levels)
    group, sizes = _level_groups(np.bincount(level, minlength=len(distinct)))
    parent = np.arange(1, len(sizes) + 1)
    parent[-1:] = -1
    ends = np.cumsum(sizes)
    return Fronts(np.argsort(group[level], kind="stable"), sizes,
                  tuple(np.arange(e, e + b) for e, b in zip(ends, np.append(sizes[1:], 0))),
                  parent)


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


class LevelFactor:
    """Block Cholesky factor of an SPD matrix whose graph is block
    tridiagonal over the groups of consecutive node levels of
    `_level_groups`: A = L L^T with L block lower bidiagonal, the diagonal
    blocks G_i the Cholesky factors of S_i = D_i - H_i H_i^T and the
    coupling blocks H_i = C_i G_(i-1)^-T.  Raises ValueError for entries
    between levels that are not adjacent, SolverFailure for a pivot block
    that is not positive definite."""

    def __init__(self, matrix, levels):
        self._order, self._slices, ginv, h = _level_blocks([matrix], levels)
        self._ginv, self._h = [g[0] for g in ginv], [c[0] for c in h]

    def solve(self, b):
        n = len(self._order)
        b, y = b[self._order], []
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (s, g) in enumerate(zip(self._slices, self._ginv)):
                y.append(g @ (b[s] - self._h[k - 1] @ y[-1] if k else b[s]))
            for k in range(len(y) - 1, -1, -1):
                r = y[k] - self._h[k].T @ y[k + 1] if k + 1 < len(y) else y[k]
                y[k] = self._ginv[k].T @ r
        x = np.empty(n)
        x[self._order] = np.concatenate([x[:0]] + y)
        return x


def _level_blocks(matrices, levels):
    levels, T, first = np.asarray(levels), len(matrices), matrices[0]
    n = first.shape[0]
    distinct = _sorted_distinct(levels)
    level = np.searchsorted(distinct, levels)
    group, sizes = _level_groups(np.bincount(level, minlength=len(distinct)))
    rows, cols, _ = first.entries()
    if np.any(np.abs(levels[rows] - levels[cols]) > 1):
        raise ValueError("the matrix couples levels that are not adjacent")
    group = group[level]
    order = np.argsort(group, kind="stable")
    ends = np.cumsum(sizes)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n) - np.repeat(ends - sizes, sizes)
    i, j = group[rows], group[cols]
    lower = i >= j
    i, j = i[lower], j[lower]
    at = np.where(i > j, sizes[i] ** 2, 0) + rank[rows[lower]] * sizes[j] + rank[cols[lower]]
    values = np.stack([m._values[lower] for m in matrices])
    ginv, h = [], []
    for k, w in enumerate(sizes):
        prev = sizes[k - 1] if k else 0
        blocks = np.zeros((T, w * (w + prev)))
        mine = i == k
        blocks[:, at[mine]] = values[:, mine]
        S = blocks[:, :w * w].reshape(T, w, w)
        if k:
            H = blocks[:, w * w:].reshape(T, w, prev)
            H[...] = H @ ginv[-1].transpose(0, 2, 1)
            S -= H @ H.transpose(0, 2, 1)
            h.append(H)
        try:
            S[...] = np.linalg.inv(np.linalg.cholesky(S))
        except np.linalg.LinAlgError:
            raise SolverFailure(f"pivot block {k} of the level factor is not "
                                "positive definite") from None
        ginv.append(S)
    return order, [slice(e - w, e) for e, w in zip(ends, sizes)], ginv, h


def cg_solve(matrix, b, rtol=1e-12):
    """x with A x = b by Jacobi-preconditioned CG from x = 0, converged when
    the preconditioned relative residual drops below rtol; raises
    SolverFailure on a non-positive diagonal entry, a scalar that is not
    finite, or no convergence in 50 n iterations."""
    n = matrix.shape[0]
    x = np.zeros(n)
    rows, cols, values = matrix.entries()
    on = rows == cols
    d = np.bincount(rows[on], values[on], n)
    if np.any(d <= 0):
        raise SolverFailure("gauged system has a non-positive diagonal entry")
    minv = 1.0 / d
    r = np.array(b, dtype=float)
    z = minv * r
    p = z.copy()
    limit, it = 50 * n, 0
    with np.errstate(over="ignore", invalid="ignore"):
        rz, bz = float(r @ z), float(r @ z)
        while bz != 0.0:
            res = math.sqrt(rz / bz)
            if not math.isfinite(res):
                raise SolverFailure(f"CG scalar not finite at iteration {it}")
            if res <= rtol:
                break
            if it >= limit:
                raise SolverFailure(f"CG did not converge in {limit} iterations")
            Ap = matrix @ p
            alpha = rz / float(p @ Ap)
            x += alpha * p
            r -= alpha * Ap
            z = minv * r
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
            it += 1
    return x
