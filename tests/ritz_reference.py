"""Per-element loop references for the element tables and the Ritz kernel.

These are the plain loops that the batched tables and the one kernel
replace: each element matrix from its own quadrature, each right-hand side
from the target's plan, a dense regional Ritz solve, and the scaled-monomial
best fit on a single element.  The error of any member of the space has two
oracles: quadrature of the difference u - V at the plan's nodes, and the
expanded form uu - 2 b.x + x^T A x, whose rounding scales with the energy of
u rather than with the error.  Tests compare the fast path against them.
`masked_ritz` is the one-target global solve that the shared operator of
`ritz_each` replaces.
"""
import numpy as np

from qmloc.bestapprox import LevelFactor, SparseMatrix, SpdSystem, _error, solve_spd

from qmloc.fespace import element_affine, element_mass_matrix, reference_basis
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
    else the lowest-id node at beta = 0), solved as `ritz_each` solves: at
    degree 1 by a `LevelFactor` of that restriction, else by CG.  Returns
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
    factor = LevelFactor(A, tables.space.node_levels[free]) if tables.space.degree == 1 else None
    x = np.zeros(m)
    x[free] = solve_spd(SpdSystem(matrix=A, rhs=b[free], factor=factor))
    return float(_error(tables, w, beta, slice(None), x[en]).sum()), x
