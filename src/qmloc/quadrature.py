"""Quadrature: plain triangle rules and singularity-aware polar rules.

The plain rule is a collapsed (Duffy) Gauss--Jacobi x Gauss--Legendre product
with all weights positive and verified polynomial exactness.  Elements whose
closure contains a declared singular point get a polar sector rule centered
there: composite Gauss in the angle, and in the radius a positive rule of at
most 3 (d + 1) nodes inside the first breakpoint, exact on r**(2*mu - 1 + k),
r**(mu + k) and r**k for k <= d (the integrands of a target r**mu Phi(theta)
against polynomials; d is the plan's exactness), followed by dyadic regular
panels.  That rule is a Caratheodory subrule of a dense candidate rule, 21
geometric levels (ratio 1/2) above a Gauss--Jacobi cell weighted by
r**(2*mu - 1), with the candidate rule's moments.

A plan stores rules per similarity class, not per element: one plain class,
the reference rule, and one polar class per shape of element about its
singular point, each built once in coordinates centred there and divided by
the element diameter.  Every element keeps one affine map into its class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import PlanMismatch, PointOutsideElement, QuadratureFailure
from .mesh import Triangulation, box_point_pairs, element_affine

_GAUSS_ORDER = 10          # panels of the regular radial/angular parts
_BLOCK_NODES = 4096        # per plan block; larger blocks raise peak memory, gain little
_THETA_PANEL = math.pi / 4  # maximum angular panel width
_GRADING_RATIO = 0.5
# Relative slack of the angular panel count: atan2 of rounded vertex
# coordinates puts exact multiples of the panel width up to ~1e-14 above it.
_PANEL_SLACK = 1e-12
# Decimals of the polar class key: elements whose normalized vertices or
# breakpoints differ by more than 1e-12 never share a rule.
_KEY_DECIMALS = 12


@lru_cache(maxsize=None)
def _leggauss01(n: int):
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _gauss_jacobi(n: int, a: float, b: float):
    """Gauss--Jacobi rule for the weight (1 - x)**a (1 + x)**b on [-1, 1],
    a, b > -1 and a + b > -1, by Golub--Welsch: nodes from the eigenvalues of
    the Jacobi matrix, weights the zeroth moment times the squared first
    eigenvector components."""
    k = np.arange(1.0, n)
    s = 2.0 * k + a + b
    diag = np.concatenate([[(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))])
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    moment = math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
    return x, 2.0 ** (a + b + 1.0) * moment * v[0] ** 2


@lru_cache(maxsize=None)
def reference_triangle_rule(p: int):
    """Positive-weight rule on conv{(0,0),(1,0),(0,1)} exact to total degree p."""
    n = max(1, (p + 2) // 2)
    xj, wj = _gauss_jacobi(n, 1.0, 0.0)      # weight (1 - x) on [-1, 1]
    u = 0.5 * (xj + 1.0)
    wu = 0.25 * wj                            # absorbs the (1 - u) Jacobian
    v, wv = _leggauss01(n)
    U, V = np.meshgrid(u, v, indexing="ij")
    W = np.outer(wu, wv)
    pts = np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()])
    return pts, W.ravel()


def triangle_rule(p: int, v0, v1, v2):
    """Plain rule of exactness p on the physical triangle (v0, v1, v2)."""
    pts_ref, w_ref = reference_triangle_rule(p)
    v0 = np.asarray(v0, float)
    B = np.column_stack([np.asarray(v1, float) - v0, np.asarray(v2, float) - v0])
    return v0 + pts_ref @ B.T, w_ref * abs(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0])


def _panels(lo, hi, order: int):
    """Composite Gauss nodes and weights of `order` points on each cell
    [lo_i, hi_i], in cell order."""
    x, w = _leggauss01(order)
    lo, hi = np.asarray(lo, float)[:, None], np.asarray(hi, float)[:, None]
    return (lo + (hi - lo) * x).ravel(), ((hi - lo) * w).ravel()


# Geometric levels above the Gauss--Jacobi cell of the candidate rule, a
# floor rather than a convergence result: 0.5**21 puts the weighted innermost
# cell below 1e-6 of the singular radius.  (The cell integrates the model
# power r**(2*mu-1) exactly at any level count.)
_LEVELS = 21


@lru_cache(maxsize=None)
def _dense_singular_rule(mu: float):
    """Candidate rule for int_0^1 f(r) dr with f ~ r**(2*mu-1) near 0.

    Geometric cells [q^(k+1), q^k] for k < _LEVELS (q = _GRADING_RATIO),
    plus a Gauss--Jacobi cell on [0, q^_LEVELS] weighted by r**(2*mu-1)
    whose weights are divided back by that factor: 176 positive nodes.
    """
    ends = np.cumprod([1.0] + [_GRADING_RATIO] * _LEVELS)  # 1, q, ..., q^_LEVELS
    nodes, wts = _panels(ends[1:], ends[:-1], 8)
    hi = ends[-1]
    mu = round(mu, 12)
    beta = 2.0 * mu - 1.0
    xj, wj = _gauss_jacobi(8, 0.0, beta)
    rj = 0.5 * (xj + 1.0)
    # int_0^hi f(r) dr = hi * int_0^1 f(hi s) ds
    r = np.concatenate([nodes, hi * rj])
    w = np.concatenate([wts, hi * (0.5 ** (2.0 * mu) * wj / rj**beta)])
    r.flags.writeable = w.flags.writeable = False
    return r, w


def _singular_span(mu: float, degree: int, r):
    """The radial integrands of a target u = r**mu Phi(theta) against
    polynomials, times the polar Jacobian: r**(2*mu-1+k), r**(mu+k) and
    r**k for k <= degree, one row each (3 (degree + 1), len(r))."""
    k = np.arange(degree + 1.0)[:, None]
    return np.vstack([r ** (2.0 * mu - 1.0 + k), r ** (mu + k), r**k])


def _null_basis(C):
    """A basis of the null space of C (m, n) by Gauss--Jordan elimination,
    each row pivoted on its largest free entry: rows that eliminate to
    exactly zero (repeated functions) are skipped, no other.  Elementwise
    numpy only, no LAPACK: with two OpenBLAS threads on two cores, a complete
    QR of a 176 x 27 matrix took 0.2 s in some runs and 1.5 ms in others.

    Returns the basis as its tableau (T, own, piv): basis vector f is 1 at
    its own free column own[f], T[f, k] at pivot column piv[k] and 0
    elsewhere; T is (n - rank, rank), own (n - rank,) and piv (rank,)."""
    A = C.copy()
    free = np.ones(A.shape[1], dtype=bool)
    rows, cols = [], []
    for i in range(len(A)):
        p = int(np.argmax(np.where(free, np.abs(A[i]), 0.0)))
        if not free[p] or A[i, p] == 0.0:
            continue
        A[i] /= A[i, p]
        factor = A[:, p].copy()
        factor[i] = 0.0
        A -= np.outer(factor, A[i])
        free[p] = False
        rows.append(i)
        cols.append(p)
    own = np.flatnonzero(free)
    return np.ascontiguousarray(-A[np.ix_(rows, own)].T), own, np.array(cols, dtype=np.intp)


@lru_cache(maxsize=None)
def _unit_singular_rule(mu: float, degree: int):
    """Rule for int_0^1 f(r) dr, exact for f in `_singular_span(mu, degree)`
    wherever `_dense_singular_rule(mu)` is: a positive subrule of it with
    the same moments and at most 3 (degree + 1) nodes, in candidate order.

    Caratheodory--Tchakaloff elimination: with C_ij = f_i(r_j) w_j / m_i
    (m_i the dense moments, so C @ 1 = 1), the multipliers lam = 1 move
    along a null vector of C until the first reaches 0; that node leaves
    the null basis by one pivoted elimination step, and the steps repeat
    until the basis is empty.  Of the two signs of the null vector (both
    have positive entries: the row of r**0 sums it to 0) the step takes the
    one that lowers sum(lam / r), moving weight away from the origin: a plan
    maps nodes by x = s + h p, and x - s keeps fewer digits the closer the
    node is to s.  The rule is scale invariant: int_0^c f dr takes nodes c*r
    and weights c*w.  Callers round mu to 12 decimals.

    The steps run on the tableau of `_null_basis`, which every step keeps:
    a node that is a vector's own column only drops that vector, and a
    pivot-column node is a basis exchange, the pivot vector's own column
    taking the node's place among the pivots.  The entries outside the
    tableau would only have 0 subtracted, so each tableau entry takes the
    operations, in the order, of the same step on whole null vectors; the
    null vector of a step is scattered to length n before its dot with 1/r.
    """
    r, w = _dense_singular_rule(mu)
    C = _singular_span(mu, degree, r) * w
    C /= C.sum(axis=1, keepdims=True)
    T, own, piv = _null_basis(C)
    own = own.tolist()
    pivot = {c: k for k, c in enumerate(piv.tolist())}  # pivot column: its index in piv
    vector = {c: f for f, c in enumerate(own)}  # own column: its basis vector
    n = len(r)
    step = np.empty_like(T)
    lam, inv_r = np.ones(n), 1.0 / r
    for last in range(len(T) - 1, -1, -1):
        v = np.zeros(n)
        v[own[0]], v[piv] = 1.0, T[0]
        v = v if v @ inv_r >= 0.0 else -v
        ratio = np.divide(lam, v, out=np.full(n, np.inf), where=v > 0)
        j = int(ratio.argmin())
        lam = np.maximum(lam - ratio[j] * v, 0.0)  # a tie may round below 0
        lam[j] = 0.0
        if j in pivot:  # eliminate j; the vector p leaves, its own column enters
            k = pivot.pop(j)
            col = T[:, k]
            p = int(np.abs(col).argmax())
            c = float(col[p])
            entering = -(col * (1.0 / c))
            T -= np.multiply.outer(col, T[p] / c, out=step[:last + 1])
            T[:, k], piv[k], pivot[own[p]] = entering, own[p], k
        else:  # j is the own column of one vector: it leaves the basis
            p = vector[j]
        T[p], own[p] = T[last], own[last]
        vector[own[p]] = p
        T = T[:last]
        own.pop()
    keep = np.flatnonzero(lam)
    r, w = r[keep], w[keep] * lam[keep]
    r.flags.writeable = w.flags.writeable = False
    return r, w


def _radial_rules(extents, mu: float, breakpoints=(), degree: int = 8):
    """Composite rules for int_0^R f(r) dr, one per extent R, laid out in
    one pass: (nodes, weights, node count per extent), the rules of the
    extents concatenated in order.  Each rule is the scaled
    `_unit_singular_rule` of span degree `degree` inside the first
    breakpoint (or R), then composite Gauss on dyadic panels between the
    further breakpoints, so that profile kinks sit on cell boundaries.
    Raises QuadratureFailure for an extent or a breakpoint that is not
    positive and finite or an exponent that is not, at `_KEY_DECIMALS`
    decimals; a breakpoint at or beyond an extent only lies outside its ray."""
    bad = [R for R in extents if not 0.0 < R < math.inf]
    if bad:
        raise QuadratureFailure(f"radial extent {bad[0]!r} is not positive and finite")
    _require_breakpoints(breakpoints)
    key = round(mu, _KEY_DECIMALS)
    if not 0.0 < key < math.inf:
        raise QuadratureFailure(f"singular exponent {mu!r} is not positive and finite "
                                f"at {_KEY_DECIMALS} decimals")
    r1, w1 = _unit_singular_rule(key, degree)
    bps = sorted(breakpoints)
    c0s, cells, lefts, rights = [], [], [], []
    for R in extents:
        cuts = [b for b in bps if 0.0 < b < R]
        c0 = cuts[0] if cuts else R
        edges = [c0] + cuts[1:] + [R]
        start = len(lefts)
        for lo, hi in zip(edges[:-1], edges[1:]):
            # dyadic panels away from the origin resolve 1/r-type variation
            while lo < hi - 1e-15 * R:
                lefts.append(lo)
                lo = min(2.0 * lo, hi)
                rights.append(lo)
        c0s.append(c0)
        cells.append(len(lefts) - start)
    counts = len(r1) + _GAUSS_ORDER * np.array(cells, dtype=np.int64)
    singular = (np.cumsum(counts) - counts)[:, None] + np.arange(len(r1))
    regular = np.ones(int(counts.sum()), dtype=bool)
    regular[singular] = False
    r, w = np.empty(len(regular)), np.empty(len(regular))
    c0 = np.array(c0s)[:, None]
    r[singular], w[singular] = c0 * r1, c0 * w1
    r[regular], w[regular] = _panels(lefts, rights, _GAUSS_ORDER)
    return r, w, counts


def _require_breakpoints(breakpoints):
    """Raise QuadratureFailure naming the first radial breakpoint that is not
    positive and finite."""
    bad = [b for b in breakpoints if not 0.0 < b < math.inf]
    if bad:
        raise QuadratureFailure(f"radial breakpoint {float(bad[0])!r} is not positive and finite")


def radial_rule(R: float, mu: float, breakpoints=(), degree: int = 8):
    """Composite rule for int_0^R f(r) dr with an r**mu profile kink list:
    the one-extent call of `_radial_rules`."""
    r, w, _ = _radial_rules([R], mu, breakpoints, degree)
    return r, w


def _sector_rule(s, p, p2, mu, breakpoints, degree):
    """Polar rule (weight includes the r Jacobian) on triangle (s, p, p2)
    with the singular point at vertex s: composite Gauss rays in the angle,
    each ray's extent to the edge (p, p2) from one cos/sin and one dot, and
    the radial rules of all rays laid out by one `_radial_rules` call and
    mapped by one broadcast."""
    s = np.asarray(s, float)
    a, b = np.asarray(p, float) - s, np.asarray(p2, float) - s
    if a[0] * b[1] - a[1] * b[0] < 0:
        a, b = b, a
    th0 = math.atan2(a[1], a[0])
    dth = math.atan2(b[1], b[0]) - th0
    dth = dth % (2.0 * math.pi)
    n_panels = max(1, math.ceil(dth / _THETA_PANEL * (1.0 - _PANEL_SLACK)))
    edges = np.linspace(0.0, dth, n_panels + 1)
    tt, wt = _panels(edges[:-1], edges[1:], _GAUSS_ORDER)
    # distance to the line through p, p2 along direction theta
    nrm = np.array([-(b - a)[1], (b - a)[0]])
    d0 = float(nrm @ a)
    dirs = np.array([[math.cos(th0 + t), math.sin(th0 + t)] for t in tt.tolist()])
    extents = [d0 / float(nrm @ d) for d in dirs]
    rr, wr, counts = _radial_rules(extents, mu, breakpoints, degree)
    ray = np.repeat(np.arange(len(tt)), counts)
    return s + rr[:, None] * dirs[ray], wt[ray] * wr * rr  # polar Jacobian r


def polar_triangle_rule(v0, v1, v2, singular_xy, mu, breakpoints=(), degree: int = 8):
    """Polar composite rule on a triangle containing a singular point s, its
    radial rules of span degree `degree` (see `radial_rule`): one sector
    rule per sub-sector (s, v_i, v_(i+1)), in edge order.  A sub-sector is
    skipped when an end of its edge lies within 1e-12 h of s or its doubled
    area is at most 1e-14 h**2 (h the diameter), so a point at a vertex
    takes the one sector of the opposite edge and a point on an edge the
    two of the other edges.
    """
    verts = [np.asarray(v, float) for v in (v0, v1, v2)]
    s = np.asarray(singular_xy, float)
    h = max(np.linalg.norm(verts[i] - verts[j]) for i in range(3) for j in range(i))
    pts, wts = [], []
    for p, p2 in zip(verts, verts[1:] + verts[:1]):
        area2 = abs((p[0] - s[0]) * (p2[1] - s[1]) - (p[1] - s[1]) * (p2[0] - s[0]))
        near = min(np.linalg.norm(p - s), np.linalg.norm(p2 - s))
        if near <= 1e-12 * h or area2 <= 1e-14 * h * h:
            continue
        sp, sw = _sector_rule(s, p, p2, mu, breakpoints, degree)
        pts.append(sp)
        wts.append(sw)
    return np.vstack(pts), np.concatenate(wts)


@dataclass(frozen=True)
class QuadraturePlan:
    """Quadrature over a triangulation: a few class rules and one affine map
    per element.

    Class c holds nodes and weights in its own coordinates and the same nodes
    in the reference triangle of its elements: ``rules[c] = (points (n, 2),
    weights (n,), reference points (n, 2))``.  Element k of class
    ``element_class[k]`` has nodes ``origin[k] + linear[k] @ p`` and weights
    ``scale[k] * w``.  Class 0 is `reference_triangle_rule` under each
    element's own map; a polar class is centred at the singular point s and
    divided by the element diameter h, mapped by x = s + h p with weights
    scaled by h**2.  ``element_point[k]`` is the index of that s among the
    target's singular points, -1 for a plain element.
    """

    tri: Triangulation
    rules: tuple
    element_class: np.ndarray  # (nt,)
    origin: np.ndarray         # (nt, 2)
    linear: np.ndarray         # (nt, 2, 2)
    scale: np.ndarray          # (nt,)
    exactness: int
    element_point: np.ndarray  # (nt,)

    @property
    def singular_elements(self) -> tuple:
        """The ids of the polar elements, ascending."""
        return tuple(np.flatnonzero(self.element_point >= 0).tolist())

    @cached_property
    def weights(self) -> tuple:
        """Read-only weights of each element, built on first access."""
        out = tuple(self.scale[k] * self.rules[c][1] for k, c in enumerate(self.element_class))
        for w in out:
            w.flags.writeable = False
        return out

    def element_rule(self, k: int):
        p, w, _ = self.rules[self.element_class[k]]
        return self.origin[k] + p @ self.linear[k].T, self.scale[k] * w

    def blocks(self):
        """Elements of one class stacked in blocks of at most `_BLOCK_NODES`
        nodes (one element at least), mapped one block at a time: yields
        (class id, element ids (K,), points (K, n, 2), weights (K, n),
        about).  In a plain block about is None and the points are physical;
        in a polar block about is `element_point` (K,) and the points are
        the offsets h p from those singular points, s not added."""
        order = np.argsort(self.element_class, kind="stable")
        bounds = np.searchsorted(self.element_class[order], np.arange(len(self.rules) + 1))
        for c, (p, w, _) in enumerate(self.rules):
            group = order[bounds[c]:bounds[c + 1]]
            per = max(1, _BLOCK_NODES // len(w))
            for start in range(0, len(group), per):
                ks = group[start:start + per]
                pts, about = p @ self.linear[ks].transpose(0, 2, 1), self.element_point[ks]
                if c == 0:
                    pts, about = self.origin[ks, None, :] + pts, None
                yield c, ks, pts, self.scale[ks, None] * w, about

    def require_mesh(self, tri: Triangulation):
        """Raise PlanMismatch unless the plan has tri's element count, and
        PointOutsideElement unless every plan element has the vertices of the
        element of tri with its id, in the same order, to 1e-10 h (else it is
        a plan of another mesh, its nodes outside the elements read)."""
        nt = tri.n_elements
        if len(self.element_class) != nt:
            raise PlanMismatch(f"plan covers {len(self.element_class)} elements, the space {nt}")
        if self.tri is tri:
            return
        gap = np.abs(self.tri.vertices[self.tri.triangles] - tri.vertices[tri.triangles])
        off = gap.max(axis=(1, 2)) > 1e-10 * tri.diameters
        if off.any():
            raise PointOutsideElement(f"plan element {np.flatnonzero(off)[0]} lies outside "
                                      "the element of that id: a plan of another mesh")


def _locate(tri: Triangulation, xy):
    """Per element, the index of the first point of `xy` lying in it
    (reference coordinates xi >= -1e-10, xi0 + xi1 <= 1 + 1e-10), or -1.

    Candidates come from `mesh.box_point_pairs` on the element bounding
    boxes, padded to cover the tolerance; each is decided by one 2x2 solve.
    """
    tol = 1e-10
    v = tri.vertices[tri.triangles]
    # the triangle enlarged by tol in reference coordinates lies within
    # 3 * tol * diameter of it
    pad = 4.0 * tol * tri.diameters[:, None]
    first = np.full(tri.n_elements, len(xy), dtype=np.int64)
    for k, i in box_point_pairs(xy, v.min(axis=1) - pad, v.max(axis=1) + pad,
                                tri.diameters.mean()):
        B = np.stack([v[k, 1] - v[k, 0], v[k, 2] - v[k, 0]], axis=-1)
        xi = np.linalg.solve(B, (xy[i] - v[k, 0])[:, :, None])[:, :, 0]
        inside = (xi[:, 0] >= -tol) & (xi[:, 1] >= -tol) & (xi[:, 0] + xi[:, 1] <= 1.0 + tol)
        np.minimum.at(first, k[inside], i[inside])
    return np.where(first == len(xy), -1, first).tolist()


def plan_key(target) -> tuple:
    """The singular points of `target` (possibly none): all that
    `make_quadrature_plan` reads from it, so targets with equal keys can
    share a plan."""
    return tuple(getattr(target, "singular_points", ()) or ())


def _key(x) -> bytes:
    return (np.round(x, _KEY_DECIMALS) + 0.0).tobytes()  # + 0.0 turns -0.0 into 0.0


def make_quadrature_plan(tri: Triangulation, target, exactness: int = 8) -> QuadraturePlan:
    """Plain rules away from singular points, polar rules where one is present.

    A polar element's class key is its vertices relative to the singular
    point s, divided by its diameter h and in `tri.triangles` order, the
    exponent and the breakpoints divided by h, each rounded to
    `_KEY_DECIMALS`; `polar_triangle_rule` runs once per key, its radial
    span degree `exactness`.  `target` only needs a `singular_points`
    attribute (possibly empty); see `plan_key`.  Raises QuadratureFailure,
    before any element is located, for a radial breakpoint that is not
    positive and finite.
    """
    singular = plan_key(target)
    for sp in singular:
        _require_breakpoints(sp.radial_breakpoints)
    hits = np.array(_locate(tri, np.array([sp.xy for sp in singular], dtype=float))
                    if singular else [-1] * tri.n_elements, dtype=np.int64)
    origin, linear = element_affine(tri)
    scale = 2.0 * tri.areas  # |det| of each element's map
    pts_ref, w_ref = reference_triangle_rule(exactness)
    rules = [(pts_ref, w_ref, pts_ref)]
    element_class = np.zeros(tri.n_elements, dtype=np.int64)
    polar = np.flatnonzero(hits >= 0)
    marks = [singular[i] for i in hits[polar]]
    s = np.array([sp.xy for sp in marks]).reshape(-1, 2)
    h = tri.diameters[polar]
    q = (tri.vertices[tri.triangles[polar]] - s[:, None]) / h[:, None, None]
    classes = {}
    for j, sp in enumerate(marks):
        bp = np.asarray(sp.radial_breakpoints, dtype=float) / h[j]
        key = (_key(q[j]), round(sp.exponent, _KEY_DECIMALS), _key(bp))
        if key not in classes:
            q0, q1, q2 = q[j]
            p, w = polar_triangle_rule(q0, q1, q2, (0.0, 0.0), sp.exponent, bp.tolist(),
                                       exactness)
            ref = np.linalg.solve(np.column_stack([q1 - q0, q2 - q0]), (p - q0).T).T
            classes[key] = len(rules)
            rules.append((p, w, ref))
        element_class[polar[j]] = classes[key]
    origin[polar], linear[polar], scale[polar] = s, h[:, None, None] * np.eye(2), h * h
    return QuadraturePlan(tri=tri, rules=tuple(rules), element_class=element_class,
                          origin=origin, linear=linear, scale=scale, exactness=exactness,
                          element_point=hits)
