"""Quadrature: plain triangle rules and singularity-aware polar rules.

The plain rule is a collapsed (Duffy) Gauss--Jacobi x Gauss--Legendre product
with all weights positive and verified polynomial exactness.  Elements whose
closure contains a declared singular point get a polar sector rule centered
there: composite Gauss in the angle, and in the radius a geometrically graded
composite rule (ratio q) above a weighted Gauss--Jacobi cell that absorbs the
r**(2*mu - 1) behaviour of energy integrands.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import PlanMismatch, QuadratureFailure, SingularPointOnQuadratureNode
from .mesh import Triangulation

_GAUSS_ORDER = 10          # panels of the regular radial/angular parts
_THETA_PANEL = math.pi / 4  # maximum angular panel width
_GRADING_RATIO = 0.5
_DEFAULT_RTOL = 1e-8


@lru_cache(maxsize=None)
def _leggauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def reference_triangle_rule(p: int):
    """Positive-weight rule on conv{(0,0),(1,0),(0,1)} exact to total degree p."""
    n = max(1, (p + 2) // 2)
    xj, wj = roots_jacobi(n, 1.0, 0.0)       # weight (1 - x) on [-1, 1]
    u = 0.5 * (xj + 1.0)
    wu = 0.25 * wj                            # absorbs the (1 - u) Jacobian
    v, wv = _leggauss01(n)
    U, V = np.meshgrid(u, v, indexing="ij")
    W = np.outer(wu, wv)
    pts = np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()])
    return pts, W.ravel()


def map_rule_to_triangle(pts_ref, w_ref, v0, v1, v2):
    B = np.column_stack([v1 - v0, v2 - v0])
    pts = v0 + pts_ref @ B.T
    return pts, w_ref * abs(np.linalg.det(B))


def triangle_rule(p: int, v0, v1, v2):
    """Plain rule of exactness p on the physical triangle (v0, v1, v2)."""
    pts_ref, w_ref = reference_triangle_rule(p)
    return map_rule_to_triangle(pts_ref, w_ref, np.asarray(v0, float), np.asarray(v1, float), np.asarray(v2, float))


def _panels(a: float, b: float, n_panels: int, order: int):
    """Composite Gauss nodes/weights for int_a^b f."""
    x, w = _leggauss01(order)
    edges = np.linspace(a, b, n_panels + 1)
    nodes, wts = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes.append(lo + (hi - lo) * x)
        wts.append((hi - lo) * w)
    return np.concatenate(nodes), np.concatenate(wts)


@lru_cache(maxsize=None)
def _jacobi_cell(n: int, mu: float):
    """Nodes/weights on [0, 1] for int r**(2*mu-1) g(r) dr, returned as a
    plain rule (weights already divided by the r**(2*mu-1) factor)."""
    beta = 2.0 * mu - 1.0
    x, w = roots_jacobi(n, 0.0, beta)
    r = 0.5 * (x + 1.0)
    scale = 0.5 ** (2.0 * mu)
    wr = scale * w / r**beta
    return r, wr


def graded_levels(mu: float, q: float = _GRADING_RATIO, rtol: float = _DEFAULT_RTOL) -> int:
    """Grading levels so successive estimates of the model integrand
    r**(2*mu-1) agree to rtol (the innermost Jacobi cell makes this fast)."""
    # floor of 20 levels: pushes the weighted innermost cell below 1e-6 of
    # the singular radius, so integrands that deviate from the model power
    # contribute only a negligible residual there
    prev = None
    for L in range(20, 80):
        r, w = _radial_singular_rule(1.0, mu, q, L)
        est = float(w @ r ** (2.0 * mu - 1.0))
        if prev is not None and abs(est - prev) <= 0.1 * rtol * abs(est):
            return L
        prev = est
    raise QuadratureFailure(f"graded rule did not settle for mu={mu}")


def _radial_singular_rule(c: float, mu: float, q: float, L: int):
    """Rule for int_0^c f(r) dr with f ~ r**(2*mu-1) near 0.

    Geometric cells [c*q^(k+1), c*q^k] for k < L, plus a Gauss--Jacobi cell
    on [0, c*q^L] weighted by r**(2*mu-1).
    """
    x, w = _leggauss01(8)
    nodes, wts = [], []
    hi = c
    for _ in range(L):
        lo = hi * q
        nodes.append(lo + (hi - lo) * x)
        wts.append((hi - lo) * w)
        hi = lo
    rj, wj = _jacobi_cell(8, round(mu, 12))
    nodes.append(hi * rj)
    wts.append(hi * wj)  # int_0^hi f(r) dr = hi * int_0^1 f(hi s) ds
    return np.concatenate(nodes), np.concatenate(wts)


def radial_rule(R: float, mu: float, breakpoints=(), q: float = _GRADING_RATIO,
                rtol: float = _DEFAULT_RTOL, levels: int | None = None):
    """Composite rule for int_0^R f(r) dr with an r**mu profile kink list.

    The first breakpoint (or R) bounds the singular part; further
    breakpoints split the regular part so that profile kinks sit on cell
    boundaries.
    """
    if R <= 0:
        raise QuadratureFailure("radial extent must be positive")
    cuts = sorted(b for b in breakpoints if 0.0 < b < R)
    c0 = cuts[0] if cuts else R
    L = levels if levels is not None else graded_levels(mu, q, rtol)
    nodes, wts = _radial_singular_rule(c0, mu, q, L)
    parts_n, parts_w = [nodes], [wts]
    edges = [c0] + cuts[1:] + [R]
    x01, w01 = _leggauss01(_GAUSS_ORDER)
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= 1e-15 * R:
            continue
        # dyadic panels away from the origin resolve 1/r-type variation
        left = lo
        while left < hi - 1e-15 * R:
            right = min(2.0 * left, hi)
            parts_n.append(left + (right - left) * x01)
            parts_w.append((right - left) * w01)
            left = right
    return np.concatenate(parts_n), np.concatenate(parts_w)


def _sector_rule(s, p, p2, mu, breakpoints, rtol, levels):
    """Polar rule (weight includes the r Jacobian) on triangle (s, p, p2)
    with the singular point at vertex s."""
    s = np.asarray(s, float)
    a, b = np.asarray(p, float) - s, np.asarray(p2, float) - s
    if a[0] * b[1] - a[1] * b[0] < 0:
        a, b = b, a
    th0 = math.atan2(a[1], a[0])
    dth = math.atan2(b[1], b[0]) - th0
    dth = dth % (2.0 * math.pi)
    n_panels = max(1, math.ceil(dth / _THETA_PANEL))
    tt, wt = _panels(0.0, dth, n_panels, _GAUSS_ORDER)
    # distance to the line through p, p2 along direction theta
    nrm = np.array([-(b - a)[1], (b - a)[0]])
    d0 = float(nrm @ a)
    pts, wts = [], []
    for t, w_t in zip(tt, wt):
        th = th0 + t
        dirv = np.array([math.cos(th), math.sin(th)])
        denom = float(nrm @ dirv)
        Rth = d0 / denom
        rr, wr = radial_rule(Rth, mu, breakpoints, rtol=rtol, levels=levels)
        pts.append(s + rr[:, None] * dirv)
        wts.append(w_t * wr * rr)  # polar Jacobian r
    return np.vstack(pts), np.concatenate(wts)


def polar_triangle_rule(v0, v1, v2, singular_xy, mu, breakpoints=(),
                        rtol: float = _DEFAULT_RTOL, levels: int | None = None):
    """Polar composite rule on a triangle containing a singular point.

    The point may be a vertex (single sector) or lie on an edge / inside
    (the triangle is fanned into sub-sectors about it).
    """
    verts = [np.asarray(v, float) for v in (v0, v1, v2)]
    s = np.asarray(singular_xy, float)
    h = max(np.linalg.norm(verts[i] - verts[j]) for i in range(3) for j in range(i))
    for i in range(3):
        if np.linalg.norm(verts[i] - s) <= 1e-12 * h:
            others = [verts[j] for j in range(3) if j != i]
            pts, wts = _sector_rule(s, others[0], others[1], mu, breakpoints, rtol, levels)
            break
    else:
        pts_l, wts_l = [], []
        for i in range(3):
            p, p2 = verts[i], verts[(i + 1) % 3]
            area2 = abs((p[0] - s[0]) * (p2[1] - s[1]) - (p[1] - s[1]) * (p2[0] - s[0]))
            if area2 <= 1e-14 * h * h:
                continue
            sp, sw = _sector_rule(s, p, p2, mu, breakpoints, rtol, levels)
            pts_l.append(sp)
            wts_l.append(sw)
        pts, wts = np.vstack(pts_l), np.concatenate(wts_l)
    if np.any(np.linalg.norm(pts - s, axis=1) <= 1e-300):
        raise SingularPointOnQuadratureNode("quadrature node hit the singular point")
    return pts, wts


@dataclass(frozen=True)
class QuadraturePlan:
    """Per-element quadrature nodes and weights over a triangulation."""

    tri: Triangulation
    points: tuple      # per element: (n_k, 2)
    weights: tuple     # per element: (n_k,)
    exactness: int
    rtol: float
    singular_elements: tuple

    def element_rule(self, k: int):
        return self.points[k], self.weights[k]


def _point_in_triangle(v0, v1, v2, p, tol):
    B = np.column_stack([v1 - v0, v2 - v0])
    xi = np.linalg.solve(B, p - v0)
    return xi[0] >= -tol and xi[1] >= -tol and xi[0] + xi[1] <= 1.0 + tol


def make_quadrature_plan(tri: Triangulation, target, exactness: int = 8,
                         rtol: float = _DEFAULT_RTOL) -> QuadraturePlan:
    """Plain rules away from singular points, polar rules where one is present.

    `target` only needs a `singular_points` attribute (possibly empty).
    """
    singular = tuple(getattr(target, "singular_points", ()) or ())
    level_cache = {sp: graded_levels(sp.exponent, rtol=rtol) for sp in set(singular)}
    pts_all, wts_all, polar_ids = [], [], []
    for k in range(tri.n_elements):
        v0, v1, v2 = tri.vertices[tri.triangles[k]]
        hit = None
        for sp in singular:
            if _point_in_triangle(v0, v1, v2, sp.xy, 1e-10):
                hit = sp
                break
        if hit is None:
            p, w = triangle_rule(exactness, v0, v1, v2)
        else:
            p, w = polar_triangle_rule(
                v0, v1, v2, hit.xy, hit.exponent, hit.radial_breakpoints,
                rtol=rtol, levels=level_cache[hit],
            )
            polar_ids.append(k)
        pts_all.append(p)
        wts_all.append(w)
    return QuadraturePlan(
        tri=tri,
        points=tuple(pts_all),
        weights=tuple(wts_all),
        exactness=exactness,
        rtol=rtol,
        singular_elements=tuple(polar_ids),
    )


def integrate(f, region, plan: QuadraturePlan) -> float:
    """Sum of per-element quadrature of f over the element set `region`.

    Deterministic: elements in ascending id order, nodes in rule order.
    f maps an (n, 2) array to (n,) values.
    """
    total = 0.0
    for k in sorted(int(k) for k in region):
        if k < 0 or k >= plan.tri.n_elements:
            raise PlanMismatch(f"element {k} not covered by the plan")
        pts, wts = plan.element_rule(k)
        total += float(wts @ np.asarray(f(pts), dtype=float))
    return total
