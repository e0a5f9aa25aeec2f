"""Closed-form demonstration problems for the localization experiments.

Three families:

* a six-triangle hexagonal domain with an alternating high/low coefficient
  and a target whose global best error stays O(1) while every localized
  error sum shrinks with the contrast;
* the two four-triangle square tilings used to illustrate the
  quasi-monotonicity classifier (one quasi-monotone for large contrast, one
  checkerboard-like and never quasi-monotone away from the constant case);
* an N x N array of rescaled copies of the hexagon target on a uniform
  checkerboard mesh of the unit square, where localization on vertex stars
  fails as N grows.
"""
from __future__ import annotations

import numpy as np

from .coeff import Coefficient, attach_coefficient
from .errors import ParameterOutOfRange
from .fields import SingularPoint, TargetField
from .mesh import Triangulation, build_triangulation, uniform_refine

_HEX_VERTICES = np.array(
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 1.0],
     [-1.0, 0.0], [0.0, -1.0], [1.0, -1.0]]
)
_HEX_TRIANGLES = np.array(
    [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 6], [0, 6, 1]]
)

EPS_MIN, EPS_MAX = 1e-3, 0.5


def hexagon_mesh(eps: float) -> tuple[Triangulation, Coefficient]:
    """Hexagon {-1<=x,y<=1, -1<=x+y<=1} as six triangles around the origin,
    coefficient 1 on the two quadrant triangles and eps^2 elsewhere."""
    if not 0.0 < eps <= 1.0:
        raise ParameterOutOfRange(f"eps must lie in (0, 1], got {eps}")
    tri = build_triangulation(_HEX_VERTICES, _HEX_TRIANGLES)
    e2 = eps * eps
    coeff = attach_coefficient(tri, [1.0, e2, e2, 1.0, e2, e2])
    return tri, coeff


def radial_profile(eps: float, r):
    """Continuous profile: (1-eps)(r/eps)^eps below eps, 1-r up to 1, then 0."""
    r = np.asarray(r, float)
    out = np.zeros_like(r)
    inner = r < eps
    mid = (r >= eps) & (r <= 1.0)
    out[inner] = (1.0 - eps) * (r[inner] / eps) ** eps
    out[mid] = 1.0 - r[mid]
    return out


def radial_profile_derivative(eps: float, r):
    r = np.asarray(r, float)
    out = np.zeros_like(r)
    rs = np.where(r > 0, r, 1.0)
    inner = r < eps
    mid = (r >= eps) & (r <= 1.0)
    out[inner] = (1.0 - eps) * eps * (rs[inner] / eps) ** eps / rs[inner]
    out[mid] = -1.0
    return out


def hexagon_target(eps: float) -> TargetField:
    """The piecewise target on the hexagon.

    On the second-quadrant triangles: radial profile times the angular ramp
    3 - 4*theta/pi.  On the first-quadrant triangle: the radial profile
    inside the ball of radius eps and the explicit extension
    w + eps*utilde outside it, where w = 1-x-y and utilde interpolates the
    ball trace to zero on the outer edge.  The lower half is the point
    reflection u(x, y) = -u(-x, -y).
    """
    if not EPS_MIN <= eps <= EPS_MAX:
        raise ParameterOutOfRange(
            f"eps must lie in [{EPS_MIN}, {EPS_MAX}] for resolvable quadrature, got {eps}"
        )

    def upper(P):
        """Values and gradients at points P of the closed upper half plane."""
        xs, ys = P[:, 0], P[:, 1]
        r = np.hypot(xs, ys)
        rs = np.where(r > 0, r, 1.0)
        rho, drho = radial_profile(eps, r), radial_profile_derivative(eps, r)
        u, g = np.zeros_like(xs), np.zeros_like(P)
        q1 = xs >= 0  # first quadrant (ys >= 0 throughout)
        ball = q1 & (r < eps)
        u[ball] = rho[ball]
        g[ball] = drho[ball, None] * P[ball] / rs[ball, None]
        outer = q1 & ~ball
        xo, yo, ro = xs[outer], ys[outer], rs[outer]
        A = (xo + yo) / ro
        w = 1.0 - xo - yo
        den = 1.0 - eps * A
        u[outer] = w + eps * (A - 1.0) * w / den
        common, slope = w * (1.0 - eps) / den**2, (A - 1.0) / den
        g[outer, 0] = -1.0 + eps * (yo * (yo - xo) / ro**3 * common - slope)
        g[outer, 1] = -1.0 + eps * (xo * (xo - yo) / ro**3 * common - slope)
        q2 = ~q1
        xq, yq, rq = xs[q2], ys[q2], rs[q2]
        ang = 3.0 - 4.0 * np.arctan2(yq, xq) / np.pi
        u[q2] = rho[q2] * ang
        dang = drho[q2] * ang
        k = (-4.0 / np.pi) * rho[q2]
        g[q2, 0] = dang * (xq / rq) - k * (yq / rq) / rq
        g[q2, 1] = dang * (yq / rq) + k * (xq / rq) / rq
        return u, g

    def fn(pts):
        x, y = pts[:, 0], pts[:, 1]
        sign = np.where((y > 0) | ((y == 0) & (x >= 0)), 1.0, -1.0)
        u, g = upper(sign[:, None] * pts)
        return sign * u, g  # point reflection makes the gradient even

    # the singular point is the origin: offsets from it are the points
    return TargetField(fn, singular_points=(SingularPoint((0.0, 0.0), eps, (eps, 1.0)),),
                       offset_fn=lambda offsets, about: fn(offsets))


def analytic_energy_reference(eps: float) -> dict:
    """Closed-form energies of the hexagon target.

    ball_gradient_sq: squared gradient norm of the radial profile over the
    ball of radius eps.  profile_sq_over_r: the 1D integral of profile^2/r
    over (0, 1); bounded by 1/(2 eps) - ln eps.  low_region_energy_sq: the
    eps^2-weighted squared energy over the two second-quadrant triangles.
    """
    if not 0.0 < eps < 1.0:
        raise ParameterOutOfRange(f"eps must lie in (0, 1), got {eps}")
    one = (1.0 - eps) ** 2
    ball = np.pi * eps * one
    profile = one / (2.0 * eps) - 1.5 - np.log(eps) + 2.0 * eps - eps * eps / 2.0
    low = eps * eps * (
        (np.pi / 6.0) * (eps * one / 2.0 + (1.0 - eps * eps) / 2.0)
        + (8.0 / np.pi) * profile
    )
    return {
        "ball_gradient_sq": ball,
        "profile_sq_over_r": profile,
        "profile_sq_over_r_bound": 1.0 / (2.0 * eps) - np.log(eps),
        "low_region_energy_sq": low,
    }


_FIG1_VERTICES = np.array(
    [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [0.0, 0.0]]
)
_FIG1_TRIANGLES = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
# element order: bottom, right, top, left


def _fig1_values(M: float, side: str) -> np.ndarray:
    if side == "left":
        return np.array([M / 2.0, 1.0, M, 3.0 * M / 4.0])
    if side == "right":
        return np.array([M, 1.0, M, 1.0])
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def fig1_meshes(M: float, side: str) -> tuple[Triangulation, Coefficient]:
    """Four-triangle square tilings of [-1,1]^2 meeting at the origin.

    side='left': values M/2 (bottom), 1 (right), M (top), 3M/4 (left) —
    quasi-monotone for M >= 2.  side='right': M on top/bottom, 1 on
    left/right — the checkerboard-like case, quasi-monotone only for M = 1.
    """
    if M <= 0:
        raise ParameterOutOfRange(f"M must be positive, got {M}")
    values = _fig1_values(M, side)
    tri = build_triangulation(_FIG1_VERTICES, _FIG1_TRIANGLES)
    return tri, attach_coefficient(tri, values)


def fig1_left_values(alpha: float) -> np.ndarray:
    """The coefficient of the 'left' tiling with contrast alpha on its four
    triangles (bottom, right, top, left): 1 for alpha = 1, the values of
    `fig1_meshes` with M = 1/alpha for alpha <= 1/2.  Raises
    ParameterOutOfRange for any other alpha."""
    if not 0.0 < alpha <= 1.0:
        raise ParameterOutOfRange(f"alpha must lie in (0, 1], got {alpha}")
    if alpha == 1.0:
        return np.ones(4)
    if alpha > 0.5:
        raise ParameterOutOfRange(
            "the tiling is quasi-monotone only for alpha = 1 or alpha <= 1/2"
        )
    return _fig1_values(1.0 / alpha, "left")


def fig1_refined(refines: int) -> tuple[Triangulation, np.ndarray]:
    """The square of `fig1_meshes` after `refines` uniform refinements, and
    the coarse triangle under each fine one (the composed `parents`)."""
    if refines < 0:
        raise ParameterOutOfRange(f"refines must be >= 0, got {refines}")
    tri = build_triangulation(_FIG1_VERTICES, _FIG1_TRIANGLES)
    coarse = np.arange(tri.n_elements)
    for _ in range(refines):
        tri = uniform_refine(tri)
        coarse = coarse[tri.parents]
    return tri, coarse


def fig1_left_pattern(alpha: float, refines: int = 0) -> tuple[Triangulation, Coefficient]:
    """Quasi-monotone tiling with contrast alpha = min(a)/max(a).

    alpha=1 gives the constant coefficient; alpha <= 1/2 uses the 'left'
    tiling with M = 1/alpha.  Optional uniform refinements keep the
    coefficient subordinate to the four regions.
    """
    values = fig1_left_values(alpha)
    tri, coarse = fig1_refined(refines)
    return tri, attach_coefficient(tri, values[coarse])


def checkerboard_mesh(N: int) -> tuple[Triangulation, Coefficient]:
    """[0,1]^2 as 4N^2 squares of side 1/(2N), each split along its
    top-left-to-bottom-right diagonal; a = 1/N^2 on black squares (top-left
    square black, colors alternating), 1 on white."""
    if N < 1:
        raise ParameterOutOfRange(f"N must be >= 1, got {N}")
    n = 2 * N
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs)  # vertex j (n + 1) + i at (xs[i], xs[j])
    j, i = np.divmod(np.arange(n * n), n)  # squares row by row
    bl = j * (n + 1) + i
    br, tl = bl + 1, bl + n + 1
    # diagonal tl -> br
    tris = np.stack([bl, br, tl, br, tl + 1, tl], axis=1).reshape(-1, 3)
    tri = build_triangulation(np.column_stack([X.ravel(), Y.ravel()]), tris)
    a = np.where((i + j) % 2 == 1, 1.0 / (N * N), 1.0)
    return tri, attach_coefficient(tri, np.repeat(a, 2))


def _checkerboard_eps(N: int) -> float:
    """eps = 1/N of `checkerboard_target`; raises ParameterOutOfRange
    outside [EPS_MIN, EPS_MAX]."""
    eps = 1.0 / N if N >= 1 else np.inf
    if not EPS_MIN <= eps <= EPS_MAX:
        raise ParameterOutOfRange(
            f"target defined for eps = 1/N in [{EPS_MIN}, {EPS_MAX}]; got N={N}"
        )
    return eps


def checkerboard_target(N: int) -> TargetField:
    """Sum of 1/N-scaled copies of the hexagon target, one per macro square
    of side 1/N, each in local coordinates xi = 2N(x - center) and extended
    by zero on the two corner triangles |xi_x + xi_y| > 1.  The singular
    points are the centers, cell (i, j) the point j N + i; the period is
    1/N."""
    eps = _checkerboard_eps(N)
    local = hexagon_target(eps)

    def about_center(offsets, about):
        # every copy is the same function of xi, whichever center it is about
        xi = 2.0 * N * offsets
        inside = np.abs(xi[:, 0] + xi[:, 1]) <= 1.0
        u, g = np.zeros(len(xi)), np.zeros_like(xi)
        ui, gi = local.evaluate(xi[inside])
        u[inside], g[inside] = ui / N, 2.0 * gi
        return u, g

    def fn(pts):
        IJ = np.clip(np.floor(pts * N).astype(int), 0, N - 1)
        return about_center(pts - (IJ + 0.5) / N, IJ[:, 1] * N + IJ[:, 0])

    sing = tuple(
        SingularPoint(
            ((i + 0.5) / N, (j + 0.5) / N), eps, (eps / (2.0 * N), 1.0 / (2.0 * N))
        )
        for j in range(N)
        for i in range(N)
    )
    return TargetField(fn, singular_points=sing, offset_fn=about_center, period=1.0 / N)
