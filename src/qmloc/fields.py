"""Target-field protocol: one evaluator for values and gradients, plus
singularity markers.

A target is `TargetField(fn, singular_points)`, where ``fn(pts)`` takes an
(n, 2) array and returns ``(values (n,), gradients (n, 2))`` in one pass.
`TargetField.evaluate` is that call; `value` and `gradient` are its two
halves, for readers that need only one.  Near a singular point s the
quadrature hands a target the offsets x - s instead of x, which keep the
digits that x = s + (x - s) rounds away; a target may declare a lattice
period, under which it and its singular points repeat.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SingularPoint:
    """Marker for quadrature planning.

    Contract: inside the first breakpoint (or out to the element boundary if
    there is none) the target is u = r**mu Phi(theta) in polar coordinates
    about the point, so energy integrands scale like r**(2*mu - 1).  There the
    polar rules integrate u, |grad u|^2 and their products with polynomials
    exactly up to the plan's exactness (`quadrature.radial_rule`), and only
    for this form.  exponent mu: that r**mu.  radial_breakpoints: radii
    (physical units) where the radial profile changes regime; composite rules
    break there.
    """

    location: tuple
    exponent: float
    radial_breakpoints: tuple = ()

    @property
    def xy(self):
        return np.asarray(self.location, dtype=float)


@dataclass(frozen=True)
class TargetField:
    """Closed-form target: fn(pts (n, 2)) -> (values (n,), gradients (n, 2)).

    offset_fn(offsets (n, 2), about (n,)), if given, is the same target at
    the points ``singular_points[about] + offsets``, computed from the
    offsets; without it those points are formed and passed to fn.  period:
    None, or a length p such that the target and its singular points are
    invariant under translation by p times any integer vector (on the
    meshes it is used with).
    """

    fn: object
    singular_points: tuple = ()
    offset_fn: object = None
    period: float | None = None

    def evaluate(self, pts, about=None):
        """Values and gradients at pts (n, 2); with `about` (n,) given, pts
        are offsets from the singular points of those indices."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if about is None:
            u, gu = self.fn(pts)
        elif self.offset_fn is not None:
            u, gu = self.offset_fn(pts, about)
        else:
            s = np.array([sp.location for sp in self.singular_points], dtype=float)
            u, gu = self.fn(s[about] + pts)
        return np.asarray(u), np.asarray(gu)

    def value(self, pts):
        return self.evaluate(pts)[0]

    def gradient(self, pts):
        return self.evaluate(pts)[1]


def smooth_target(value, gradient) -> TargetField:
    """Target with no singular points (plain rules everywhere), from separate
    value and gradient closed forms."""
    return TargetField(lambda p: (value(p), gradient(p)))
