"""Target-field protocol: one evaluator for values and gradients, plus
singularity markers.

A target is `TargetField(fn, singular_points)`, where ``fn(pts)`` takes an
(n, 2) array and returns ``(values (n,), gradients (n, 2))`` in one pass.
`TargetField.evaluate` is that call; `value` and `gradient` are its two
halves, for readers that need only one.
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
    """Closed-form target: fn(pts (n, 2)) -> (values (n,), gradients (n, 2))."""

    fn: object
    singular_points: tuple = ()

    def evaluate(self, pts):
        u, gu = self.fn(np.atleast_2d(np.asarray(pts, dtype=float)))
        return np.asarray(u), np.asarray(gu)

    def value(self, pts):
        return self.evaluate(pts)[0]

    def gradient(self, pts):
        return self.evaluate(pts)[1]


def smooth_target(value, gradient) -> TargetField:
    """Target with no singular points (plain rules everywhere), from separate
    value and gradient closed forms."""
    return TargetField(lambda p: (value(p), gradient(p)))
