"""Target-field protocol: pointwise values, gradients, singularity markers."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SingularPoint:
    """Marker for quadrature planning.

    exponent mu: the radial profile behaves like r**mu near the point, so
    energy integrands scale like r**(2*mu - 1) in polar coordinates.
    radial_breakpoints: radii (physical units) where the radial profile
    changes regime; composite rules break there.
    """

    location: tuple
    exponent: float
    radial_breakpoints: tuple = ()

    @property
    def xy(self):
        return np.asarray(self.location, dtype=float)


@dataclass(frozen=True)
class TargetField:
    """Closed-form target: value and gradient evaluators.

    value_fn / gradient_fn accept an (n, 2) array and return (n,) / (n, 2).
    """

    value_fn: object
    gradient_fn: object
    singular_points: tuple = ()

    def value(self, pts):
        return np.asarray(self.value_fn(np.atleast_2d(np.asarray(pts, dtype=float))))

    def gradient(self, pts):
        return np.asarray(self.gradient_fn(np.atleast_2d(np.asarray(pts, dtype=float))))


def smooth_target(value_fn, gradient_fn) -> TargetField:
    """Target with no singular points (plain rules everywhere)."""
    return TargetField(value_fn=value_fn, gradient_fn=gradient_fn)
