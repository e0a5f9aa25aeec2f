"""Exception types shared across the package."""


class QmlocError(Exception):
    """Base class for all package errors."""


class NonConforming(QmlocError):
    """Mesh violates conformity (hanging node or over-shared edge)."""


class DegenerateElement(QmlocError):
    """Triangle with non-positive area."""


class UnknownLocus(QmlocError):
    """Locus (vertex / element / edge) id does not exist in the mesh."""


class UnsupportedDegree(QmlocError):
    """Polynomial degree outside the supported range 1..4."""


class PointOutsideElement(QmlocError):
    """Evaluation point lies outside the requested element."""


class QuadratureFailure(QmlocError):
    """Quadrature plan could not reach the requested accuracy."""


class PlanMismatch(QmlocError):
    """Quadrature plan does not cover the requested region."""


class SolverFailure(QmlocError):
    """Linear solver did not converge."""


class NonPositiveValue(QmlocError):
    """Coefficient field contains a value <= 0."""


class LocusMismatch(QmlocError):
    """Element not contained in the governing star."""


class NoMonotonePath(QmlocError):
    """No monotone path exists for a required element pair."""


class ParameterOutOfRange(QmlocError):
    """Target-field parameter outside its validity range."""


class RefusesNonQM(QmlocError):
    """Experiment requires a quasi-monotone coefficient field."""


class IoFailure(QmlocError):
    """Report could not be written."""
