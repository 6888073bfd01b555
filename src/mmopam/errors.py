"""Exception hierarchy shared by all mmopam modules."""


class MmopamError(Exception):
    """Base class for all package errors."""


class DomainError(MmopamError):
    """Input outside the admissible parameter domain."""


class DiscontinuityHit(MmopamError):
    """An iterate or jump value landed on (or numerically at) the map's jump at Z = 0."""


class NotPeriodic(MmopamError):
    """A periodic pattern was required but none was detected."""


class QuadratureFailure(MmopamError):
    """Adaptive quadrature could not reach the requested tolerance."""


class MethodMismatch(MmopamError):
    """Closed-form and quadrature evaluations of the same quantity disagree."""


class FoldPointEvaluation(MmopamError):
    """Evaluation requested at (or numerically at) a fold abscissa where F_x = 0."""


class SingularSystem(MmopamError):
    """A 2x2 solve in the synthesis pipeline is singular relative to the scale of its terms."""


class SynthesisVerificationFailure(MmopamError):
    """The synthesized vector field's associated map does not reproduce the target."""


class StepSizeUnderflow(MmopamError):
    """The stiff integrator failed to advance; typically a canard passage."""


class NonFiniteState(MmopamError):
    """The integrated state left the finite range."""


class RootFindingFailure(MmopamError):
    """Brent's method was given no sign change, or did not converge."""
