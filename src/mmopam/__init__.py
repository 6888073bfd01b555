"""mmopam: mixed-mode oscillations via piecewise affine maps.

A numerical toolkit for the two-way correspondence between one-dimensional
piecewise affine maps with a single jump and a canonical family of
three-dimensional slow-fast vector fields whose attractors are mixed-mode
oscillations. The forward direction derives the map associated with a vector
field from exact segment solutions of the reduced flow; the inverse direction
solves for vector-field parameters realizing a given target map. Stiff
full-system integration and a hybrid reduced simulator validate the
correspondence dynamically.
"""

from .errors import (
    DiscontinuityHit,
    DomainError,
    FoldPointEvaluation,
    MethodMismatch,
    MmopamError,
    NonFiniteState,
    NotPeriodic,
    QuadratureFailure,
    RootFindingFailure,
    SingularSystem,
    StepSizeUnderflow,
    SynthesisVerificationFailure,
)
from .family import (
    CanonicalParams,
    Field,
    ManifoldGeometry,
    RhoSpec,
    compute_geometry,
    eval_F,
    eval_Fx,
    eval_G,
    eval_H,
    eval_J,
    eval_P,
    eval_Q,
    eval_vector_field,
)
from .pam import (
    DISCONTINUITY_GUARD,
    MuInterval,
    OrbitResult,
    PamCoefficients,
    Signature,
    TransformedPam,
    atmost_atleast_bounds,
    detect_signature,
    iterate_orbit,
    lao_bounds,
    pam_eval,
    sao_bounds,
    signature_from_signs,
    stability_factor,
    transform,
    untransform,
)
from .segments import (
    AffineMap,
    SegmentSpec,
    associated_pam,
    compose,
    lao_branch,
    sao_branch,
    segment_affine,
)
from .synthesis import solve_alpha_beta, solve_kappa_lambda, synthesize

__version__ = "0.1.0"

# The simulators and their two ODE solvers load on first use, so the map level never holds them.
_SIMULATE = ("HybridResult", "SimConfig", "TimeSeries", "canard_hole_radius", "classify_series", "hybrid_simulate",
             "integrate_full", "visual_rescale")

__all__ = [name for name in dir() if not name.startswith("_")] + list(_SIMULATE)


def __getattr__(name: str):
    if name in _SIMULATE:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
