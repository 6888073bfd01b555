"""mmopam: mixed-mode oscillations via piecewise affine maps.

A numerical toolkit for the two-way correspondence between one-dimensional
piecewise affine maps with a single jump and a canonical family of
three-dimensional slow-fast vector fields whose attractors are mixed-mode
oscillations. The forward direction derives the map associated with a vector
field from exact segment solutions of the reduced flow; the inverse direction
solves for vector-field parameters realizing a given target map. Stiff
full-system integration and a hybrid reduced simulator validate the
correspondence dynamically.

Every exported name loads its home module on first use, so ``import mmopam``
loads no submodule and a program holds only the modules whose names it reads:
the map level never loads ``simulate`` and its two ODE solvers.
"""

__version__ = "0.1.0"

# each exported name, under the module that defines it
_EXPORTS = {
    "errors": (
        "DiscontinuityHit", "DomainError", "MmopamError", "NonFiniteState", "NotPeriodic", "RootFindingFailure",
        "SingularSystem", "StepSizeUnderflow", "SynthesisVerificationFailure",
    ),
    "family": (
        "CanonicalParams", "Field", "ManifoldGeometry", "RhoSpec", "compute_geometry", "eval_F", "eval_Fx", "eval_P",
        "eval_Q",
    ),
    "pam": (
        "DISCONTINUITY_GUARD", "MuInterval", "OrbitResult", "PamCoefficients", "Signature", "TransformedPam",
        "atmost_atleast_bounds", "detect_signature", "iterate_orbit", "lao_bounds", "pam_eval", "sao_bounds",
        "signature_from_signs", "transform", "untransform",
    ),
    "segments": ("AffineMap", "SegmentSpec", "associated_pam", "segment_affine"),
    "synthesis": ("solve_alpha_beta", "solve_kappa_lambda", "synthesize"),
    "simulate": (
        "HybridResult", "SimConfig", "TimeSeries", "canard_hole_radius", "classify_series", "hybrid_simulate",
        "integrate_full", "visual_rescale",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    from importlib import import_module

    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it here and never reach __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
