"""Inverse direction: solve for vector-field parameters realizing a target map.

The branch slopes depend on (alpha, beta) only, through a 2x2 linear system in
log-slope space built from Q at the pivot abscissas. With (alpha, beta) fixed,
the branch offsets are linear in (kappa, lambda), with coefficients from the
segment formula (:func:`~mmopam.segments.offset_coefficients`). Both 2x2
systems are solved by Cramer's rule.
"""

from __future__ import annotations

from math import log

from .errors import DomainError, SingularSystem, SynthesisVerificationFailure
from .family import CanonicalParams, ManifoldGeometry, RhoSpec, compute_geometry, eval_Q
from .pam import PamCoefficients
from .segments import associated_pam, offset_coefficients

# A 2x2 system is singular when |ad - bc| <= DET_RTOL (|ad| + |bc|). The
# entries carry a few ulp of rounding each (Horner sums, exp, compositions),
# so a determinant that small has cancelled to within a few thousand ulp of
# its terms: at most about four digits of it are right, and the solve would
# scale the entries' rounding by 1/DET_RTOL. Scaling by the terms, not an
# absolute floor, keeps well-conditioned systems with small entries solvable.
DET_RTOL = 1e-12


def _solve_2x2(a: float, b: float, c: float, d: float, r1: float, r2: float, what: str) -> tuple[float, float]:
    """(u, v) with a u + b v = r1 and c u + d v = r2, by Cramer's rule."""
    det = a * d - b * c
    if abs(det) <= DET_RTOL * (abs(a * d) + abs(b * c)):
        raise SingularSystem(f"{what} determinant {det:.2e} is below {DET_RTOL:.0e} of its terms")
    return float((r1 * d - b * r2) / det), float((a * r2 - c * r1) / det)


def slope_matrix(rho: RhoSpec, geom: ManifoldGeometry) -> tuple[tuple[float, float], tuple[float, float]]:
    """Rows of the 2x2 matrix A with (log a11, log a21) = A @ (alpha, beta)."""
    probe = CanonicalParams(0.0, 0.0, 0.0, 0.0, rho)
    abscissas = (geom.xhat4, geom.x1, geom.x2, geom.x3, geom.x4, geom.xhat3, geom.xhat1)
    q_h4, q_1, q_2, q_3, q_4, q_h3, q_h1 = (eval_Q(probe, x) for x in abscissas)
    return (
        (0.5 * (q_1**2 - q_h4**2 + q_4**2 - q_h1**2), q_1 - q_h4 + q_4 - q_h1),
        (0.5 * (q_3**2 - q_2**2 + q_4**2 - q_h3**2), q_3 - q_2 + q_4 - q_h3),
    )


def solve_alpha_beta(a11: float, a21: float, rho: RhoSpec, geom: ManifoldGeometry) -> tuple[float, float]:
    if a11 <= 0.0 or a21 <= 0.0:
        raise DomainError("branch slopes must be positive")
    (a, b), (c, d) = slope_matrix(rho, geom)
    return _solve_2x2(a, b, c, d, log(a11), log(a21), "slope system")


def solve_kappa_lambda(
    a12: float,
    a22: float,
    alpha: float,
    beta: float,
    rho: RhoSpec,
    geom: ManifoldGeometry,
) -> tuple[float, float]:
    """Solve (a12, a22) = B @ (kappa, lambda), B from the segment formula at (alpha, beta)."""
    (a, b), (c, d) = offset_coefficients(CanonicalParams(alpha, beta, 0.0, 0.0, rho), geom)
    return _solve_2x2(a, b, c, d, a12, a22, "offset system")


def synthesize(
    target: PamCoefficients,
    rho: RhoSpec,
    verify_tol: float = 1e-8,
) -> CanonicalParams:
    """Full pipeline: geometry, (alpha, beta), then (kappa, lambda), with roundtrip check."""
    probe = CanonicalParams(0.0, 0.0, 0.0, 0.0, rho)
    geom = compute_geometry(probe)
    alpha, beta = solve_alpha_beta(target.a11, target.a21, rho, geom)
    kappa, lam = solve_kappa_lambda(target.a12, target.a22, alpha, beta, rho, geom)
    params = CanonicalParams(alpha, beta, kappa, lam, rho)
    got = associated_pam(params, geom)
    dev = max(
        abs(g - t) / max(1.0, abs(t)) for g, t in zip(got.as_tuple(), target.as_tuple())
    )
    if dev > verify_tol:
        raise SynthesisVerificationFailure(
            f"roundtrip residual {dev:.2e} exceeds {verify_tol:.1e} (got {got}, target {target})"
        )
    return params
