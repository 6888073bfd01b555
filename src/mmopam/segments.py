"""Affine maps induced by the slow flow along critical-manifold segments.

Along a normally hyperbolic segment the rescaled slow variable obeys the
linear equation dZ/dx = p(x) Z + q(x), whose exact solution from x_start to
x_end is an affine map in Z. Branch composition of these segment maps yields
the piecewise affine map associated with the vector field.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1

from .errors import DomainError
from .family import CanonicalParams, ManifoldGeometry, eval_P
from .pam import PamCoefficients

SHEET_LABELS = ("S_a1", "S_a2", "S_a3")


@dataclass(frozen=True)
class SegmentSpec:
    x_start: float
    x_end: float
    sheet_label: str

    def __post_init__(self):
        if self.sheet_label not in SHEET_LABELS:
            raise DomainError(f"unknown sheet label {self.sheet_label!r}")
        if self.x_start == self.x_end:
            raise DomainError("segment endpoints must differ")


@dataclass(frozen=True)
class AffineMap:
    slope: float
    offset: float

    def __call__(self, Z: float) -> float:
        return self.slope * Z + self.offset


IDENTITY = AffineMap(1.0, 0.0)


def compose(outer: AffineMap, inner: AffineMap) -> AffineMap:
    """outer after inner."""
    return AffineMap(outer.slope * inner.slope, outer.slope * inner.offset + outer.offset)


def segment_affine(params: CanonicalParams, seg: SegmentSpec) -> AffineMap:
    """Affine map of one segment, in closed form.

    With P the antiderivative of p (P = alpha Q^2/2 + beta Q and
    q = (kappa + lambda P) P'), substitution v = P(u) collapses both integrals:

        slope  = exp(vb - va)
        offset = (kappa + lambda (va + 1)) e^{vb - va} - (kappa + lambda (vb + 1))
               = (kappa + lambda (va + 1)) expm1(d) - lambda d,   d = vb - va

    with va = P(x_start), vb = P(x_end). The second form is the one evaluated:
    near-unit slopes need |lambda| ~ 1e7, where the first form cancels.
    """
    va = eval_P(params, seg.x_start)
    d = eval_P(params, seg.x_end) - va
    ka, la = params.kappa, params.lam
    return AffineMap(exp(d), (ka + la * (va + 1.0)) * expm1(d) - la * d)


def _segment_offset_basis(params: CanonicalParams, seg: SegmentSpec) -> tuple[float, float, float]:
    """Slope and the (kappa, lambda) coefficients of the closed-form offset.

    The offset is kappa expm1(d) + lambda ((va + 1) expm1(d) - d); the two
    coefficients are the closed form's own operations at (kappa, lambda) = (1, 0)
    and (0, 1), so they carry the same bits.
    """
    va = eval_P(params, seg.x_start)
    d = eval_P(params, seg.x_end) - va
    em1 = expm1(d)
    return exp(d), em1, (va + 1.0) * em1 - d


def _lao_segments(geom: ManifoldGeometry) -> tuple[SegmentSpec, SegmentSpec]:
    return SegmentSpec(geom.xhat4, geom.x1, "S_a1"), SegmentSpec(geom.xhat1, geom.x4, "S_a3")


def _sao_segments(geom: ManifoldGeometry) -> tuple[SegmentSpec, SegmentSpec]:
    return SegmentSpec(geom.x2, geom.x3, "S_a2"), SegmentSpec(geom.xhat3, geom.x4, "S_a3")


def lao_branch(params: CanonicalParams, geom: ManifoldGeometry) -> AffineMap:
    """Z < 0 branch: S_a1 passage xhat4 -> x1, then S_a3 passage xhat1 -> x4."""
    first, second = (segment_affine(params, seg) for seg in _lao_segments(geom))
    return compose(second, first)


def sao_branch(params: CanonicalParams, geom: ManifoldGeometry) -> AffineMap:
    """Z > 0 branch: S_a2 passage x2 -> x3, then S_a3 passage xhat3 -> x4."""
    first, second = (segment_affine(params, seg) for seg in _sao_segments(geom))
    return compose(second, first)


def offset_coefficients(
    params: CanonicalParams, geom: ManifoldGeometry
) -> tuple[tuple[float, float], tuple[float, float]]:
    """((c_kappa, c_lambda) of a12, (c_kappa, c_lambda) of a22).

    The branch offsets are linear in (kappa, lambda), a12 = kappa c_kappa +
    lambda c_lambda and likewise a22, and the slopes and coefficients depend on
    (alpha, beta) and rho only; ``params.kappa`` and ``params.lam`` are not read.
    Each coefficient is the branch offset :func:`compose` gives at
    (kappa, lambda) = (1, 0) or (0, 1), with the same operations.
    """
    coeffs = []
    for first, second in (_lao_segments(geom), _sao_segments(geom)):
        _, k1, l1 = _segment_offset_basis(params, first)
        s2, k2, l2 = _segment_offset_basis(params, second)
        coeffs.append((s2 * k1 + k2, s2 * l1 + l2))
    return tuple(coeffs)


def associated_pam(params: CanonicalParams, geom: ManifoldGeometry) -> PamCoefficients:
    """The piecewise affine map associated with the canonical vector field."""
    m1 = lao_branch(params, geom)
    m2 = sao_branch(params, geom)
    return PamCoefficients(a11=m1.slope, a12=m1.offset, a21=m2.slope, a22=m2.offset)
