"""Affine maps induced by the slow flow along critical-manifold segments.

Along a normally hyperbolic segment the rescaled slow variable obeys the
linear equation dZ/dx = p(x) Z + q(x), whose exact solution from x_start to
x_end is an affine map in Z, in closed form. Each branch of the piecewise
affine map associated with the vector field is two such passages joined by a
jump, as :attr:`~mmopam.family.ManifoldGeometry.branches` lists them; one
builder composes them, for the map itself (:func:`associated_pam`) and for
the basis of its offsets that synthesis solves in (:func:`offset_coefficients`).
"""

from __future__ import annotations

from math import exp, expm1

from .errors import DomainError, FrozenValue
from .family import CanonicalParams, ManifoldGeometry, eval_P
from .pam import PamCoefficients


class SegmentSpec(FrozenValue):
    _fields = ("x_start", "x_end")

    def __init__(self, x_start: float, x_end: float):
        if x_start == x_end:
            raise DomainError("segment endpoints must differ")
        vars(self).update(x_start=x_start, x_end=x_end)


class AffineMap(FrozenValue):
    _fields = ("slope", "offset")

    def __init__(self, slope: float, offset: float):
        vars(self).update(slope=slope, offset=offset)

    def __call__(self, Z: float) -> float:
        return self.slope * Z + self.offset


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
    slope, (offset,) = _passage(params, seg.x_start, seg.x_end, ((params.kappa, params.lam),))
    return AffineMap(slope, offset)


def _passage(params: CanonicalParams, x_start: float, x_end: float, units) -> tuple[float, list[float]]:
    """The slope of :func:`segment_affine`'s closed form and its offset at each (kappa, lambda) of ``units``."""
    va = eval_P(params, x_start)
    d = eval_P(params, x_end) - va
    em1 = expm1(d)
    return exp(d), [(ka + la * (va + 1.0)) * em1 - la * d for ka, la in units]


def _branch_maps(params: CanonicalParams, geom: ManifoldGeometry, *units) -> list[tuple[float, list[float]]]:
    """Each branch of ``geom.branches``, its second passage after its first: slope s2 s1, offsets s2 o1 + o2."""
    maps = []
    for first, second in geom.branches:
        s1, o1 = _passage(params, *first, units)
        s2, o2 = _passage(params, *second, units)
        maps.append((s2 * s1, [s2 * a + b for a, b in zip(o1, o2)]))
    return maps


def offset_coefficients(
    params: CanonicalParams, geom: ManifoldGeometry
) -> tuple[tuple[float, float], tuple[float, float]]:
    """((c_kappa, c_lambda) of a12, (c_kappa, c_lambda) of a22).

    The branch offsets are linear in (kappa, lambda), a12 = kappa c_kappa +
    lambda c_lambda and likewise a22, and the slopes and coefficients depend on
    (alpha, beta) and rho only; ``params.kappa`` and ``params.lam`` are not read.
    Each coefficient is the branch offset :func:`associated_pam` gives at
    (kappa, lambda) = (1, 0) or (0, 1), with the same operations.
    """
    (_, lao), (_, sao) = _branch_maps(params, geom, (1.0, 0.0), (0.0, 1.0))
    return tuple(lao), tuple(sao)


def associated_pam(params: CanonicalParams, geom: ManifoldGeometry) -> PamCoefficients:
    """The piecewise affine map associated with the canonical vector field.

    (a11, a12) is the Z < 0 branch and (a21, a22) the Z > 0 branch.
    """
    (a11, (a12,)), (a21, (a22,)) = _branch_maps(params, geom, (params.kappa, params.lam))
    return PamCoefficients(a11=a11, a12=a12, a21=a21, a22=a22)
