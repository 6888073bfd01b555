"""Adaptive-quadrature oracles for the package's closed forms.

``Q_quadrature`` integrates Q(x) = int_0^x rho(s) F_x(s, 0) ds, and
``segment_quadrature`` solves a segment's dZ/dx = p(x) Z + q(x) by variation
of constants, both with scipy's ``quad``. The first does not use the Q
polynomial, and the second does not use the substitution v = P(u) that the
segment closed form rests on, so agreement checks each of those steps.
"""

from math import exp

from scipy.integrate import quad

from mmopam.family import eval_Fx
from mmopam.segments import AffineMap

_ABS_TOL = 1e-12


class QuadratureFailure(RuntimeError):
    """``quad`` could not reach the requested tolerance, so the oracle has no answer."""


def Q_quadrature(params, x: float) -> float:
    """Q(x) by adaptive quadrature of rho F_x(., 0) from 0."""
    rho = params.rho

    def integrand(s):
        return rho.rho(s) * eval_Fx(s, 0.0)

    val, err = quad(integrand, 0.0, float(x), epsabs=_ABS_TOL, epsrel=1e-12, limit=10_000)
    if err > max(_ABS_TOL * 10.0, 1e-10 * abs(val)):
        raise QuadratureFailure(f"Q({x}): error estimate {err:.2e} above tolerance")
    return val


def _pq(params, x: float) -> tuple[float, float]:
    """p = rho (alpha Q + beta) F_x and q = (kappa + lambda P) p, the g1 = J factor cancelled."""
    fld = params.field
    fx = eval_Fx(x, 0.0)
    _, u, P = fld.QuP(x)
    r = fld.rho(x)
    return r * u * fx, (fld.kappa + fld.lam * P) * u * r * fx


def segment_quadrature(params, seg) -> AffineMap:
    """The segment map Z -> exp(int p) Z + int q(u) exp(int_u p) du, by nested quadrature."""
    xs, xe = seg.x_start, seg.x_end

    def p_of(x):
        return _pq(params, x)[0]

    def q_of(x):
        return _pq(params, x)[1]

    def integrate(f, a, b):
        val, err = quad(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=500)
        if err > max(1e-10, 1e-9 * abs(val)):
            raise QuadratureFailure(f"segment integral error estimate {err:.2e}")
        return val

    slope = exp(integrate(p_of, xs, xe))

    def offset_integrand(u):
        inner, _ = quad(p_of, u, xe, epsabs=1e-12, epsrel=1e-12, limit=500)
        return q_of(u) * exp(inner)

    offset = integrate(offset_integrand, xs, xe)
    return AffineMap(slope, offset)
