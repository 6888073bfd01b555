"""Scipy oracles for the package's closed forms and its hybrid legs.

``Q_quadrature`` integrates Q(x) = int_0^x rho(s) F_x(s, 0) ds, and
``segment_quadrature`` solves a segment's dZ/dx = p(x) Z + q(x) by variation
of constants, both with scipy's ``quad``. The first does not use the Q
polynomial, and the second does not use the substitution v = P(u) that the
segment closed form rests on, so agreement checks each of those steps.

``hybrid_reference`` runs the hybrid's returns with every leg a scalar
``solve_ivp`` of dZ/dx itself at a tight tolerance, without the Moebius
form of the legs.

``eval_Fz``, ``eval_Fxz`` and ``drho`` are scalar references for the
derivatives that the package's straight-line kernels unroll (F_z, F_xz and
d(rho)/dx), and ``eval_Fxx`` is F_xx, which the tests read at the folds;
``eval_J``, ``eval_G``, ``eval_H`` and ``eval_vector_field``
evaluate the slow drift and the fast-time right-hand side through
``Field.drift``. The package itself has no caller for them.
"""

from math import exp

from scipy.integrate import quad, solve_ivp

from mmopam.errors import DomainError
from mmopam.family import _KCD, _KD, _RHO_DDEN, _RHO_DEN, CanonicalParams, _horner, compute_geometry, eval_F, eval_Fx
from mmopam.segments import AffineMap

_ABS_TOL = 1e-12


def eval_Fz(x, z):
    acc = 0.0
    for _, _, d in _KCD:
        acc = (acc + d) * x
    return acc * x


def eval_Fxz(x, z):
    return _horner(_KD, x) * x


def eval_Fxx(x, z):
    acc = 0.0
    for k, c, d in _KCD[:-1]:
        acc = acc * x + k * (k - 1) * (c + d * z)
    _, c2, d2 = _KCD[-1]
    return acc * x + 2.0 * (c2 + d2 * z)


def drho(rho, x):
    """d(rho)/dx of a RhoSpec, as the Jacobian kernel's rho' term."""
    if rho.variant == "quadratic":
        return 1.0 + 2.0 * rho.q * x
    den = _horner(_RHO_DEN, x)
    return -_horner(_RHO_DDEN, x) / (den * den)


def eval_J(x):
    return 0.5 - x


def eval_G(params: CanonicalParams, x):
    """G(x) = (kappa + lambda P) (alpha Q + beta) rho J."""
    return params.field.drift(x)[0]


def eval_H(params: CanonicalParams, x):
    """H(x) = rho (alpha Q + beta) J."""
    return params.field.drift(x)[1]


def eval_vector_field(
    params: CanonicalParams, x: float, y: float, z: float, eps: float, delta: float
) -> tuple[float, float, float]:
    """Fast-time right-hand side (x', y', z')."""
    if eps < 0.0 or delta < 0.0:
        raise DomainError("eps and delta must be nonnegative")
    G, H = params.field.drift(x)
    return y - eval_F(x, z), eps * (0.5 - x), eps * (delta * G + z * H)


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


# the tight reference's tolerances, two to three orders below hybrid_simulate's defaults
REF_RTOL, REF_ATOL = 1e-13, 1e-15


def dZdx(params, x: float, Z: float, delta: float) -> float:
    """The hybrid slow flow (alpha Q + beta)(kappa + lambda P + Z)(rho F_x(., 0) + delta Z rho F_xz)."""
    fld = params.field
    _, u, P = fld.QuP(x)
    r = fld.rho(x)
    return u * (fld.kappa + fld.lam * P + Z) * (r * eval_Fx(x, 0.0) + delta * Z * r * eval_Fxz(x, 0.0))


def _legs(geom, Z: float) -> tuple[tuple[float, float], ...]:
    """The two legs of one hybrid return from Z, as (x_from, x_to) pairs: S_a1 or S_a2, then S_a3."""
    if Z < 0.0:
        return (geom.xhat4, geom.x1), (geom.xhat1, geom.x4)
    return (geom.x2, geom.x3), (geom.xhat3, geom.x4)


def hybrid_reference(params, delta: float, Z: float, n_returns: int) -> list[float]:
    """hybrid_simulate's returns with each leg a scalar DOP853 solve_ivp of dZ/dx at REF_RTOL, REF_ATOL."""
    geom = compute_geometry(params)
    returns = []
    for _ in range(n_returns):
        for x_from, x_to in _legs(geom, Z):
            sol = solve_ivp(lambda x, y: [dZdx(params, x, y[0], delta)], (x_from, x_to), [Z],
                            method="DOP853", rtol=REF_RTOL, atol=REF_ATOL)
            if sol.status != 0:
                raise RuntimeError(f"reference leg failed: {sol.message}")
            Z = float(sol.y[0, -1])
        returns.append(Z)
    return returns
