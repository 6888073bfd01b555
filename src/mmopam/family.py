"""Canonical degree-9 slow-fast vector-field family and its critical-manifold geometry.

The fast nullcline is y = F(x, z) with F a fixed degree-9 polynomial whose
coefficients are linear in z and stored as exact rationals. The slow drift is
g1 = J(x) = 1/2 - x and g2 = delta*G(x) + z*H(x), where G and H are built
from a weight function rho and the accumulated integral
Q(x) = int_0^x rho(s) F_s(s, 0) ds. The reference level z0 of the slow
variable is fixed at 0: Q, the geometry and the segment maps all belong to
the sheet profile F(., 0), so there is no z0 parameter.

Two rho families are supported: Quadratic rho(x) = p + x + q x^2, and the
fixed rational rho whose reciprocal is a specific quartic. For both, the
product rho * F_x(., 0) reduces to a polynomial (exactly, for the fixed
rational choice), so Q has a closed polynomial form; an adaptive-quadrature
evaluator is kept alongside as an independent oracle.

The geometry is the family's design: F_x(., 0) vanishes at the folds -2, -1,
0 and 1, and F(-2) = F(8/5), F(0) = F(3/2) and F(1) = F(-5/2), all exactly in
rational arithmetic. :func:`compute_geometry` returns these constants, with
the fold heights taken from exact rational F.

:class:`Field`, built once per parameter set as ``params.field``, is the one
evaluator: plain-float Horner kernels for F, Q, rho, G and H, the stiff
right-hand side and Jacobian, and the hybrid slow flow. Loops start from 0.0,
so they take scalars and, element-wise, arrays; the ``eval_*`` functions use it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isfinite, sqrt

from .errors import DomainError, FoldPointEvaluation, QuadratureFailure

X_MIN, X_MAX = -3.0, 2.0
FOLD_TOL = 1e-12
_QUAD_ABS_TOL = 1e-12

# --- exact coefficients of F(x, z) = sum_k (C_k + D_k z) x^k -----------------

_C = [Fraction(0)] * 10
_D = [Fraction(0)] * 10
_C[9] = Fraction(184180, 67741437)
_C[8] = Fraction(3558512, 22580479 * 8)
_D[8] = Fraction(138135, 90321916 * 8)
_C[7] = Fraction(212863, 22580479 * 7)
_D[7] = Fraction(751493, 90321916 * 7)
_C[6] = -Fraction(23361467, 22580479 * 6)
_D[6] = -Fraction(2793109, 361287664 * 6)
_C[5] = -Fraction(1224990, 22580479 * 5)
_D[5] = -Fraction(10284179, 180643832 * 5)
_C[4] = Fraction(64963913, 22580479 * 4)
_D[4] = Fraction(2417921, 45160958 * 4)
_C[3] = Fraction(459587, 22580479 * 3)
_D[3] = Fraction(45620545, 361287664 * 3)
_C[2] = -Fraction(1)
_D[2] = -Fraction(1, 16)

# reciprocal of the fixed rational rho, exact quartic coefficients (descending)
_RHO_DEN_EXACT = [
    Fraction(552540, 22580479),
    Fraction(2453432, 22580479),
    Fraction(-4141461, 22580479),
    Fraction(-11520033, 22580479),
    Fraction(1),
]

# --- plain-float kernels: each loop keeps polyval's operation order -----------

_KCD = tuple((k, float(_C[k]), float(_D[k])) for k in range(9, 1, -1))  # (k, C_k, D_k), k = 9..2
_KD = tuple(k * d for k, _, d in _KCD)  # F_xz / x, descending
_C2, _D2 = float(_C[2]), float(_D[2])
_RHO_DEN = tuple(float(c) for c in _RHO_DEN_EXACT)
_RHO_DDEN = tuple(c * k for c, k in zip(_RHO_DEN, range(4, 0, -1)))


def _horner(coeffs, x):
    """Polynomial with descending coefficients, summed in Horner order as polyval does."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def eval_F(x, z):
    """F(x, z) by Horner's scheme; accepts scalars or arrays."""
    acc = 0.0
    for _, c, d in _KCD:
        acc = (acc + (c + d * z)) * x
    return acc * x


def eval_Fx(x, z):
    """Analytic dF/dx."""
    acc = 0.0
    for k, c, d in _KCD:
        acc = acc * x + k * (c + d * z)
    return acc * x


def eval_Fxx(x, z):
    acc = 0.0
    for k, c, d in _KCD[:-1]:
        acc = acc * x + k * (k - 1) * (c + d * z)
    return acc * x + 2.0 * (_C2 + _D2 * z)


def eval_Fz(x, z):
    acc = 0.0
    for _, _, d in _KCD:
        acc = (acc + d) * x
    return acc * x


def eval_Fxz(x, z):
    return _horner(_KD, x) * x


def eval_J(x):
    return 0.5 - x


# --- rho specification -------------------------------------------------------


@dataclass(frozen=True)
class RhoSpec:
    """Weight function: either rho = p + x + q x^2 or the fixed rational choice."""

    variant: str  # "quadratic" | "fixed_rational"
    p: float | None = None
    q: float | None = None

    def __post_init__(self):
        if self.variant == "quadratic":
            if self.p is None or self.q is None:
                raise DomainError("quadratic rho needs p and q")
            self._check_nonzero_on_interval(self.p, self.q)
        elif self.variant == "fixed_rational":
            if self.p is not None or self.q is not None:
                raise DomainError("fixed_rational rho takes no (p, q)")
            # rho is the reciprocal of a quartic, hence never zero; its pole
            # at the quartic's real root left of the folds cancels against a
            # root of F_x in every product this package evaluates.
        else:
            raise DomainError(f"unknown rho variant {self.variant!r}")

    @staticmethod
    def _check_nonzero_on_interval(p: float, q: float) -> None:
        """Raise if p + x + q x^2 has a root within 1e-9 of [X_MIN, X_MAX], from the closed form.

        A complex pair with imaginary part below 1e-10 counts as a (near-double) real root.
        """
        if not (isfinite(p) and isfinite(q)):
            raise DomainError(f"rho needs finite p and q, got p={p}, q={q}")
        if q == 0.0:
            roots = (-p,)
        else:
            disc = 1.0 - 4.0 * q * p
            if disc >= 0.0:
                t = -0.5 * (1.0 + sqrt(disc))  # no cancellation: the x coefficient is +1
                roots = (t / q, p / t)
            else:
                roots = (-0.5 / q,) if sqrt(-disc) / (2.0 * abs(q)) < 1e-10 else ()
        if any(X_MIN - 1e-9 <= r <= X_MAX + 1e-9 for r in roots):
            raise DomainError(f"rho vanishes on [{X_MIN}, {X_MAX}]")

    def rho(self, x):
        if self.variant == "quadratic":
            return self.p + x + self.q * x * x
        return 1.0 / _horner(_RHO_DEN, x)

    def drho(self, x):
        """d(rho)/dx, needed for analytic Jacobians of the slow drift."""
        if self.variant == "quadratic":
            return 1.0 + 2.0 * self.q * x
        den = _horner(_RHO_DEN, x)
        return -_horner(_RHO_DDEN, x) / (den * den)

    def to_json_obj(self):
        if self.variant == "quadratic":
            return {"quadratic": {"p": self.p, "q": self.q}}
        return "fixed_rational"

    @classmethod
    def from_json_obj(cls, obj) -> "RhoSpec":
        if obj == "fixed_rational":
            return cls("fixed_rational")
        if isinstance(obj, dict) and "quadratic" in obj:
            coeffs = obj["quadratic"]
            return cls("quadratic", p=json_float(coeffs, "p"), q=json_float(coeffs, "q"))
        raise DomainError(f"unrecognized rho specification {obj!r}")


QUADRATIC = "quadratic"
FIXED_RATIONAL = "fixed_rational"


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _poly_divmod(num, den):
    num = list(num)
    out = []
    for i in range(len(num) - len(den) + 1):
        c = num[i] / den[0]
        out.append(c)
        for j, d in enumerate(den):
            num[i + j] -= c * d
    return out, num[len(out):]


def q_polynomial(rho: RhoSpec) -> tuple[float, ...]:
    """Descending coefficients of Q(x) = int_0^x W, with W = rho(x) * F_x(x, 0).

    For quadratic rho, W is a product of polynomials. For the fixed rational
    rho, F_x(., 0) is divisible by 1/rho in exact arithmetic; a nonzero
    remainder would mean Q has no closed form and raises. W is rounded to
    floats and divided term by term, c_k / (k + 1).
    """
    fx_desc = [Fraction(k) * _C[k] for k in range(9, 0, -1)]  # F_x(., 0), descending x^8..x^0
    if rho.variant == "quadratic":
        rho_desc = [Fraction(rho.q).limit_denominator(10**15), Fraction(1), Fraction(rho.p).limit_denominator(10**15)]
        w = _poly_mul(rho_desc, fx_desc)
    else:
        w, rem = _poly_divmod(fx_desc, _RHO_DEN_EXACT)
        if any(rem):
            raise DomainError("rho * F_x(., 0) leaves a nonzero remainder; Q has no polynomial form")
    n = len(w)
    return tuple(float(c) / (n - i) for i, c in enumerate(w)) + (0.0,)  # constant term 0: Q(0) = 0


@lru_cache(maxsize=64)
def _q_tables(rho: RhoSpec) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coefficients of Q and of W = Q', built once per rho; W is differentiated from Q, rounding included."""
    q = q_polynomial(rho)
    n = len(q) - 1
    return q, tuple(c * (n - i) for i, c in enumerate(q[:-1]))


# --- the compiled field ------------------------------------------------------


class Field:
    """F, Q, rho and the slow drift of one parameter set (``params.field``).

    Products keep one order everywhere, G = (((kappa + lambda P) u) rho) J and
    H = (rho u) J with u = alpha Q + beta, so every route gives the same bits.
    Holding the F kernels here keeps the integrators off rebound module names.
    """

    __slots__ = ("alpha", "beta", "kappa", "lam", "rho", "drho", "_q", "_w")

    F = staticmethod(eval_F)
    Fx = staticmethod(eval_Fx)
    Fxx = staticmethod(eval_Fxx)
    Fz = staticmethod(eval_Fz)
    Fxz = staticmethod(eval_Fxz)

    def __init__(self, params: CanonicalParams):
        self.alpha, self.beta = float(params.alpha), float(params.beta)
        self.kappa, self.lam = float(params.kappa), float(params.lam)
        self.rho, self.drho = params.rho.rho, params.rho.drho
        self._q, self._w = _q_tables(params.rho)

    def Q(self, x):
        return _horner(self._q, x)

    def QuP(self, x):
        """(Q, u = alpha Q + beta, P = alpha Q^2/2 + beta Q) at x."""
        Q = _horner(self._q, x)
        return Q, self.alpha * Q + self.beta, self.alpha * Q * Q / 2.0 + self.beta * Q

    def drift(self, x):
        """(G(x), H(x)), sharing one evaluation of Q and rho."""
        _, u, P = self.QuP(x)
        r = self.rho(x)
        J = 0.5 - x
        return (self.kappa + self.lam * P) * u * r * J, r * u * J

    def pq(self, x):
        fx = self.Fx(x, 0.0)
        if abs(fx) < FOLD_TOL:
            raise FoldPointEvaluation(f"F_x vanishes at x = {x}")
        _, lin, P = self.QuP(x)
        r = self.rho(x)
        return r * lin * fx, (self.kappa + self.lam * P) * lin * r * fx

    def rhs(self, t, s, eps, delta):
        """Slow-time (x', y', z') at the state s = (x, y, z), for the Radau solver with ``args=(eps, delta)``."""
        x, y, z = s
        G, H = self.drift(x)
        return (y - self.F(x, z)) / eps, 0.5 - x, delta * G + z * H

    def jac(self, t, s, eps, delta):
        """Analytic Jacobian of :meth:`rhs`, as three rows."""
        x, y, z = s
        lam = self.lam
        r = self.rho(x)
        rp = self.drho(x)
        _, u, P = self.QuP(x)
        Qp = r * self.Fx(x, 0.0)
        up = self.alpha * Qp
        J = 0.5 - x
        Pp = u * Qp
        Hp = rp * u * J + r * up * J - r * u
        Gp = lam * Pp * u * r * J + (self.kappa + lam * P) * (up * r * J + u * rp * J - u * r)
        return (
            (-self.Fx(x, z) / eps, 1.0 / eps, -self.Fz(x, z) / eps),
            (-1.0, 0.0, 0.0),
            (delta * Gp + z * Hp, 0.0, r * u * J),
        )

    def dZdx(self, x, Z, delta):
        """Hybrid slow flow dZ/dx = (alpha Q + beta)(kappa + lambda P + Z)(W + delta Z rho F_xz), for the DOP853 legs."""
        _, u, P = self.QuP(x)
        corr = delta * Z * self.rho(x) * self.Fxz(x, 0.0)
        return u * (self.kappa + self.lam * P + Z) * (_horner(self._w, x) + corr)


# --- canonical parameters ----------------------------------------------------


@dataclass(frozen=True)
class CanonicalParams:
    """Parameters (alpha, beta, kappa, lambda) plus the rho choice.

    The slow variable's reference level z0 is fixed at 0 and is not a field.
    The JSON form writes ``"z0": 0.0``; reading accepts a missing key or 0
    and rejects any other value (see :func:`check_z0`).
    """

    alpha: float
    beta: float
    kappa: float
    lam: float
    rho: RhoSpec

    @cached_property
    def field(self) -> Field:
        """The compiled kernels of this parameter set, built on first use."""
        return Field(self)

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": self.alpha,
                "beta": self.beta,
                "kappa": self.kappa,
                "lambda": self.lam,
                "rho": self.rho.to_json_obj(),
                "z0": 0.0,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CanonicalParams":
        obj = json.loads(text)
        check_z0(obj)
        values = (json_float(obj, key) for key in ("alpha", "beta", "kappa", "lambda"))
        return cls(*values, RhoSpec.from_json_obj(obj.get("rho")))


def json_float(obj, key) -> float:
    """``float(obj[key])``; a missing key or a value that float() rejects raises DomainError."""
    try:
        return float(obj[key])
    except (LookupError, TypeError, ValueError):
        raise DomainError(f"{key!r} must be a number in {obj!r}") from None


def check_z0(obj: dict) -> None:
    """Accept a JSON object whose ``"z0"`` is absent or 0; any other value raises DomainError."""
    if obj.get("z0", 0.0) != 0.0:
        raise DomainError(f"z0 is fixed at 0, got {obj['z0']!r}")


def eval_Q(params: CanonicalParams, x):
    """Q(x), the closed-form polynomial."""
    return params.field.Q(x)


def eval_Q_quadrature(params: CanonicalParams, x: float) -> float:
    """Q(x) by adaptive quadrature; the independent oracle for the closed form."""
    from scipy.integrate import quad

    rho = params.rho

    def integrand(s):
        return rho.rho(s) * eval_Fx(s, 0.0)

    val, err = quad(integrand, 0.0, float(x), epsabs=_QUAD_ABS_TOL, epsrel=1e-12, limit=10_000)
    if err > max(_QUAD_ABS_TOL * 10.0, 1e-10 * abs(val)):
        raise QuadratureFailure(f"Q({x}): error estimate {err:.2e} above tolerance")
    return val


def eval_P(params: CanonicalParams, x):
    """P(x) = alpha*Q^2/2 + beta*Q, the antiderivative of p(x)."""
    return params.field.QuP(x)[2]


def eval_G(params: CanonicalParams, x):
    """G(x) = (kappa + lambda P) (alpha Q + beta) rho J."""
    return params.field.drift(x)[0]


def eval_H(params: CanonicalParams, x):
    """H(x) = rho (alpha Q + beta) J."""
    return params.field.drift(x)[1]


def eval_pq(params: CanonicalParams, x: float) -> tuple[float, float]:
    """Coefficients of the segment equation dZ/dx = p(x) Z + q(x).

    The g1 = J factor cancels between G, H and the slow drift, leaving
    p = rho*(alpha Q + beta)*F_x and q = (kappa + lambda P)*rho*(alpha Q + beta)*F_x.
    """
    return params.field.pq(x)


def eval_vector_field(
    params: CanonicalParams, x: float, y: float, z: float, eps: float, delta: float
) -> tuple[float, float, float]:
    """Fast-time right-hand side (x', y', z')."""
    if eps < 0.0 or delta < 0.0:
        raise DomainError("eps and delta must be nonnegative")
    G, H = params.field.drift(x)
    return y - eval_F(x, z), eps * (0.5 - x), eps * (delta * G + z * H)


# --- critical-manifold geometry ----------------------------------------------


@dataclass(frozen=True)
class ManifoldGeometry:
    """Fold abscissas x1 < x2 < x3 < x4, their heights, and projection abscissas."""

    x1: float
    x2: float
    x3: float
    x4: float
    xhat1: float
    xhat3: float
    xhat4: float
    y1: float
    y2: float
    y3: float
    y4: float

    @property
    def folds(self) -> tuple[float, float, float, float]:
        return (self.x1, self.x2, self.x3, self.x4)

    @property
    def lao_threshold(self) -> float:
        """Midpoint of xhat4 and x2; LAO cycles fall left of it, SAO cycles never do."""
        return 0.5 * (self.xhat4 + self.x2)


# Design values, exact: the folds x1..x4, then xhat1, xhat3 and xhat4, where
# F(., 0) returns to the heights of x1, x3 and x4.
_FOLDS = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1))
_PROJECTIONS = (Fraction(8, 5), Fraction(3, 2), Fraction(-5, 2))

_GEOMETRY = ManifoldGeometry(
    *(float(x) for x in _FOLDS + _PROJECTIONS),
    *(float(sum(c * x**k for k, c in enumerate(_C))) for x in _FOLDS),
)


def compute_geometry(params: CanonicalParams) -> ManifoldGeometry:
    """Folds and projections of F(., 0): the design constants, one object for every parameter set."""
    return _GEOMETRY
