"""Canonical degree-9 slow-fast vector-field family and its critical-manifold geometry.

The fast nullcline is y = F(x, z) with F a fixed degree-9 polynomial whose
coefficients are linear in z and stored as exact rationals. The slow drift is
g1 = J(x) = 1/2 - x and g2 = delta*G(x) + z*H(x), where G and H are built
from a weight function rho and the accumulated integral
Q(x) = int_0^x rho(s) F_s(s, 0) ds. The reference level z0 of the slow
variable is fixed at 0: Q, the geometry and the segment maps all belong to
the sheet profile F(., 0), so there is no z0 parameter.

Two rho families are supported: Quadratic rho(x) = p + x + q x^2, and the
fixed rational rho whose reciprocal is a specific quartic R4. The family is
built so that, exactly in rational arithmetic,

    F_x(x, z) = x (x + 1 + z/16) (x + 2) (x - 1) R4(x),

so for both families the product rho * F_x(., 0) is a polynomial, and Q has
a closed polynomial form: for the fixed rational rho it is the integral of
x (x + 1) (x + 2) (x - 1).

The geometry is the family's design: F_x(., 0) vanishes at the folds -2, -1,
0 and 1 (and at the two real roots of R4, left of them), and F(-2) = F(8/5),
F(0) = F(3/2) and F(1) = F(-5/2), all exactly in rational arithmetic.
:func:`compute_geometry` returns these constants, with the fold heights
taken from exact rational F.

:class:`Field`, built once per parameter set as ``params.field``, is the one
evaluator: plain-float Horner kernels for F, Q, rho, G and H, and the
integrators' kernels. Loops start from 0.0, so they take scalars and,
element-wise, arrays; the ``eval_*`` functions use it. The Radau right-hand
side ``Field.rhs``, its Jacobian ``Field.jac``, the fast fibers' system
``Field.layer`` with x as the independent variable (the rhs divided by its
first component, which ``integrate_full`` solves over each jump), the
derivative ``Field.dPhidx`` of the fundamental matrix of the hybrid slow flow,
and the two whole solvers with those bodies written into their stages
(``Field.rhs.solver``, which ``radau.solve`` runs, and
``Field.dPhidx.solver``, which ``dop853.solve`` runs, its step end taking
only dPhidx's product with the new matrix, on the coefficients its last
stage bound at the same x) are straight-line functions: the same loops
unrolled, with the same operations in the same order, compiled once per rho
shape and bound to a parameter set's constants on first use, so the map
level, which builds a Field per parameter set, never pays for them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import isfinite, sqrt

from .errors import DomainError, FrozenValue, check_z0, json_float

X_MIN, X_MAX = -3.0, 2.0

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


# --- rho specification -------------------------------------------------------


class RhoSpec(FrozenValue):
    """Weight function: either rho = p + x + q x^2 or the fixed rational choice."""

    _fields = ("variant", "p", "q")
    p = q = None

    def __init__(self, variant: str, p: float | None = None, q: float | None = None):
        if variant == "quadratic":
            if p is None or q is None:
                raise DomainError("quadratic rho needs p and q")
            self._check_nonzero_on_interval(p, q)
        elif variant == "fixed_rational":
            if p is not None or q is not None:
                raise DomainError("fixed_rational rho takes no (p, q)")
            # rho is the reciprocal of the quartic R4, hence never zero. Its
            # poles, R4's real roots -4.69647 and -2.91967, cancel in W = rho F_x
            # but not in G = (kappa + lambda P) u rho J or H = rho u J, so z' is
            # singular on those two planes; integrate_full's jumps end legs there.
        else:
            raise DomainError(f"unknown rho variant {variant!r}")
        vars(self).update(variant=variant, p=p, q=q)

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

    def to_json_obj(self):
        if self.variant == "quadratic":
            return {"quadratic": {"p": self.p, "q": self.q}}
        return "fixed_rational"

    @classmethod
    def from_json_obj(cls, obj) -> "RhoSpec":
        """``"fixed_rational"`` or ``{"quadratic": {"p": p, "q": q}}``; any other key raises DomainError."""
        if obj == "fixed_rational":
            return cls("fixed_rational")
        if isinstance(obj, dict) and "quadratic" in obj:
            coeffs = obj["quadratic"]
            p, q = json_float(coeffs, "p"), json_float(coeffs, "q")  # so coeffs is a mapping below
            unknown = [key for key in obj if key != "quadratic"]
            unknown += [f"quadratic.{key}" for key in coeffs if key not in ("p", "q")]
            if unknown:
                raise DomainError(f"unknown rho keys: {', '.join(unknown)}")
            return cls("quadratic", p=p, q=q)
        raise DomainError(f"unrecognized rho specification {obj!r}")


QUADRATIC = "quadratic"
FIXED_RATIONAL = "fixed_rational"


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def q_polynomial(rho: RhoSpec) -> tuple[float, ...]:
    """Descending coefficients of Q(x) = int_0^x W, with W = rho(x) * F_x(x, 0).

    For quadratic rho, W is a product of polynomials. For the fixed rational
    rho, F_x(x, 0) = x (x + 1) (x + 2) (x - 1) R4(x) with R4 = 1/rho, so W is
    the monic quartic on the design folds ``_FOLDS``. W is rounded to floats
    and divided term by term, c_k / (k + 1).
    """
    if rho.variant == "quadratic":
        fx_desc = [Fraction(k) * _C[k] for k in range(9, 0, -1)]  # F_x(., 0), descending x^8..x^0
        rho_desc = [Fraction(rho.q).limit_denominator(10**15), Fraction(1), Fraction(rho.p).limit_denominator(10**15)]
        w = _poly_mul(rho_desc, fx_desc)
    else:
        w = [Fraction(1)]
        for xf in _FOLDS:
            w = _poly_mul(w, [Fraction(1), -xf])
    n = len(w)
    return tuple(float(c) / (n - i) for i, c in enumerate(w)) + (0.0,)  # constant term 0: Q(0) = 0


@lru_cache(maxsize=64)
def _q_tables(rho: RhoSpec) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coefficients of Q and of W = Q', built once per rho; W is differentiated from Q, rounding included."""
    q = q_polynomial(rho)
    n = len(q) - 1
    return q, tuple(c * (n - i) for i, c in enumerate(q[:-1]))


# --- straight-line integrator kernels ------------------------------------------
#
# The Radau rhs and jac and the hybrid dPhidx run thousands of times per solve, so each is
# one function whose Horner loops are unrolled into expressions. The operations and their
# order are those of the loops above, the leading 0.0 * x + and 0.0 + terms included,
# so every input, +-inf and nan too, gives the same bits. Constants are closure cells
# bound by a factory compiled once per kernel and rho shape; no value enters the source.
# The rhs stage binds its three values at the state {s} with {out}: "return" in the rhs
# kernel, an assignment in the layer kernel, which divides them by the first, and in each
# rhs slot of the Radau solver kernel (its three Newton stages and the step end). dPhidx
# is two parts, its coefficients a, b and c at x and their product with Phi = (A, B, C,
# D); the DOP853 solver kernel's step end takes only the second, on the coefficients its
# last stage bound at the same x. The rhs stage, dPhidx's coefficients and jac bind Q, u
# and P with the one snippet _QUP.
_QUP = """\
    Q = {Q}
    u = alpha * Q + beta
    P = alpha * Q * Q / 2.0 + beta * Q
"""
_RHS_STAGE = """\
    x, y, z = {s}
""" + _QUP + """\
    r = {rho}
    J = 0.5 - x
    {out} (y - {F}) / eps, 0.5 - x, delta * ((kappa + lam * P) * u * r * J) + z * (r * u * J)
"""

_DPHI_COEFFS = _QUP + """\
    g = kappa + lam * P
    W = {W}
    ct = delta * {rho} * ({Fxz} * x)
    a = u * g * W
    b = u * (W + g * ct)
    c = u * ct
"""
_DPHI_PRODUCT = "    {out} b * A + a * C, b * B + a * D, -c * A, -c * B\n"

_KERNEL_SRC = {
    "rhs": "def rhs(t, s, eps, delta):\n{rhs}",
    "jac": """\
def jac(t, s, eps, delta):
    x, y, z = s
    r = {rho}
    rp = {drho}
""" + _QUP + """\
    Qp = r * {Fx0}
    up = alpha * Qp
    J = 0.5 - x
    Pp = u * Qp
    Hp = rp * u * J + r * up * J - r * u
    Gp = lam * Pp * u * r * J + (kappa + lam * P) * (up * r * J + u * rp * J - u * r)
    return (
        (-{Fx} / eps, 1.0 / eps, -{Fz} / eps),
        (-1.0, 0.0, 0.0),
        (delta * Gp + z * Hp, 0.0, r * u * J),
    )
""",
    "dPhidx": "def dPhidx(x, Phi, delta):\n    A, B, C, D = Phi\n" + _DPHI_COEFFS + _DPHI_PRODUCT.replace("{out}", "return"),
    "layer": "def layer(x, s, eps, delta):\n    t, y, z = s\n{layer}    return 1.0 / f0, f1 / f0, f2 / f0\n",
}


def _dphi_slot(parts, x, s, out, coeffs=True):
    """A DOP853 slot with dPhidx's body: its coefficients at x (unless ``coeffs`` is false), then the product."""
    lines = f"    x = {x}\n{_DPHI_COEFFS.format(**parts)}" if coeffs else ""
    return lines + "".join(f"    {v} = {e}\n" for v, e in zip("ABCD", s)) + _DPHI_PRODUCT.format(out=out)


def _horner_src(names) -> str:
    """The loop of :func:`_horner` over the named coefficients, unrolled."""
    acc = "0.0"
    for c in names:
        acc = f"({acc} * x + {c})"
    return acc


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


@lru_cache(maxsize=None)
def _kernel_factory(name: str, variant: str, nq: int):
    """``make(alpha, beta, kappa, lam, p, q, q_coeffs, w_coeffs)`` returning kernel ``name``, compiled once per shape."""
    F = Fz = "0.0"
    for k, _, _ in _KCD:  # the loops of eval_F and of F_z (tests/oracles.py)
        F = f"({F} + (C{k} + D{k} * z)) * x"
        Fz = f"({Fz} + D{k}) * x"
    if variant == QUADRATIC:
        rho, drho = "(rho_p + x + rho_q * x * x)", "(1.0 + 2.0 * rho_q * x)"
    else:
        den = _horner_src(_names("R", 5))
        rho, drho = f"(1.0 / {den})", f"(-{_horner_src(_names('RD', 4))} / ({den} * {den}))"
    parts = {
        "Q": _horner_src(_names("Q", nq)),
        "W": _horner_src(_names("W", nq - 1)),
        "F": f"({F}) * x",
        "Fx": f"({_horner_src(f'{k} * (C{k} + D{k} * z)' for k, _, _ in _KCD)} * x)",  # the loop of eval_Fx
        "Fx0": f"({_horner_src(f'{k} * (C{k} + D{k} * 0.0)' for k, _, _ in _KCD)} * x)",
        "Fz": f"(({Fz}) * x)",
        "Fxz": _horner_src(_names("KD", 8)),
        "rho": rho,
        "drho": drho,
    }
    namespace = {
        "CS": tuple(c for _, c, _ in _KCD),
        "DS": tuple(d for _, _, d in _KCD),
        "KDS": _KD,
        "RS": _RHO_DEN,
        "RDS": _RHO_DDEN,
    }
    function = "solver"
    if name == "radau":
        from . import radau  # the solver's template, and the constants and helpers it reads
        namespace.update(vars(radau))
        body = radau.solver_source(partial(_RHS_STAGE.format, **parts), "    eps, delta = args\n")
    elif name == "dop853":
        from . import dop853
        namespace.update(vars(dop853))
        stage = partial(_dphi_slot, parts)
        body = dop853.solver_source(4, stage, partial(stage, coeffs=False), "    delta, = args\n")
    else:
        function = name
        stage = partial(_RHS_STAGE.format, **parts)
        body = _KERNEL_SRC[name].format(rhs=stage(s="s", out="return"), layer=stage(s="(x, y, z)", out="f0, f1, f2 ="),
                                        **parts)
    unpack = {
        "q_coeffs": _names("Q", nq),
        "w_coeffs": _names("W", nq - 1),
        "CS": [f"C{k}" for k, _, _ in _KCD],
        "DS": [f"D{k}" for k, _, _ in _KCD],
        "KDS": _names("KD", 8),
        "RS": _names("R", 5),
        "RDS": _names("RD", 4),
    }
    src = "def make(alpha, beta, kappa, lam, rho_p, rho_q, q_coeffs, w_coeffs):\n"
    src += "".join(f"    {', '.join(names)}, = {seq}\n" for seq, names in unpack.items())
    src += "".join("    " + line + "\n" for line in body.splitlines())
    src += f"    return {function}\n"
    exec(compile(src, f"<mmopam.family {name} kernel, {variant} rho>", "exec"), namespace)
    return namespace["make"]


# --- the compiled field ------------------------------------------------------


class Field:
    """F, Q, rho and the slow drift of one parameter set (``params.field``).

    Products keep one order everywhere, G = (((kappa + lambda P) u) rho) J and
    H = (rho u) J with u = alpha Q + beta, so every route gives the same bits.
    """

    __slots__ = ("alpha", "beta", "kappa", "lam", "rho", "_q", "_w", "_spec", "_rhs", "_jac", "_layer", "_dPhidx")

    def __init__(self, params: CanonicalParams):
        self.alpha, self.beta = float(params.alpha), float(params.beta)
        self.kappa, self.lam = float(params.kappa), float(params.lam)
        self.rho = params.rho.rho
        self._q, self._w = _q_tables(params.rho)
        self._spec = params.rho
        self._rhs = self._jac = self._layer = self._dPhidx = None  # the integrator kernels, bound on first use

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

    @property
    def rhs(self):
        """Slow-time (x', y', z') at s = (x, y, z), called ``rhs(t, s, eps, delta)`` by the Radau solver.

        The same products as :meth:`drift`: (y - F(x, z)) / eps, J(x) and delta G + z H.
        """
        if self._rhs is None:
            self._rhs = self._bind("rhs")
            self._rhs.solver = self._bind("radau")  # radau.solve with this rhs in its Newton stages and step end
        return self._rhs

    @property
    def jac(self):
        """Analytic Jacobian of :attr:`rhs` at s, as three rows, called ``jac(t, s, eps, delta)``."""
        if self._jac is None:
            self._jac = self._bind("jac")
        return self._jac

    @property
    def layer(self):
        """The fast fibers' system with x as the independent variable, called ``layer(x, (t, y, z), eps, delta)``.

        (dt, dy, dz)/dx is :attr:`rhs`'s stage divided by its first component
        (y - F(x, z)) / eps, so the field is written in one place.
        """
        if self._layer is None:
            self._layer = self._bind("layer")
        return self._layer

    @property
    def dPhidx(self):
        """Derivative of the fundamental matrix Phi = (A, B, C, D) of the hybrid slow flow.

        The flow dZ/dx = u (g + Z)(W + ct Z), with u = alpha Q + beta, g = kappa + lambda P
        and ct = delta rho F_xz, is the Riccati equation a + b Z + c Z^2 with a = u g W,
        b = u (W + g ct) and c = u ct. So Z = p/q for the linear system
        (p, q)' = (b p + a q, -c p), whose fundamental matrix obeys Phi' = ((b, a), (-c, 0)) Phi.
        Called ``dPhidx(x, Phi, delta)`` by the DOP853 legs, with Phi a 4-tuple in row order.
        """
        if self._dPhidx is None:
            self._dPhidx = self._bind("dPhidx")
            self._dPhidx.solver = self._bind("dop853")  # dop853.solve with this body in its stages and step end
        return self._dPhidx

    def _bind(self, name):
        """The straight-line kernel ``name`` with this parameter set's constants in its closure."""
        spec = self._spec
        make = _kernel_factory(name, spec.variant, len(self._q))
        return make(self.alpha, self.beta, self.kappa, self.lam, spec.p, spec.q, self._q, self._w)


# --- canonical parameters ----------------------------------------------------


class CanonicalParams(FrozenValue):
    """Parameters (alpha, beta, kappa, lambda) plus the rho choice.

    The slow variable's reference level z0 is fixed at 0 and is not a field.
    The JSON form writes ``"z0": 0.0``; reading accepts a missing key or 0
    and rejects any other value (see :func:`check_z0`).
    """

    _fields = ("alpha", "beta", "kappa", "lam", "rho")

    def __init__(self, alpha: float, beta: float, kappa: float, lam: float, rho: RhoSpec):
        if not (isfinite(alpha) and isfinite(beta) and isfinite(kappa) and isfinite(lam)):
            raise DomainError(
                f"vector-field parameters must be finite, got alpha={alpha}, beta={beta}, kappa={kappa}, lambda={lam}"
            )
        vars(self).update(alpha=alpha, beta=beta, kappa=kappa, lam=lam, rho=rho)

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
        if not isinstance(obj, dict):
            raise DomainError(f"canonical parameters must be a JSON object, got {obj!r}")
        unknown = [key for key in obj if key not in ("alpha", "beta", "kappa", "lambda", "rho", "z0")]
        if unknown:
            raise DomainError(f"unknown canonical parameter keys: {', '.join(unknown)}")
        check_z0(obj)
        values = (json_float(obj, key) for key in ("alpha", "beta", "kappa", "lambda"))
        return cls(*values, RhoSpec.from_json_obj(obj.get("rho")))


def eval_Q(params: CanonicalParams, x):
    """Q(x), the closed-form polynomial."""
    return params.field.Q(x)


def eval_P(params: CanonicalParams, x):
    """P(x) = alpha*Q^2/2 + beta*Q, the antiderivative of p(x)."""
    return params.field.QuP(x)[2]


# --- critical-manifold geometry ----------------------------------------------


class ManifoldGeometry(FrozenValue):
    """Fold abscissas x1 < x2 < x3 < x4, their heights, and projection abscissas."""

    _fields = ("x1", "x2", "x3", "x4", "xhat1", "xhat3", "xhat4", "y1", "y2", "y3", "y4")

    def __init__(self, x1: float, x2: float, x3: float, x4: float, xhat1: float, xhat3: float, xhat4: float,
                 y1: float, y2: float, y3: float, y4: float):
        vars(self).update(x1=x1, x2=x2, x3=x3, x4=x4, xhat1=xhat1, xhat3=xhat3, xhat4=xhat4, y1=y1, y2=y2, y3=y3, y4=y4)

    @property
    def folds(self) -> tuple[float, float, float, float]:
        return (self.x1, self.x2, self.x3, self.x4)

    @property
    def branches(self) -> tuple[tuple[tuple[float, float], ...], ...]:
        """Slow passages (x_start, x_end): the Z < 0 branch, S_a1 then S_a3, and the Z > 0 branch, S_a2 then S_a3."""
        return ((self.xhat4, self.x1), (self.xhat1, self.x4)), ((self.x2, self.x3), (self.xhat3, self.x4))

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
