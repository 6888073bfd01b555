"""The compiled Field kernels against the NumPy formulas they replace.

The reference implementations below are the original array formulas
(``numpy.polyval`` on the Q polynomial, Horner loops over NumPy coefficient
arrays, ``1/polyval`` of the rho quartic). Every kernel must reproduce them
exactly, not just to a tolerance: the integrators' outputs depend on it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from mmopam import family
from mmopam.errors import DomainError
from mmopam.family import CanonicalParams, RhoSpec, compute_geometry, q_polynomial

CF = np.array([float(c) for c in family._C])
DF = np.array([float(d) for d in family._D])
RHO_DEN = np.array([float(c) for c in family._RHO_DEN_EXACT])

XS = np.concatenate([np.linspace(-3.0, 2.0, 101), [-2.5, -2.0, -1.0, 0.0, 1.0, 1.5, 1.6]])
ZS = (0.0, -0.35, 0.8)
RHOS = (RhoSpec("fixed_rational"), RhoSpec("quadratic", p=1.0, q=1.0), RhoSpec("quadratic", p=1.3, q=0.7))


def _start(x):
    return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0


def ref_F(x, z):
    acc = _start(x)
    for k in range(9, 1, -1):
        acc = (acc + (CF[k] + DF[k] * z)) * x
    return acc * x


def ref_Fx(x, z):
    acc = _start(x)
    for k in range(9, 1, -1):
        acc = acc * x + k * (CF[k] + DF[k] * z)
    return acc * x


def ref_Fxx(x, z):
    acc = _start(x)
    for k in range(9, 2, -1):
        acc = acc * x + k * (k - 1) * (CF[k] + DF[k] * z)
    return acc * x + 2.0 * (CF[2] + DF[2] * z)


def ref_Fz(x, z):
    acc = _start(x)
    for k in range(9, 1, -1):
        acc = (acc + DF[k]) * x
    return acc * x


def ref_Fxz(x, z):
    acc = _start(x)
    for k in range(9, 1, -1):
        acc = acc * x + k * DF[k]
    return acc * x


def ref_rho(rho, x):
    if rho.variant == "quadratic":
        return rho.p + x + rho.q * x * x
    return 1.0 / np.polyval(RHO_DEN, x)


def ref_drho(rho, x):
    if rho.variant == "quadratic":
        return 1.0 + 2.0 * rho.q * x
    den = np.polyval(RHO_DEN, x)
    return -np.polyval(np.polyder(RHO_DEN), x) / (den * den)


def ref_Q(params, x):
    return np.polyval(q_polynomial(params.rho), x)


def ref_P(params, x):
    Qx = ref_Q(params, x)
    return params.alpha * Qx * Qx / 2.0 + params.beta * Qx


def ref_pq(params, x):
    fx = ref_Fx(x, 0.0)
    Qx = ref_Q(params, x)
    lin = params.alpha * Qx + params.beta
    r = ref_rho(params.rho, x)
    p = r * lin * fx
    q = (params.kappa + params.lam * (params.alpha * Qx * Qx / 2.0 + params.beta * Qx)) * lin * r * fx
    return p, q


def ref_G(params, x):
    Qx = ref_Q(params, x)
    return (
        (params.kappa + params.lam * (params.alpha * Qx * Qx / 2.0 + params.beta * Qx))
        * (params.alpha * Qx + params.beta)
        * ref_rho(params.rho, x)
        * (0.5 - x)
    )


def ref_H(params, x):
    return ref_rho(params.rho, x) * (params.alpha * ref_Q(params, x) + params.beta) * (0.5 - x)


def ref_rhs(params, s, eps, delta):
    x, y, z = s
    return (
        (y - ref_F(x, z)) / eps,
        0.5 - x,
        delta * ref_G(params, x) + (z - 0.0) * ref_H(params, x),
    )


def ref_jac(params, s, eps, delta):
    x, y, z = s
    r = ref_rho(params.rho, x)
    rp = ref_drho(params.rho, x)
    Qx = ref_Q(params, x)
    Qp = r * ref_Fx(x, 0.0)
    u = params.alpha * Qx + params.beta
    up = params.alpha * Qp
    J = 0.5 - x
    P = params.alpha * Qx * Qx / 2.0 + params.beta * Qx
    Pp = u * Qp
    Hp = rp * u * J + r * up * J - r * u
    Gp = params.lam * Pp * u * r * J + (params.kappa + params.lam * P) * (up * r * J + u * rp * J - u * r)
    return np.array(
        [
            [-ref_Fx(x, z) / eps, 1.0 / eps, -ref_Fz(x, z) / eps],
            [-1.0, 0.0, 0.0],
            [delta * Gp + (z - 0.0) * Hp, 0.0, ref_H(params, x)],
        ]
    )


def ref_dZdx(params, x, Z, delta):
    Qx = ref_Q(params, x)
    u = params.alpha * Qx + params.beta
    P = params.alpha * Qx * Qx / 2.0 + params.beta * Qx
    w = np.polyval(np.polyder(q_polynomial(params.rho)), x)
    corr = delta * Z * ref_rho(params.rho, x) * ref_Fxz(x, 0.0)
    return u * (params.kappa + params.lam * P + Z) * (w + corr)


def same(got, want) -> bool:
    """Exact equality, element-wise for arrays, with matching shapes."""
    return np.shape(got) == np.shape(want) and bool(np.all(np.asarray(got) == np.asarray(want)))


@pytest.mark.parametrize("z", ZS)
@pytest.mark.parametrize(
    "kernel, ref",
    [("F", ref_F), ("Fx", ref_Fx), ("Fxx", ref_Fxx), ("Fz", ref_Fz), ("Fxz", ref_Fxz)],
)
def test_F_kernels_exact(kernel, ref, z):
    fn = getattr(family.Field, kernel)
    public = getattr(family, "eval_" + kernel)
    assert same(fn(XS, z), ref(XS, z))
    assert same(public(XS, z), ref(XS, z))
    for x in XS:
        assert fn(float(x), z) == ref(np.float64(x), z)
        assert public(float(x), z) == ref(np.float64(x), z)


@pytest.mark.parametrize("rho", RHOS, ids=["fixed", "quad11", "quad"])
def test_rho_Q_kernels_exact(rho):
    params = CanonicalParams(0.8743, 0.024, 27.2674, -64.5764, rho)
    fld = params.field
    assert same(fld.rho(XS), ref_rho(rho, XS))
    assert same(fld.drho(XS), ref_drho(rho, XS))
    assert same(fld.Q(XS), ref_Q(params, XS))
    assert same(family.eval_Q(params, XS), ref_Q(params, XS))
    G, H = fld.drift(XS)
    assert same(G, ref_G(params, XS)) and same(H, ref_H(params, XS))
    for x in XS:
        x = float(x)
        assert fld.rho(x) == ref_rho(rho, np.float64(x))
        assert fld.drho(x) == ref_drho(rho, np.float64(x))
        assert fld.Q(x) == ref_Q(params, x)
        assert family.eval_P(params, x) == ref_P(params, x)
        assert family.eval_G(params, x) == ref_G(params, x)
        assert family.eval_H(params, x) == ref_H(params, x)
        if x not in (-2.0, -1.0, 0.0, 1.0):  # eval_pq rejects the folds
            assert family.eval_pq(params, x) == ref_pq(params, np.float64(x))


@pytest.mark.parametrize("rho", RHOS, ids=["fixed", "quad11", "quad"])
def test_integrator_kernels_exact(rho):
    params = CanonicalParams(0.8743, 0.024, 27.2674, -64.5764, rho)
    fld = params.field
    eps, delta = 1e-7, 5e-3
    for x in XS[::7].tolist():
        for z in ZS:
            s = (x, family.eval_F(x, z) + 0.01, z)
            assert fld.rhs(0.0, s, eps, delta) == ref_rhs(params, s, eps, delta)
            jac = fld.jac(0.0, s, eps, delta)
            assert same(jac, ref_jac(params, s, eps, delta))
            assert all(type(v) is float for row in jac for v in row)
            dZ = fld.dZdx(x, z, delta)
            assert type(dZ) is float
            assert dZ == ref_dZdx(params, np.float64(x), z, delta)


def _sheet_states(geom):
    # one abscissa inside each attracting sheet: S_a1, S_a2, S_a3
    xs = (0.5 * (geom.xhat4 + geom.x1), 0.5 * (geom.x2 + geom.x3), 0.5 * (geom.x4 + geom.xhat1))
    for x in xs:
        for z in (-2e-3, 0.0, 3e-3):
            yield (x, family.eval_F(x, z), z)


@pytest.mark.parametrize("rho", RHOS[:2], ids=["fixed", "quad"])
def test_jac_matches_finite_differences(rho):
    params = CanonicalParams(0.8743, 0.024, 27.2674, -64.5764, rho)
    fld = params.field
    geom = compute_geometry(params)
    eps, delta = 1e-7, 5e-3
    for s in _sheet_states(geom):
        jac = fld.jac(0.0, s, eps, delta)
        for j in range(3):
            h = 1e-6 * max(1.0, abs(s[j]))
            up, dn = list(s), list(s)
            up[j] += h
            dn[j] -= h
            fd = (np.array(fld.rhs(0.0, up, eps, delta)) - np.array(fld.rhs(0.0, dn, eps, delta))) / (2.0 * h)
            for i in range(3):
                scale = max(1.0, max(abs(v) for v in jac[i]))
                assert math.isclose(jac[i][j], fd[i], rel_tol=1e-6, abs_tol=1e-7 * scale), (s, i, j)


def test_fixed_rho_W_is_exact():
    fx_desc = [Fraction(k) * family._C[k] for k in range(9, 0, -1)]
    quot, rem = family._poly_divmod(fx_desc, family._RHO_DEN_EXACT)
    assert quot == [1, 2, -1, -2, 0]
    assert not any(rem)
    assert np.polyder(q_polynomial(RhoSpec("fixed_rational"))).tolist() == [1.0, 2.0, -1.0, -2.0, 0.0]


def test_q_polynomial_always_an_array(monkeypatch):
    for rho in RHOS:
        coeffs = q_polynomial(rho)
        assert isinstance(coeffs, tuple) and all(type(c) is float for c in coeffs)
    # a quartic that does not divide F_x(., 0) has no closed-form Q, and says so
    bent = list(family._RHO_DEN_EXACT)
    bent[-1] += Fraction(1, 7)
    monkeypatch.setattr(family, "_RHO_DEN_EXACT", bent)
    with pytest.raises(DomainError):
        q_polynomial(RhoSpec("fixed_rational"))


def test_field_built_once_per_params():
    params = CanonicalParams(0.5, 0.3, 2.0, -4.0, RhoSpec("fixed_rational"))
    assert params.field is params.field
    assert CanonicalParams(0.5, 0.3, 2.0, -4.0, RhoSpec("fixed_rational")) == params
