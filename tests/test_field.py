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
from mmopam.family import CanonicalParams, RhoSpec, compute_geometry, q_polynomial
from mmopam.pam import PamCoefficients
from mmopam.segments import associated_pam
from mmopam.synthesis import synthesize

from oracles import drho, eval_Fxx, eval_Fxz, eval_Fz, eval_G, eval_H, eval_J

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


def ref_dPhidx(params, x, Phi, delta):
    A, B, C, D = Phi
    Qx = ref_Q(params, x)
    u = params.alpha * Qx + params.beta
    P = params.alpha * Qx * Qx / 2.0 + params.beta * Qx
    g = params.kappa + params.lam * P
    w = np.polyval(np.polyder(q_polynomial(params.rho)), x)
    ct = delta * ref_rho(params.rho, x) * ref_Fxz(x, 0.0)
    a = u * g * w
    b = u * (w + g * ct)
    c = u * ct
    return b * A + a * C, b * B + a * D, -c * A, -c * B


def same(got, want) -> bool:
    """Exact equality, element-wise for arrays, with matching shapes."""
    return np.shape(got) == np.shape(want) and bool(np.all(np.asarray(got) == np.asarray(want)))


@pytest.mark.parametrize("z", ZS)
@pytest.mark.parametrize(
    "kernel, ref",
    [("F", ref_F), ("Fx", ref_Fx), ("Fxx", ref_Fxx), ("Fz", ref_Fz), ("Fxz", ref_Fxz)],
)
def test_F_kernels_exact(kernel, ref, z):
    evaluate = {"Fxx": eval_Fxx, "Fz": eval_Fz, "Fxz": eval_Fxz}.get(kernel) or getattr(family, "eval_" + kernel)
    assert same(evaluate(XS, z), ref(XS, z))
    for x in XS:
        assert evaluate(float(x), z) == ref(np.float64(x), z)


@pytest.mark.parametrize("rho", RHOS, ids=["fixed", "quad11", "quad"])
def test_rho_Q_kernels_exact(rho):
    params = CanonicalParams(0.8743, 0.024, 27.2674, -64.5764, rho)
    fld = params.field
    assert same(fld.rho(XS), ref_rho(rho, XS))
    assert same(drho(rho, XS), ref_drho(rho, XS))
    assert same(fld.Q(XS), ref_Q(params, XS))
    assert same(family.eval_Q(params, XS), ref_Q(params, XS))
    G, H = fld.drift(XS)
    assert same(G, ref_G(params, XS)) and same(H, ref_H(params, XS))
    for x in XS:
        x = float(x)
        assert fld.rho(x) == ref_rho(rho, np.float64(x))
        assert drho(rho, x) == ref_drho(rho, np.float64(x))
        assert fld.Q(x) == ref_Q(params, x)
        assert family.eval_P(params, x) == ref_P(params, x)
        assert eval_G(params, x) == ref_G(params, x)
        assert eval_H(params, x) == ref_H(params, x)


def bits(v) -> str:
    """float.hex, with every nan alike."""
    v = float(v)
    return "nan" if math.isnan(v) else v.hex()


@pytest.mark.parametrize("rho", RHOS, ids=["fixed", "quad11", "quad"])
def test_integrator_kernels_exact(rho):
    eps, delta = 1e-7, 5e-3
    states = [(x, z) for x in XS.tolist() + [math.inf, -math.inf, math.nan] for z in ZS]
    for kappa, lam in ((27.2674, -64.5764), (-0.0, -0.0)):
        params = CanonicalParams(0.8743, 0.024, kappa, lam, rho)
        fld = params.field
        with np.errstate(all="ignore"):  # the non-finite states overflow and make nan in the references
            for x, z in states:
                s = (x, family.eval_F(x, z) + 0.01, z)
                rhs = fld.rhs(0.0, s, eps, delta)
                assert all(type(v) is float for v in rhs)
                assert list(map(bits, rhs)) == list(map(bits, ref_rhs(params, s, eps, delta)))
                jac = fld.jac(0.0, s, eps, delta)
                assert all(type(v) is float for row in jac for v in row)
                assert [bits(v) for row in jac for v in row] == list(map(bits, ref_jac(params, s, eps, delta).ravel()))
                phi = (1.0 + z, z, -0.25 * z, 1.0)
                dphi = fld.dPhidx(x, phi, delta)
                assert all(type(v) is float for v in dphi)
                assert list(map(bits, dphi)) == list(map(bits, ref_dPhidx(params, np.float64(x), phi, delta)))


@pytest.mark.parametrize("rho", RHOS[:2], ids=["fixed", "quad"])
def test_layer_is_the_rhs_over_its_first_component(rho):
    """(dt, dy, dz)/dx on a fast fiber: (eps / g, eps J / g, eps (delta G + z H) / g) with g = y - F(x, z)."""
    eps, delta = 1e-7, 5e-3
    params = CanonicalParams(0.8743, 0.024, 27.2674, -64.5764, rho)
    fld = params.field
    for x in XS.tolist():
        for z in ZS:
            for gap in (-0.3, -2e-4, 1e-3, 0.5):
                y = family.eval_F(x, z) + gap
                g = y - family.eval_F(x, z)
                layer = fld.layer(x, (7.0, y, z), eps, delta)
                assert all(type(v) is float for v in layer)
                want = (eps / g, eps * eval_J(x) / g, eps * (delta * eval_G(params, x) + z * eval_H(params, x)) / g)
                for got, ref in zip(layer, want):
                    assert math.isclose(got, ref, rel_tol=1e-12, abs_tol=1e-300)
                # the same bits as the rhs divided by its first component: the field is written once
                f0, f1, f2 = fld.rhs(0.0, (x, y, z), eps, delta)
                assert list(map(bits, layer)) == list(map(bits, (1.0 / f0, f1 / f0, f2 / f0)))


def test_map_level_path_compiles_no_kernel(monkeypatch):
    """The map level builds a Field per parameter set; only an integrator's first use binds a kernel."""
    requested = []
    factory = family._kernel_factory
    monkeypatch.setattr(family, "_kernel_factory", lambda *key: requested.append(key) or factory(*key))
    params = synthesize(PamCoefficients(0.3, 7.0, 0.9, -2.0), RhoSpec("fixed_rational"))
    associated_pam(params, compute_geometry(params))
    family.eval_P(params, 0.3), family.eval_Q(params, 0.3)
    assert requested == []
    fld = params.field
    assert fld.dPhidx is fld.dPhidx
    assert requested == [("dPhidx", "fixed_rational", 6), ("dop853", "fixed_rational", 6)]


def test_kernels_compiled_once_per_rho_shape(monkeypatch):
    compiled = []
    monkeypatch.setattr(family, "compile", lambda *a: compiled.append(a[1]) or compile(*a), raising=False)
    family._kernel_factory.cache_clear()
    fields = [CanonicalParams(0.8743, 0.024, 27.2674, -64.5764, rho).field for rho in RHOS + RHOS]
    for fld in fields:
        fld.rhs, fld.jac, fld.layer, fld.dPhidx
    kernels = ("rhs", "radau", "jac", "layer", "dPhidx", "dop853")
    assert sorted(compiled) == sorted(f"<mmopam.family {k} kernel, {v} rho>" for k in kernels
                                      for v in ("fixed_rational", "quadratic"))
    # radau.solve and dop853.solve find the solver kernels on the rhs and dPhidx kernels, one per parameter set
    assert all(fld.rhs.solver.__closure__ and fld.dPhidx.solver.__closure__ for fld in fields)
    assert fields[1].rhs.solver is not fields[2].rhs.solver
    assert fields[1].dPhidx.solver is not fields[2].dPhidx.solver
    # each parameter set keeps its own constants: the two quadratic rho differ
    assert fields[1].dPhidx(0.3, (1.0, 0.0, 0.0, 1.0), 5e-3) != fields[2].dPhidx(0.3, (1.0, 0.0, 0.0, 1.0), 5e-3)


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


def _poly_product(*factors):
    """The product of polynomials with descending coefficients, exact for Fractions."""
    out = [1]
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def test_fixed_rho_W_is_exact():
    # F_x(x, z) = x (x + 1 + z/16) (x + 2) (x - 1) R4(x) exactly, with R4 = 1/rho: its z-free part is
    # x (x + 1) (x + 2) (x - 1) R4 and its z part x (x + 2) (x - 1) R4 / 16, so rho F_x(., 0) is a quartic
    c_desc = [k * family._C[k] for k in range(9, 0, -1)]  # descending x^8..x^0
    d_desc = [k * family._D[k] for k in range(9, 0, -1)]
    r4 = family._RHO_DEN_EXACT
    assert c_desc == _poly_product([1, 0], [1, 1], [1, 2], [1, -1], r4)
    assert d_desc == [0] + [c / 16 for c in _poly_product([1, 0], [1, 2], [1, -1], r4)]
    assert np.polyder(q_polynomial(RhoSpec("fixed_rational"))).tolist() == [1.0, 2.0, -1.0, -2.0, 0.0]


def test_q_polynomial_always_an_array():
    for rho in RHOS:
        coeffs = q_polynomial(rho)
        assert isinstance(coeffs, tuple) and all(type(c) is float for c in coeffs)


def test_field_built_once_per_params():
    params = CanonicalParams(0.5, 0.3, 2.0, -4.0, RhoSpec("fixed_rational"))
    assert params.field is params.field
    assert CanonicalParams(0.5, 0.3, 2.0, -4.0, RhoSpec("fixed_rational")) == params
