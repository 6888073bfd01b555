import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mmopam.errors import DomainError
from mmopam.family import (
    _C,
    CanonicalParams,
    RhoSpec,
    compute_geometry,
    eval_F,
    eval_Fx,
    eval_P,
    eval_Q,
    q_polynomial,
)

from oracles import Q_quadrature, drho, eval_Fxx, eval_Fxz, eval_Fz, eval_G, eval_H, eval_J, eval_vector_field


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_F_linear_in_z():
    # F(x, z) has coefficients affine in z, so second z-differences vanish
    for x in (-2.7, -1.3, 0.4, 1.9):
        vals = [eval_F(x, z) for z in (-1.0, 0.0, 1.0)]
        assert abs(vals[0] - 2 * vals[1] + vals[2]) < 1e-12


def test_Fx_matches_finite_difference():
    for x in (-2.9, -1.7, 0.3, 1.6):
        for z in (-0.5, 0.0, 0.7):
            fd = central_diff(lambda u: eval_F(u, z), x)
            assert math.isclose(eval_Fx(x, z), fd, rel_tol=1e-7, abs_tol=1e-7)


def test_Fxx_Fz_Fxz_match_finite_difference():
    for x in (-2.2, 0.8, 1.4):
        z = 0.3
        assert math.isclose(
            eval_Fxx(x, z), central_diff(lambda u: eval_Fx(u, z), x), rel_tol=1e-6, abs_tol=1e-6
        )
        assert math.isclose(
            eval_Fz(x, z), central_diff(lambda w: eval_F(x, w), z), rel_tol=1e-6, abs_tol=1e-9
        )
        assert math.isclose(
            eval_Fxz(x, z), central_diff(lambda w: eval_Fx(x, w), z), rel_tol=1e-6, abs_tol=1e-9
        )


def test_J():
    assert eval_J(0.5) == 0.0
    assert eval_J(0.0) == 0.5


def test_array_evaluation():
    xs = np.linspace(-3, 2, 11)
    assert np.allclose(eval_F(xs, 0.2), [eval_F(float(x), 0.2) for x in xs])
    assert np.allclose(eval_Fx(xs, -0.1), [eval_Fx(float(x), -0.1) for x in xs])


class TestRhoSpec:
    def test_quadratic_requires_pq(self):
        with pytest.raises(DomainError):
            RhoSpec("quadratic")

    def test_fixed_rational_takes_no_pq(self):
        with pytest.raises(DomainError):
            RhoSpec("fixed_rational", p=1.0)

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            RhoSpec("cubic")

    def test_quadratic_with_root_on_interval_rejected(self):
        # p + x + q x^2 with p=0, q=0 vanishes at x=0
        with pytest.raises(DomainError):
            RhoSpec("quadratic", p=0.0, q=0.0)

    @staticmethod
    def _numpy_check_passes(p, q):
        # the check the closed form replaced: dense sampling plus numpy.roots, with its margins
        poly = np.array([q, 1.0, p])
        vals = np.polyval(poly, np.linspace(-3.0, 2.0, 2001))
        roots = np.roots(poly)
        real = roots[np.abs(roots.imag) < 1e-10].real
        return not (np.any(vals == 0.0) or np.any((real >= -3.0 - 1e-9) & (real <= 2.0 + 1e-9)))

    def test_root_check_matches_numpy_oracle(self):
        rng = random.Random(9)
        cases = []
        for _ in range(5000):
            q = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-12, 3)
            kind = rng.randrange(4)
            if kind == 0:
                p, q = rng.uniform(-5.0, 5.0), rng.uniform(-2.0, 2.0)
            elif kind == 1:
                p = rng.uniform(-5.0, 5.0)
            elif kind == 2:  # a root at r
                r = rng.uniform(-4.0, 3.0)
                p = -r - q * r * r
            else:  # a double root, or a complex pair close to one
                q = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3, 1)
                p = (1.0 + rng.uniform(-1e-6, 1e-6)) / (4.0 * q)
            cases.append((p, q))
        for _ in range(1000):  # complex pairs near 0 whose imaginary part is f * 1e-10, either side of the rule
            q = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(4, 7)
            f = rng.choice([rng.uniform(0.05, 0.5), rng.uniform(2.0, 20.0)])
            cases.append(((1.0 + (2.0 * q * f * 1e-10) ** 2) / (4.0 * q), q))
        # roots at the interval ends and just inside and outside the 1e-9 margin
        for r in (-3.0, 2.0, 0.0, -3.0 - 9e-10, 2.0 + 9e-10, -3.0 - 1.1e-9, 2.0 + 1.1e-9):
            cases += [(-r - q * r * r, q) for q in (0.0, 0.1, -0.1, 1e-6, 2.0)]
        cases += [(1.0, 0.25), (-1.0, -0.25), (3.0, 1.0 / 12.0), (0.0, 0.0), (1.0, 1.0)]
        for p, q in cases:
            try:
                RhoSpec("quadratic", p=p, q=q)
                accepted = True
            except DomainError:
                accepted = False
            assert accepted == self._numpy_check_passes(p, q), (p, q)
        assert 0 < sum(self._numpy_check_passes(p, q) for p, q in cases) < len(cases)

    @pytest.mark.parametrize("p, q", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0), (1.0, -math.inf)])
    def test_quadratic_needs_finite_coefficients(self, p, q):
        with pytest.raises(DomainError):
            RhoSpec("quadratic", p=p, q=q)

    def test_drho_matches_finite_difference(self):
        for rho in (RhoSpec("fixed_rational"), RhoSpec("quadratic", p=1.0, q=1.0)):
            for x in (-2.4, 0.1, 1.7):
                fd = central_diff(rho.rho, x)
                assert math.isclose(drho(rho, x), fd, rel_tol=1e-6, abs_tol=1e-9)

    def test_json_roundtrip(self):
        for rho in (RhoSpec("fixed_rational"), RhoSpec("quadratic", p=1.0, q=2.0)):
            assert RhoSpec.from_json_obj(rho.to_json_obj()) == rho

    @pytest.mark.parametrize(
        "obj, unknown",
        [
            ({"quadratic": {"p": 5, "q": 0, "r": 9}}, "quadratic.r"),
            ({"quadratic": {"p": 5, "q": 0}, "fixed_rational": 1}, "fixed_rational"),
            ({"quadratic": {"p": 5, "q": 0, "r": 9, "s": 1}, "cubic": {}}, "cubic, quadratic.r, quadratic.s"),
        ],
    )
    def test_json_rejects_unknown_keys(self, obj, unknown):
        with pytest.raises(DomainError, match=f"^unknown rho keys: {unknown}$"):
            RhoSpec.from_json_obj(obj)


def test_rho_fx_product_is_polynomial(fixed_rho):
    # the reciprocal quartic divides F_x(., 0) exactly
    qp = q_polynomial(fixed_rho)
    assert qp is not None
    # Q'(x) must equal rho(x) * F_x(x, 0) wherever rho is finite
    w = np.polyder(qp)
    for x in (-2.4, -1.5, 0.7, 1.9):
        assert math.isclose(
            float(np.polyval(w, x)), fixed_rho.rho(x) * eval_Fx(x, 0.0), rel_tol=1e-10, abs_tol=1e-12
        )


def test_Q_closed_form_vs_quadrature(fixed_rho, quad_rho):
    for rho in (fixed_rho, quad_rho):
        params = CanonicalParams(0.2, -0.3, 1.0, -2.0, rho)
        for x in (-2.5, -1.0, 0.5, 1.6):
            closed = eval_Q(params, x)
            quad = Q_quadrature(params, x)
            assert math.isclose(closed, quad, rel_tol=1e-9, abs_tol=1e-10)


def test_Q_zero_at_origin(fixed_rho):
    params = CanonicalParams(1.0, 1.0, 0.0, 0.0, fixed_rho)
    assert eval_Q(params, 0.0) == 0.0


def test_P_definition(fixed_rho):
    params = CanonicalParams(0.7, -0.2, 0.0, 0.0, fixed_rho)
    x = 1.2
    Qx = eval_Q(params, x)
    assert math.isclose(eval_P(params, x), 0.7 * Qx**2 / 2 - 0.2 * Qx, rel_tol=1e-12)


def test_G_H_relationship(fixed_rho):
    # G = (kappa + lambda*P) * H
    params = CanonicalParams(0.5, 0.3, 2.0, -4.0, fixed_rho)
    for x in (-2.2, 0.4, 1.5):
        P = eval_P(params, x)
        assert math.isclose(
            eval_G(params, x), (2.0 - 4.0 * P) * eval_H(params, x), rel_tol=1e-12, abs_tol=1e-12
        )


def test_vector_field_z_frozen_without_drift(fixed_rho):
    # alpha = beta = 0 makes G and H vanish identically
    params = CanonicalParams(0.0, 0.0, 3.0, -5.0, fixed_rho)
    _, _, dz = eval_vector_field(params, 0.7, 0.1, 0.2, eps=1e-4, delta=1e-2)
    assert dz == 0.0


@pytest.mark.parametrize("index", range(4), ids=["alpha", "beta", "kappa", "lambda"])
def test_params_must_be_finite(fixed_rho, index):
    for bad in (math.nan, math.inf, -math.inf):
        values = [0.2, -0.3, 1.0, -2.0]
        values[index] = bad
        with pytest.raises(DomainError, match="vector-field parameters must be finite"):
            CanonicalParams(*values, fixed_rho)


def test_params_json_roundtrip(quad_rho):
    params = CanonicalParams(0.1, -0.2, 3.0, -4.0, quad_rho)
    back = CanonicalParams.from_json(params.to_json())
    assert back == params
    obj = json.loads(params.to_json())
    assert "lambda" in obj  # external JSON key spelling


def test_params_json_rejects_unknown_keys(quad_rho):
    obj = {**json.loads(CanonicalParams(0.1, -0.2, 3.0, -4.0, quad_rho).to_json()), "mu": 5, "lam": 1.0}
    with pytest.raises(DomainError, match="^unknown canonical parameter keys: mu, lam$"):
        CanonicalParams.from_json(json.dumps(obj))
    for text in ("[1]", "5", '["alpha"]'):
        with pytest.raises(DomainError, match="must be a JSON object"):
            CanonicalParams.from_json(text)


def test_params_json_z0_is_fixed_at_zero(quad_rho):
    obj = json.loads(CanonicalParams(0.1, -0.2, 3.0, -4.0, quad_rho).to_json())
    assert obj["z0"] == 0.0
    want = CanonicalParams.from_json(json.dumps(obj))
    del obj["z0"]
    assert CanonicalParams.from_json(json.dumps(obj)) == want
    for z0 in (0, -0.0):
        assert CanonicalParams.from_json(json.dumps({**obj, "z0": z0})) == want
    for z0 in (0.05, -1e-300, "0", None):
        with pytest.raises(DomainError):
            CanonicalParams.from_json(json.dumps({**obj, "z0": z0}))


# --- geometry ------------------------------------------------------------------


def test_fold_abscissas_are_the_design_values(geometry):
    # the polynomial family is built so the folds sit at -2, -1, 0, 1 and the
    # projections at -5/2, 3/2, 8/5
    assert math.isclose(geometry.x1, -2.0, abs_tol=1e-9)
    assert math.isclose(geometry.x2, -1.0, abs_tol=1e-9)
    assert math.isclose(geometry.x3, 0.0, abs_tol=1e-9)
    assert math.isclose(geometry.x4, 1.0, abs_tol=1e-9)
    assert math.isclose(geometry.xhat4, -2.5, abs_tol=1e-9)
    assert math.isclose(geometry.xhat3, 1.5, abs_tol=1e-9)
    assert math.isclose(geometry.xhat1, 1.6, abs_tol=1e-9)


def test_branches_are_the_design_passages(geometry):
    # Z < 0: S_a1 from xhat4 to x1, then S_a3 from xhat1 to x4; Z > 0: S_a2 from x2 to x3, then S_a3 from xhat3 to x4
    assert geometry.branches == (((-2.5, -2.0), (1.6, 1.0)), ((-1.0, 0.0), (1.5, 1.0)))


def test_folds_are_critical_and_nondegenerate(geometry):
    for x in geometry.folds:
        assert abs(eval_Fx(x, 0.0)) < 1e-10
        assert abs(eval_Fxx(x, 0.0)) > 1e-6


def test_projection_heights_match(geometry):
    assert math.isclose(eval_F(geometry.xhat4, 0.0), geometry.y4, abs_tol=1e-10)
    assert math.isclose(eval_F(geometry.xhat3, 0.0), geometry.y3, abs_tol=1e-10)
    assert math.isclose(eval_F(geometry.xhat1, 0.0), geometry.y1, abs_tol=1e-10)


def test_lao_threshold(geometry):
    assert math.isclose(geometry.lao_threshold, -1.75, abs_tol=1e-9)


def test_geometry_cached(fixed_rho):
    params = CanonicalParams(1.0, 2.0, 3.0, 4.0, fixed_rho)
    assert compute_geometry(params) is compute_geometry(params)


# design values in exact arithmetic: folds x1..x4, then xhat1, xhat3, xhat4
FOLDS = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1))
PROJECTIONS = {"xhat1": Fraction(8, 5), "xhat3": Fraction(3, 2), "xhat4": Fraction(-5, 2)}


def exact_F(x, order=0):
    """d^order/dx^order of F(x, 0), summed over the exact coefficients."""
    total = Fraction(0)
    for k, c in enumerate(_C):
        if k >= order:
            total += c * math.perm(k, order) * x ** (k - order)
    return total


def test_design_geometry_is_exact(fixed_rho, quad_rho):
    # simple folds with alternating curvature: attracting and repelling sheets alternate
    curvature = [exact_F(x, 2) for x in FOLDS]
    assert all(exact_F(x, 1) == 0 for x in FOLDS)
    assert all(c != 0 for c in curvature)
    assert [c > 0 for c in curvature] == [False, True, False, True]
    # each projection returns to the height of its fold
    assert exact_F(Fraction(-2)) == exact_F(PROJECTIONS["xhat1"])
    assert exact_F(Fraction(0)) == exact_F(PROJECTIONS["xhat3"])
    assert exact_F(Fraction(1)) == exact_F(PROJECTIONS["xhat4"])

    geom = compute_geometry(CanonicalParams(0.0, 0.0, 0.0, 0.0, fixed_rho))
    want = {f"x{i + 1}": x for i, x in enumerate(FOLDS)}
    want.update(PROJECTIONS)
    want.update({f"y{i + 1}": exact_F(x) for i, x in enumerate(FOLDS)})
    for name in ("x1", "x2", "x3", "x4", "xhat1", "xhat3", "xhat4", "y1", "y2", "y3", "y4"):
        value = getattr(geom, name)
        # a NumPy scalar field would turn every later Horner pass into NumPy arithmetic
        assert type(value) is float, name
        assert value == float(want[name]), name
    assert compute_geometry(CanonicalParams(0.3, -0.1, 2.0, 5.0, quad_rho)) is geom
