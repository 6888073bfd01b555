import math

import numpy as np
import pytest

import mmopam.synthesis
from mmopam.errors import DomainError, SingularSystem
from mmopam.family import CanonicalParams, compute_geometry
from mmopam.pam import PamCoefficients
from mmopam.segments import associated_pam
from mmopam.synthesis import slope_matrix, solve_alpha_beta, solve_kappa_lambda, synthesize


def test_slope_matrix_is_finite_and_nonsingular(fixed_rho, geometry):
    A = slope_matrix(fixed_rho, geometry)
    assert isinstance(A, tuple) and all(isinstance(row, tuple) for row in A)
    assert np.shape(A) == (2, 2)
    assert np.isfinite(A).all()
    assert abs(np.linalg.det(A)) > 1e-6


def test_alpha_beta_reference_values(fixed_rho, geometry):
    # first sweep of the bundled benchmarks: slopes (0.3, 0.9)
    alpha, beta = solve_alpha_beta(0.3, 0.9, fixed_rho, geometry)
    assert math.isclose(alpha, 0.8743, abs_tol=1e-4)
    assert math.isclose(beta, 0.0241, abs_tol=2e-4)
    # second sweep: slopes (0.9, 0.4)
    alpha, beta = solve_alpha_beta(0.9, 0.4, fixed_rho, geometry)
    assert math.isclose(alpha, -0.5065, abs_tol=1e-4)
    assert math.isclose(beta, 1.0238, abs_tol=1e-4)


def test_kappa_lambda_reference_values(fixed_rho, geometry):
    alpha, beta = solve_alpha_beta(0.3, 0.9, fixed_rho, geometry)
    kappa, lam = solve_kappa_lambda(7.0, -2.0, alpha, beta, fixed_rho, geometry)
    assert math.isclose(kappa, 30.1744, abs_tol=1e-3)
    assert math.isclose(lam, -90.4070, abs_tol=1e-3)


def test_nonpositive_slope_rejected(fixed_rho, geometry):
    with pytest.raises(DomainError):
        solve_alpha_beta(-0.1, 0.9, fixed_rho, geometry)
    with pytest.raises(DomainError):
        solve_alpha_beta(0.3, 0.0, fixed_rho, geometry)


@pytest.mark.parametrize("rho_name", ["fixed_rho", "quad_rho"])
def test_roundtrip_random_targets(rho_name, request):
    rho = request.getfixturevalue(rho_name)
    rng = np.random.default_rng(7)
    geom = compute_geometry(CanonicalParams(0.0, 0.0, 0.0, 0.0, rho))
    for _ in range(20):
        target = PamCoefficients(
            a11=rng.uniform(0.1, 0.99),
            a12=rng.uniform(-10.0, 25.0),
            a21=rng.uniform(0.1, 0.99),
            a22=rng.uniform(-10.0, 10.0),
        )
        params = synthesize(target, rho)  # raises if the roundtrip residual is large
        got = associated_pam(params, geom)
        for g, t in zip(got.as_tuple(), target.as_tuple()):
            assert math.isclose(g, t, rel_tol=1e-8, abs_tol=1e-8)


def test_synthesis_is_deterministic(fixed_rho):
    target = PamCoefficients(0.3, 7.0, 0.9, -2.0)
    a = synthesize(target, fixed_rho)
    b = synthesize(target, fixed_rho)
    assert a == b


@pytest.mark.parametrize("rho_name", ["fixed_rho", "quad_rho"])
@pytest.mark.parametrize("slope", [0.9998, 0.9997, 0.9999, 0.99999, 0.999999])
def test_near_unit_slopes_synthesize(rho_name, slope, request):
    # the offset determinant is ~1e-11 in absolute terms but 0.84 of its terms
    rho = request.getfixturevalue(rho_name)
    target = PamCoefficients(slope, 1.0, slope, -2.0)
    params = synthesize(target, rho)
    got = associated_pam(params, compute_geometry(params))
    for g, t in zip(got.as_tuple(), target.as_tuple()):
        assert math.isclose(g, t, rel_tol=1e-8, abs_tol=1e-8)


def test_zero_offset_system_is_singular(fixed_rho, geometry):
    # alpha = beta = 0 makes every segment the identity, so the offset matrix is exactly zero
    with pytest.raises(SingularSystem):
        solve_kappa_lambda(1.0, -2.0, 0.0, 0.0, fixed_rho, geometry)


def test_synthesize_calls_associated_pam_once(fixed_rho, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return associated_pam(*args, **kwargs)

    monkeypatch.setattr(mmopam.synthesis, "associated_pam", counting)
    synthesize(PamCoefficients(0.3, 7.0, 0.9, -2.0), fixed_rho)
    assert len(calls) == 1  # the roundtrip check
