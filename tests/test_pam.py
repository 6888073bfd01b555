import math
import random

import pytest

from mmopam.errors import DiscontinuityHit, DomainError, NotPeriodic
from mmopam.pam import (
    MuInterval,
    PamCoefficients,
    Signature,
    TransformedPam,
    _transient_length,
    atmost_atleast_bounds,
    detect_signature,
    iterate_orbit,
    lao_bounds,
    pam_eval,
    sao_bounds,
    signature_from_signs,
    stability_factor,
    transform,
    untransform,
)

ROW_1_3 = PamCoefficients(0.3, 7.0, 0.9, -2.0)


def test_eval_branches():
    pam = PamCoefficients(0.5, 1.0, 0.25, -2.0)
    assert pam_eval(pam, -2.0) == 0.5 * -2.0 + 1.0
    assert pam_eval(pam, 3.0) == 0.25 * 3.0 - 2.0


def test_eval_undefined_at_jump():
    pam = PamCoefficients(0.5, 1.0, 0.25, -2.0)
    with pytest.raises(DiscontinuityHit):
        pam_eval(pam, 0.0)
    with pytest.raises(DiscontinuityHit):
        pam_eval(pam, 1e-13)


def test_nonpositive_slopes_rejected():
    with pytest.raises(DomainError):
        PamCoefficients(0.0, 1.0, 0.5, -2.0)
    with pytest.raises(DomainError):
        PamCoefficients(0.5, 1.0, -0.3, -2.0)


@pytest.mark.parametrize("field", range(4), ids=["a11", "a12", "a21", "a22"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_rejected(field, bad):
    values = [0.3, 7.0, 0.9, -2.0]
    values[field] = bad
    with pytest.raises(DomainError, match="finite"):
        PamCoefficients(*values)
    values = [0.3, 0.9, 7.0, -9.0]
    values[field] = bad
    with pytest.raises(DomainError, match="finite"):
        TransformedPam(*values)


def test_transform_roundtrip():
    pam = PamCoefficients(0.3, 7.0, 0.9, -2.0)
    tp = transform(pam)
    assert (tp.a, tp.b, tp.mu, tp.l) == (0.3, 0.9, 7.0, -9.0)
    back = untransform(tp)
    assert back == pam


class TestSignature:
    def test_canonical_rotation(self):
        assert Signature(((1, 4), (1, 5))) == Signature(((1, 5), (1, 4)))
        assert str(Signature(((1, 5), (1, 4)))) == "1^4 1^5"

    def test_string_roundtrip(self):
        for text in ("1^3", "3^1", "1^4 1^5", "2^1 3^1"):
            assert str(Signature.from_string(text)) == text

    def test_pure_lao_fixed_point(self):
        sig = Signature(((1, 0),))
        assert sig.period == 1
        assert str(sig) == "1^0"

    def test_invalid_segments(self):
        with pytest.raises(DomainError):
            Signature(())
        with pytest.raises(DomainError):
            Signature(((0, 1),))
        with pytest.raises(DomainError):
            Signature(((2, 0),))

    def test_totals(self):
        sig = Signature.from_string("2^1 3^1")
        assert sig.total_lao == 5
        assert sig.total_sao == 2
        assert sig.period == 7


def test_orbit_detects_known_signature():
    orbit = iterate_orbit(ROW_1_3, -0.5)
    assert orbit.converged
    assert orbit.period == 4
    assert str(detect_signature(orbit)) == "1^3"


def test_orbit_period_values_match_fixed_cycle():
    # direct linear-algebra oracle: the 1^3 cycle closes at
    # Z = (0.729*7 - 2*(1 + 0.9 + 0.81)) / (1 - 0.3*0.9**3)
    z_neg = (0.729 * 7.0 - 2.0 * (1.0 + 0.9 + 0.81)) / (1.0 - 0.3 * 0.9**3)
    orbit = iterate_orbit(ROW_1_3, -0.5)
    cycle = sorted(orbit.iterates[-orbit.period :])
    assert math.isclose(cycle[0], z_neg, abs_tol=1e-8)


def test_transient_length_matches_definition():
    # the transient is the index after the last i with |Z_{i+p} - Z_i| > tol, or 0 if there is none
    def brute_force(hist, p, tol):
        return next(
            (n for n in range(len(hist) - p) if all(abs(hist[i + p] - hist[i]) <= tol for i in range(n, len(hist) - p))),
            len(hist) - p,
        )

    rng = random.Random(3)
    for _ in range(300):
        a, b, l = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95), -rng.uniform(0.5, 10.0)
        pam = untransform(TransformedPam(a, b, rng.uniform(0.0, -l), l))  # admissible: 0 < mu < -l
        orbit = iterate_orbit(pam, rng.uniform(-5.0, 5.0))
        for p in (1, 2, 3, 5):
            assert _transient_length(orbit.iterates, p, orbit.tol) == brute_force(orbit.iterates, p, orbit.tol)
        if orbit.converged:
            assert orbit.transient_length == brute_force(orbit.iterates, orbit.period, orbit.tol)
    assert _transient_length([1.0, 2.0, 1.0, 2.0], 2, 1e-10) == 0
    assert _transient_length([0.0, 1.0, 2.0, 1.0, 2.0], 2, 1e-10) == 1
    assert _transient_length([1.0, 2.0, 1.0, 3.0], 2, 1e-10) == 2
    assert _transient_length([1.0, float("nan"), 1.0, 1.0], 1, 1e-10) == 2


def test_orbit_from_positive_start_same_signature():
    assert str(detect_signature(iterate_orbit(ROW_1_3, 0.5))) == "1^3"


def test_pure_lao_orbit():
    # both branches map into Z < 0; the left branch has a fixed point
    pam = PamCoefficients(0.5, -1.0, 0.5, -3.0)
    orbit = iterate_orbit(pam, -0.5)
    assert orbit.period == 1
    assert str(detect_signature(orbit)) == "1^0"


def test_all_positive_orbit_rejected():
    # both branches keep Z > 0 forever: no LAO, signature undefined
    pam = PamCoefficients(0.5, 5.0, 0.5, 2.0)
    orbit = iterate_orbit(pam, 1.0)
    with pytest.raises(DomainError):
        detect_signature(orbit)


@pytest.mark.parametrize("Z0", [math.nan, math.inf, -math.inf])
def test_non_finite_start_rejected(Z0):
    # a nan orbit never recurs, so iterating it could only run out of iterations
    with pytest.raises(DomainError, match="Z0 must be finite"):
        iterate_orbit(ROW_1_3, Z0)


def test_unconverged_orbit_raises():
    orbit = iterate_orbit(ROW_1_3, -0.5, max_iters=2)
    assert not orbit.converged
    with pytest.raises(NotPeriodic):
        detect_signature(orbit)


def test_signature_from_signs_grouping():
    assert str(signature_from_signs([True, False, False, True, False])) == "1^1 1^2"
    assert str(signature_from_signs([False, True, True, False])) == "2^2"


def test_stability_factor():
    sig = Signature.from_string("1^3")
    assert math.isclose(stability_factor(ROW_1_3, sig), 0.3 * 0.9**3)


# --- mu-window bounds ---------------------------------------------------------


def test_lao_bounds_reference_values():
    # 2^1 benchmark row: a=0.9, b=0.8, l=-7.2
    tp = TransformedPam(0.9, 0.8, 2.2, -7.2)
    mu2, mu1 = lao_bounds(tp, 2)
    assert math.isclose(mu2, 7.2 * 0.81 / (1 + 0.9 + 0.81), rel_tol=1e-12)
    assert math.isclose(mu1, 7.2 * 0.9 / (0.9 * 0.8 + 1.9), rel_tol=1e-12)
    assert round(mu2, 4) == 2.1520
    assert round(mu1, 4) == 2.4733


def test_sao_bounds_reference_values():
    # 1^2 benchmark row: a=0.3, b=0.9, l=-5
    tp = TransformedPam(0.3, 0.9, 3.0, -5.0)
    mu3, mu4 = sao_bounds(tp, 2)
    assert round(mu3, 4) == 2.9263
    assert round(mu4, 4) == 3.5055


def test_bounds_need_admissible_domain():
    with pytest.raises(DomainError):
        lao_bounds(TransformedPam(1.5, 0.8, 1.0, -2.0), 2)
    with pytest.raises(DomainError):
        sao_bounds(TransformedPam(0.5, 0.8, 1.0, 2.0), 2)
    with pytest.raises(DomainError):
        lao_bounds(TransformedPam(0.5, 0.8, 1.0, -2.0), 0)


def test_window_closures():
    tp = TransformedPam(0.9, 0.8, 2.2, -7.2)
    lao_win, sao_win = atmost_atleast_bounds(tp, 2, 1)
    assert not lao_win.lower_closed and lao_win.upper_closed
    assert sao_win.lower_closed and not sao_win.upper_closed
    assert lao_win.contains(2.2)
    assert not lao_win.contains(lao_win.lower)
    assert lao_win.contains(lao_win.upper)


def test_window_membership_consistent_with_iteration():
    # a mu inside the 2^1 window iterates to signature 2^1
    tp = TransformedPam(0.9, 0.8, 2.2, -7.2)
    pam = untransform(tp)
    assert str(detect_signature(iterate_orbit(pam, -0.5))) == "2^1"


def test_mu_interval_emptiness():
    assert MuInterval(2.0, 1.0, True, True).is_empty
    assert not MuInterval(1.0, 2.0, False, False).is_empty
    assert MuInterval(1.0, 1.0, True, False).is_empty
    assert not MuInterval(1.0, 1.0, True, True).is_empty
    assert str(MuInterval(1.0, 2.0, False, True)) == "(1, 2]"
