import math
import random
import re

import pytest

from mmopam.errors import DiscontinuityHit, DomainError, NotPeriodic
from mmopam.pam import (
    ORBIT_TOL,
    MuInterval,
    PamCoefficients,
    Signature,
    TransformedPam,
    _detect_tail_period,
    _transient_length,
    atmost_atleast_bounds,
    detect_signature,
    iterate_orbit,
    lao_bounds,
    pam_eval,
    sao_bounds,
    signature_from_signs,
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

    @pytest.mark.parametrize("text, part", [("1^x", "1^x"), ("1", "1"), ("1^2^3", "1^2^3"), ("1^3 ^2", "^2")])
    def test_from_string_names_a_malformed_part(self, text, part):
        with pytest.raises(DomainError, match=f"^malformed signature segment '{re.escape(part)}': expected L"):
            Signature.from_string(text)

    @pytest.mark.parametrize("text", ["", "   "])
    def test_from_string_of_blank_text(self, text):
        with pytest.raises(DomainError, match=r"^signature needs at least one \(L, s\) segment$"):
            Signature.from_string(text)

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
            assert _transient_length(orbit.iterates, p, ORBIT_TOL) == brute_force(orbit.iterates, p, ORBIT_TOL)
        if orbit.converged:
            assert orbit.transient_length == brute_force(orbit.iterates, orbit.period, ORBIT_TOL)
    assert _transient_length([1.0, 2.0, 1.0, 2.0], 2, 1e-10) == 0
    assert _transient_length([0.0, 1.0, 2.0, 1.0, 2.0], 2, 1e-10) == 1
    assert _transient_length([1.0, 2.0, 1.0, 3.0], 2, 1e-10) == 2
    assert _transient_length([1.0, float("nan"), 1.0, 1.0], 1, 1e-10) == 2


def test_detect_tail_period_matches_definition():
    # the smallest p whose trailing 3p + 1 differences |Z_{k+p} - Z_k| are all <= tol, over p <= (n - 1) // 4
    def loop_scan(hist, tol, max_period):
        n = len(hist)
        for p in range(1, min(max_period, (n - 1) // 4) + 1):
            if all(abs(hist[-1 - i] - hist[-1 - p - i]) <= tol for i in range(3 * p + 1)):
                return p
        return None

    def check_prefixes(hist, tol, max_periods=(1, 2, 3, 1000)):
        for m in range(1, len(hist) + 1):
            for max_period in max_periods:
                assert _detect_tail_period(hist[:m], tol, max_period) == loop_scan(hist[:m], tol, max_period)

    rng = random.Random(5)
    for _ in range(40):
        a, b, l = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95), -rng.uniform(0.5, 10.0)
        pam = untransform(TransformedPam(a, b, rng.uniform(0.0, -l), l))  # admissible: 0 < mu < -l
        orbit = iterate_orbit(pam, rng.uniform(-5.0, 5.0), max_iters=400)
        check_prefixes(orbit.iterates, ORBIT_TOL)

    # every difference of the tail is exactly d, so tol = d accepts and the floats either side of d split
    d = 0.5
    for p in (1, 2, 3, 5):
        cycle = [float(c) for c in rng.sample(range(-8, 9, 2), p)]  # distinct by 2 > d: no shorter lag passes
        hist = [100.0, -100.0, 7.0] + [cycle[k % p] + d * (k // p) for k in range(6 * p + 2)]
        assert _detect_tail_period(hist, d, 1000) == p
        assert _detect_tail_period(hist, math.nextafter(d, math.inf), 1000) == p
        assert _detect_tail_period(hist, math.nextafter(d, 0.0), 1000) is None
        for tol in (d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)):
            check_prefixes(hist, tol)

    # non-finite entries: inf - inf and nan differences fail, inf - finite exceeds tol
    for bad in (math.nan, math.inf, -math.inf):
        for p in (1, 2, 4):
            tail = [float(k % p) for k in range(8 * p + 4)]
            for j in (0, len(tail) // 2, len(tail) - 1):
                check_prefixes(tail[:j] + [bad] + tail[j + 1 :], 1e-10)
            check_prefixes([bad] * (6 * p), 1e-10)

    # fewer than 5 points hold no 3p + 1 window for any p
    for hist in ([], [1.0], [1.0, 1.0], [1.0, 1.0, 1.0, 1.0]):
        for max_period in (1, 1000):
            assert _detect_tail_period(hist, 1e-10, max_period) is None
    # a cap below (n - 1) // 4 hides the true period
    alternating = [float(k % 2) for k in range(20)]
    assert _detect_tail_period(alternating, 1e-10, 1) is None
    assert _detect_tail_period(alternating, 1e-10, 2) == 2


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


@pytest.mark.parametrize("kwargs", [{"max_iters": 0}], ids=["max-iters-zero"])
def test_invalid_iteration_settings_rejected(kwargs):
    with pytest.raises(DomainError, match="max_iters must be positive"):
        iterate_orbit(ROW_1_3, -0.5, **kwargs)


def test_unconverged_orbit_raises():
    orbit = iterate_orbit(ROW_1_3, -0.5, max_iters=2)
    assert not orbit.converged
    with pytest.raises(NotPeriodic):
        detect_signature(orbit)


def test_signature_from_signs_grouping():
    assert str(signature_from_signs([True, False, False, True, False])) == "1^1 1^2"
    assert str(signature_from_signs([False, True, True, False])) == "2^2"


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
