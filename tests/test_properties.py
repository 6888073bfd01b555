"""Property-based checks over random admissible inputs."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from mmopam.errors import DiscontinuityHit, MmopamError
from mmopam.family import CanonicalParams, RhoSpec, compute_geometry
from mmopam.pam import (
    Signature,
    TransformedPam,
    atmost_atleast_bounds,
    detect_signature,
    iterate_orbit,
    lao_bounds,
    sao_bounds,
    transform,
    untransform,
)
from mmopam.segments import associated_pam, offset_coefficients

slopes = st.floats(min_value=0.05, max_value=0.95)
jumps = st.floats(min_value=-20.0, max_value=-0.5)
unit = st.floats(min_value=1e-3, max_value=1.0 - 1e-3)


def admissible(a, b, l, frac):
    """mu strictly inside (0, -l) at relative position frac."""
    return TransformedPam(a=a, b=b, mu=-l * frac, l=l)


@given(a=slopes, b=slopes, l=jumps, frac=unit)
@settings(max_examples=200, deadline=None)
def test_no_mixed_long_runs(a, b, l, frac):
    """Periodic patterns never contain both an LAO run >= 2 and an SAO run >= 2."""
    tp = admissible(a, b, l, frac)
    try:
        orbit = iterate_orbit(untransform(tp), -0.5)
        sig = detect_signature(orbit)
    except MmopamError:
        return  # jump hit or no convergence within budget: nothing to check
    has_long_lao = any(L >= 2 for L, _ in sig.segments)
    has_long_sao = any(s >= 2 for _, s in sig.segments)
    assert not (has_long_lao and has_long_sao)


@given(a=slopes, b=slopes, l=jumps, frac=unit)
@settings(max_examples=200, deadline=None)
def test_window_membership_forces_pure_signature(a, b, l, frac):
    """mu inside an L^1 (resp. 1^s) window iff the orbit realizes that signature."""
    tp = admissible(a, b, l, frac)
    try:
        sig = detect_signature(iterate_orbit(untransform(tp), -0.5))
    except MmopamError:
        return
    segs = sig.segments
    if len(segs) != 1:
        return
    L, s = segs[0]
    if s == 0:
        return
    if L == 1:
        mu3, mu4 = sao_bounds(tp, s)
        assert mu3 <= tp.mu < mu4 or math.isclose(tp.mu, mu3, abs_tol=1e-12)
    elif s == 1:
        mu2, mu1 = lao_bounds(tp, L)
        assert mu2 < tp.mu <= mu1


@given(a=slopes, b=slopes, l=jumps, L=st.integers(1, 8), s=st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_bound_orderings(a, b, l, L, s):
    tp = TransformedPam(a=a, b=b, mu=0.1, l=l)
    mu2, mu1 = lao_bounds(tp, L)
    mu3, mu4 = sao_bounds(tp, s)
    # at-most thresholds decrease in L; at-least thresholds increase with s
    mu2_next, mu1_next = lao_bounds(tp, L + 1)
    assert mu2_next < mu2
    assert mu1_next < mu1
    mu3_next, mu4_next = sao_bounds(tp, s + 1)
    assert mu3_next > mu3
    assert mu4_next > mu4
    # every window sits inside the admissible range (0, -l)
    for v in (mu1, mu2, mu4):
        assert 0.0 < v < -l + 1e-12
    assert mu3 < -l + 1e-12


@given(a=slopes, b=slopes, l=jumps, L=st.integers(1, 6), s=st.integers(2, 6))
@settings(max_examples=200, deadline=None)
def test_windows_disjoint(a, b, l, L, s):
    """The L^1 and 1^s windows of the same map never overlap for L, s >= 2."""
    if L < 2:
        return
    tp = TransformedPam(a=a, b=b, mu=0.1, l=l)
    lao_win, sao_win = atmost_atleast_bounds(tp, L, s)
    if lao_win.is_empty or sao_win.is_empty:
        return
    assert lao_win.upper <= sao_win.lower or sao_win.upper <= lao_win.lower


@given(a=slopes, mu=st.floats(-10, 10), b=slopes, l=st.floats(-10, 10))
@settings(max_examples=100, deadline=None)
def test_transform_roundtrip(a, mu, b, l):
    tp = TransformedPam(a=a, b=b, mu=mu, l=l)
    back = transform(untransform(tp))
    assert (back.a, back.b, back.mu) == (tp.a, tp.b, tp.mu)
    assert math.isclose(back.l, tp.l, rel_tol=0, abs_tol=1e-12)  # (mu + l) - mu rounding


@given(
    rho=st.sampled_from([RhoSpec("fixed_rational"), RhoSpec("quadratic", p=1.0, q=1.0)]),
    alpha=st.floats(-2, 2),
    beta=st.floats(-2, 2),
    kappa=st.floats(-100, 100),
    lam=st.floats(-100, 100),
)
@settings(max_examples=300, deadline=None)
def test_offsets_are_linear_in_kappa_lambda(rho, alpha, beta, kappa, lam):
    """a12 and a22 are kappa c_kappa + lambda c_lambda, with the coefficients that synthesis solves with."""
    params = CanonicalParams(alpha, beta, kappa, lam, rho)
    geom = compute_geometry(params)
    pam = associated_pam(params, geom)
    for got, (c_kappa, c_lambda) in zip((pam.a12, pam.a22), offset_coefficients(params, geom)):
        # relative to the terms, not to their sum, which can cancel; c_lambda itself cancels
        # from terms of the size of c_kappa, (P(x_start) + 1) expm1(d) - d with expm1(d) ~ d.
        # The 1e-300 floor covers results that underflow into the subnormal range.
        scale = abs(kappa * c_kappa) + abs(lam) * (abs(c_kappa) + abs(c_lambda))
        assert abs(got - (kappa * c_kappa + lam * c_lambda)) <= 1e-12 * scale + 1e-300


@given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_signature_rotation_invariance(segs):
    sig = Signature(tuple(segs))
    for k in range(len(segs)):
        rotated = Signature(tuple(segs[k:] + segs[:k]))
        assert rotated == sig
    assert Signature.from_string(str(sig)) == sig
