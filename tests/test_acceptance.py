"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (bypassing capture) so the whole scorecard is
visible in any pytest run. Failures are real: criteria that the bundled
reference data cannot meet (documented typos in two printed kappa values and
one window endpoint; one canard-afflicted simulation row) fail here rather
than being silently relaxed.
"""

import math
import time

import numpy as np
import pytest

from mmopam.family import CanonicalParams, RhoSpec, compute_geometry, eval_F, eval_Fx
from mmopam.pam import (
    PamCoefficients,
    Signature,
    TransformedPam,
    detect_signature,
    iterate_orbit,
    lao_bounds,
    sao_bounds,
    untransform,
)
from mmopam.segments import SegmentSpec, associated_pam, segment_affine
from mmopam.simulate import SimConfig, classify_series, hybrid_simulate, integrate_full
from mmopam.synthesis import synthesize
from mmopam.tables import (
    MU_WINDOW_BENCHMARKS,
    SYNTHESIS_BENCHMARKS,
    verify_mu_window_benchmarks,
    verify_signature_benchmarks,
    verify_synthesis_benchmarks,
)

from oracles import eval_Fxx, segment_quadrature

FIXED = RhoSpec("fixed_rational")
QUAD = RhoSpec("quadratic", p=1.0, q=1.0)


def _report(capsys, num: int, ok: bool, detail: str, elapsed: float) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail} ({elapsed:.1f}s)"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_synthesis_reproduction(capsys):
    """All 16 benchmark rows: synthesized (alpha, beta, kappa, lambda) match print to 1e-3."""
    t0 = time.time()
    rep = verify_synthesis_benchmarks()
    elapsed = time.time() - t0
    bad = [r.label for r in rep.rows if not r.passed]
    detail = f"synthesis parameter match {rep.n_passed}/16"
    if bad:
        detail += f"; failing rows {bad} (printed kappa values inconsistent with their own rows)"
    ok = rep.all_passed and elapsed < 10.0
    _report(capsys, 1, ok, detail, elapsed)


def test_criterion_2_signature_reproduction(capsys):
    """All 16 rows iterate to the printed signature from Z0 = -0.5 and +0.5."""
    t0 = time.time()
    rep = verify_signature_benchmarks()
    elapsed = time.time() - t0
    ok = rep.all_passed and elapsed < 1.0
    _report(capsys, 2, ok, f"signature match {rep.n_passed}/16", elapsed)


def test_criterion_3_mu_window_reproduction(capsys):
    """All 11 window rows: endpoints match print to 1e-4 and the actual mu is inside."""
    t0 = time.time()
    rep = verify_mu_window_benchmarks()
    elapsed = time.time() - t0
    bad = [r.label for r in rep.rows if not r.passed]
    detail = f"mu-window match {rep.n_passed}/11"
    if bad:
        detail += f"; failing rows {bad} (printed lower endpoint disagrees with the bound formula)"
    ok = rep.all_passed and elapsed < 1.0
    _report(capsys, 3, ok, detail, elapsed)


def test_criterion_4_forward_inverse_roundtrip(capsys):
    """100 random targets: associated_pam(synthesize(M)) == M to 1e-8 relative, both rho families."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    geoms = {rho: compute_geometry(CanonicalParams(0.0, 0.0, 0.0, 0.0, rho)) for rho in (FIXED, QUAD)}
    worst = 0.0
    n_ok = 0
    for _ in range(100):
        target = PamCoefficients(
            a11=rng.uniform(0.1, 0.99),
            a12=rng.uniform(-10.0, 25.0),
            a21=rng.uniform(0.1, 0.99),
            a22=rng.uniform(-10.0, 10.0),
        )
        row_ok = True
        for rho in (FIXED, QUAD):
            params = synthesize(target, rho)
            got = associated_pam(params, geoms[rho])
            dev = max(
                abs(g - t) / max(1.0, abs(t)) for g, t in zip(got.as_tuple(), target.as_tuple())
            )
            worst = max(worst, dev)
            row_ok = row_ok and dev <= 1e-8
        n_ok += row_ok
    elapsed = time.time() - t0
    ok = n_ok == 100 and elapsed < 30.0
    _report(capsys, 4, ok, f"roundtrip {n_ok}/100 targets, worst residual {worst:.1e}", elapsed)


def test_criterion_5_closed_form_vs_quadrature(capsys):
    """Both segment-map evaluations agree to 1e-8 relative on all branch segments."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    n_ok = 0
    for i in range(100):
        rho = FIXED if i % 2 == 0 else QUAD
        geom = compute_geometry(CanonicalParams(0.0, 0.0, 0.0, 0.0, rho))
        params = CanonicalParams(
            alpha=rng.uniform(-1.0, 1.0),
            beta=rng.uniform(-1.0, 1.5),
            kappa=rng.uniform(-20.0, 40.0),
            lam=rng.uniform(-100.0, 20.0),
            rho=rho,
        )
        segs = [
            SegmentSpec(geom.xhat4, geom.x1),  # S_a1
            SegmentSpec(geom.x2, geom.x3),  # S_a2
            SegmentSpec(geom.xhat1, geom.x4),  # S_a3
            SegmentSpec(geom.xhat3, geom.x4),  # S_a3
        ]
        dev = 0.0
        for seg in segs:
            cf = segment_affine(params, seg)
            qd = segment_quadrature(params, seg)
            dev = max(
                dev,
                abs(cf.slope - qd.slope) / max(1.0, abs(qd.slope)),
                abs(cf.offset - qd.offset) / max(1.0, abs(qd.offset)),
            )
        worst = max(worst, dev)
        n_ok += dev <= 1e-8
    elapsed = time.time() - t0
    ok = n_ok == 100 and elapsed < 30.0
    _report(capsys, 5, ok, f"oracle agreement {n_ok}/100 draws, worst deviation {worst:.1e}", elapsed)


def test_criterion_6_hybrid_delta_convergence(capsys):
    """Hybrid returns converge to map iterates with empirical order >= 0.9 in delta."""
    t0 = time.time()
    deltas = (1e-2, 5e-3, 1e-3)
    orders = {}
    for label in ("1^1", "1^3", "3^1"):
        row = next(r for r in SYNTHESIS_BENCHMARKS if r.signature == label)
        params = synthesize(row.pam, FIXED)
        orbit = iterate_orbit(row.pam, -0.5)
        reference = orbit.iterates[1:21]
        devs = []
        for d in deltas:
            res = hybrid_simulate(params, d, -0.5, 20)
            devs.append(max(abs(a - b) for a, b in zip(res.returns, reference)))
        slope = np.polyfit(np.log(deltas), np.log(devs), 1)[0]
        orders[label] = slope
    elapsed = time.time() - t0
    ok = all(v >= 0.9 for v in orders.values()) and elapsed < 60.0
    detail = "empirical orders " + ", ".join(f"{k}: {v:.2f}" for k, v in orders.items())
    _report(capsys, 6, ok, detail, elapsed)


def test_criterion_7_full_ode_signature_match(capsys):
    """Full stiff integration at (eps, delta) = (1e-7, 5e-3) classifies to the map signature."""
    t0 = time.time()
    results = {}
    for label in ("1^1", "1^3", "3^1"):
        row = next(r for r in SYNTHESIS_BENCHMARKS if r.signature == label)
        params = synthesize(row.pam, FIXED)
        geom = compute_geometry(params)
        period = Signature.from_string(label).period
        # transient + >= 3 classified periods; retry longer if the attractor
        # turns out to have a longer period than the target pattern
        for n_crossings in (5 + 4 * period + 2, 5 + 12 * period + 2):
            try:
                series = integrate_full(
                    params,
                    SimConfig(eps=1e-7, delta=5e-3, max_slow_time=400.0),
                    n_crossings=n_crossings,
                )
                results[label] = str(classify_series(series, geom))
                break
            except Exception as exc:  # noqa: BLE001 - report, don't mask
                results[label] = f"error: {type(exc).__name__}"
    elapsed = time.time() - t0
    ok = all(got == want for want, got in results.items())
    detail = ", ".join(
        f"{want}: got {got}" + ("" if got == want else " (canard-afflicted attractor)")
        for want, got in results.items()
    )
    _report(capsys, 7, ok, detail, elapsed)


def test_criterion_8_crossover_reproduction(capsys):
    """Composite signatures detected on the (kappa, lambda) segments and at the printed points."""
    t0 = time.time()
    geom = compute_geometry(CanonicalParams(0.0, 0.0, 0.0, 0.0, FIXED))

    def signature_at(alpha, beta, kappa, lam):
        pam = associated_pam(CanonicalParams(alpha, beta, kappa, lam, FIXED), geom)
        return str(detect_signature(iterate_orbit(pam, -0.5))), pam.a12

    checks = []
    # printed crossover points
    sig, mu = signature_at(-0.0220, 0.1747, 7.8120, -250.8049)
    checks.append(("1^4 1^5 at printed point", sig == "1^4 1^5" and abs(mu - 6.5) < 0.05))
    sig, mu = signature_at(-0.0610, 0.2430, 24.5348, -87.9962)
    checks.append(("2^1 3^1 at printed point", sig == "2^1 3^1" and abs(mu - 1.8) < 0.05))
    # the composite appears inside the scanned segment between the endpoints
    found = False
    for t in np.linspace(0.0, 1.0, 41):
        k = 7.7321 + t * (7.9239 - 7.7321)
        l = -233.3068 + t * (-275.3021 + 233.3068)
        try:
            sig, _ = signature_at(-0.0220, 0.1747, k, l)
        except Exception:  # noqa: BLE001
            continue
        found = found or sig == "1^4 1^5"
    checks.append(("1^4 1^5 inside scan segment", found))
    elapsed = time.time() - t0
    ok = all(flag for _, flag in checks) and elapsed < 60.0
    detail = "; ".join(f"{name}: {'yes' if flag else 'NO'}" for name, flag in checks)
    _report(capsys, 8, ok, detail, elapsed)


def test_criterion_9_property_suites(capsys):
    """Run-length bounds on 1000 admissible draws; no mixed patterns; geometry invariants."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    n_checked = 0
    violations = []
    mixed = 0
    for _ in range(1000):
        a = rng.uniform(0.05, 0.95)
        b = rng.uniform(0.05, 0.95)
        l = rng.uniform(-20.0, -0.5)
        mu = -l * rng.uniform(1e-3, 1.0 - 1e-3)
        tp = TransformedPam(a=a, b=b, mu=mu, l=l)
        try:
            sig = detect_signature(iterate_orbit(untransform(tp), -0.5, max_iters=50_000))
        except Exception:  # noqa: BLE001 - jump hits / non-convergence are not draws
            continue
        n_checked += 1
        lmax = max(L for L, _ in sig.segments)
        smax = max(s for _, s in sig.segments)
        if lmax >= 2 and smax >= 2:
            mixed += 1
        eps = 1e-9
        # an LAO run of length lmax appeared, so "at most lmax - 1" cannot hold
        if lmax >= 2 and not mu <= lao_bounds(tp, lmax - 1)[0] + eps:
            violations.append((tp, sig, "lao at-most"))
        # no run of lmax + 1 appeared, so "at least lmax + 1" cannot hold
        if not mu > lao_bounds(tp, lmax + 1)[1] - eps:
            violations.append((tp, sig, "lao at-least"))
        if smax >= 2 and not mu >= sao_bounds(tp, smax - 1)[1] - eps:
            violations.append((tp, sig, "sao at-most"))
        if smax >= 1 and not mu < sao_bounds(tp, smax + 1)[0] + eps:
            violations.append((tp, sig, "sao at-least"))

    geom = compute_geometry(CanonicalParams(0.0, 0.0, 0.0, 0.0, FIXED))
    geo_ok = all(abs(eval_Fx(x, 0.0)) < 1e-8 for x in geom.folds)
    geo_ok = geo_ok and all(abs(eval_Fxx(x, 0.0)) > 1e-8 for x in geom.folds)
    geo_ok = geo_ok and abs(eval_F(geom.xhat4, 0.0) - geom.y4) < 1e-8
    geo_ok = geo_ok and abs(eval_F(geom.xhat3, 0.0) - geom.y3) < 1e-8
    geo_ok = geo_ok and abs(eval_F(geom.xhat1, 0.0) - geom.y1) < 1e-8

    elapsed = time.time() - t0
    ok = (
        not violations
        and mixed == 0
        and geo_ok
        and n_checked >= 900
        and elapsed < 60.0
    )
    detail = (
        f"bounds hold on {n_checked - len(violations)}/{n_checked} converged draws, "
        f"mixed patterns: {mixed}, geometry invariants: {'ok' if geo_ok else 'VIOLATED'}"
    )
    _report(capsys, 9, ok, detail, elapsed)
