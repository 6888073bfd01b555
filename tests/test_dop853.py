"""The DOP853 solver and the hybrid simulator against scipy, their oracle.

``mmopam.dop853`` ports scipy's ``RungeKutta._step_impl`` and
``DOP853._estimate_error_norm`` step for step for n equations, so on the
same system ``solve_ivp(method="DOP853")`` accepts and rejects the same
steps. The two are not bit-identical: numpy's dot products and norms may
round their sums differently from the plain sums here, so end states agree
to about 1e-12 relative, not to the last bit.

The hybrid's legs are the fundamental matrix Phi = (A, B, C, D) of the
linearised reduced flow over four spans, solved once per call; a return
applies the Moebius maps Z -> (A Z + B) / (C Z + D). ``oracles.hybrid_reference``
solves every leg of every return as a scalar dZ/dx at rtol 1e-13 instead.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from oracles import hybrid_reference

import mmopam
from mmopam import dop853, family, radau
from mmopam.errors import DomainError, NonFiniteState, StepSizeUnderflow
from mmopam.family import RhoSpec
from mmopam.pam import DISCONTINUITY_GUARD
from mmopam.radau import _initial_step

HYBRID_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "fingerprints" / "hybrid.json"
ROWS = {"1^1": (0.3, 1.0, 0.9, -2.0), "1^3": (0.3, 7.0, 0.9, -2.0), "3^1": (0.9, 1.0, 0.4, -3.0)}
RTOL, ATOL = 1e-11, 1e-13  # hybrid_simulate's defaults
IDENTITY = (1.0, 0.0, 0.0, 1.0)
# The largest relative error of the scalar DOP853 legs that the Moebius legs replaced (rtol 1e-10,
# atol 1e-12, one solve per leg per return) against hybrid_reference, over every third pool item: 1.133e-9.
SCALAR_LEGS_WORST_REL_ERR = 1.14e-9

_POOL = json.loads(HYBRID_POOL.read_text())


def _scipy_dop853(fun, t0, y0, t_bound, rtol, atol, args=()):
    from scipy.integrate import solve_ivp

    def vector_fun(t, y, *a):
        return list(fun(float(t), tuple(map(float, y)), *a))

    return solve_ivp(vector_fun, (t0, t_bound), list(y0), method="DOP853", args=args or None, rtol=rtol, atol=atol)


def _row_params(row: str):
    return mmopam.synthesize(mmopam.PamCoefficients(*ROWS[row]), mmopam.RhoSpec("fixed_rational"))


def _spans(geom):
    """The hybrid's four legs as (x_from, x_to): S_a1, S_a2, S_a3 to xhat3, S_a3 from xhat3 to x4."""
    return (geom.xhat4, geom.x1), (geom.x2, geom.x3), (geom.xhat1, geom.xhat3), (geom.xhat3, geom.x4)


def _moebius_returns(ends, Z, n_returns):
    """The hybrid's returns from the four legs' end matrices, applied in the order of one return."""
    sa1, sa2, sa3_head, sa3 = ends

    def carry(phi, Z):
        A, B, C, D = phi
        return (A * Z + B) / (C * Z + D)

    returns = []
    for _ in range(n_returns):
        Z = carry(sa3, carry(sa3_head, carry(sa1, Z)) if Z < 0.0 else carry(sa2, Z))
        returns.append(Z)
    return returns


def _scipy_legs(params, delta):
    """scipy's end matrices of the four legs and their summed nfev."""
    ends, nfev = [], 0
    for x_from, x_to in _spans(mmopam.compute_geometry(params)):
        sol = _scipy_dop853(params.field.dPhidx, x_from, IDENTITY, x_to, RTOL, ATOL, (delta,))
        assert sol.status == 0, sol.message
        ends.append(tuple(sol.y[:, -1]))
        nfev += sol.nfev
    return ends, nfev


def _loop_step(fun, args, t, y, h, f, rtol, atol):
    """One step as loops over the tableau and the components: the reference for the straight-line step."""
    n = len(y)
    K = [f] + [None] * 12
    for s, (c, row) in enumerate(dop853.STAGES, 1):
        ys = []
        for i in range(n):
            dy = 0.0
            for j, a in row:
                dy += K[j][i] * a
            ys.append(y[i] + dy * h)
        K[s] = fun(t + c * h, tuple(ys), *args)
    y_new, r3, r5 = [], [], []
    for i in range(n):
        sb = s3 = s5 = 0.0
        for j, b, e3, e5 in dop853.TAIL:
            k = K[j][i]
            sb += k * b
            s3 += k * e3
            s5 += k * e5
        y_new.append(y[i] + h * sb)
        r3.append(s3)
        r5.append(s5)
    y_new = tuple(y_new)
    K[12] = f_new = fun(t + h, y_new, *args)
    ss3 = ss5 = 0.0
    for i in range(n):
        scale = atol + max(abs(y[i]), abs(y_new[i])) * rtol
        s5 = r5[i]
        for j in (1, 2, 3, 4, 12):
            s5 += 0.0 * K[j][i]
        e3, e5 = r3[i] / scale, s5 / scale
        ss3 += e3 * e3
        ss5 += e5 * e5
    return y_new, f_new, ss3, ss5


def _loop_solve(fun, t0, y0, t_bound, rtol, atol, args=()):
    """scipy's step loop around :func:`_loop_step`: the reference for the generated solver's loop."""
    rtol = max(rtol, 100 * dop853.EPS)
    direction = 1.0 if t_bound > t0 else -1.0
    t, y = float(t0), tuple(map(float, y0))
    f = fun(t, y, *args)
    h_abs = _initial_step(fun, args, t, y, t_bound, f, direction, 7, rtol, atol)
    st = radau.SolverStats(nfev=2)
    ts, ys = [], []
    while True:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise StepSizeUnderflow(
                    f"integrator failed at {t:.6g}: required step size is less than spacing between numbers"
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, ss3, ss5 = _loop_step(fun, args, t, y, h, f, rtol, atol)
            st.nfev += 12
            err5_norm_2 = math.sqrt(ss5) ** 2
            err3_norm_2 = math.sqrt(ss3) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5_norm_2 / math.sqrt((err5_norm_2 + 0.01 * err3_norm_2) * len(y))
            if error_norm < 1:
                factor = dop853.MAX_FACTOR if error_norm == 0 else min(
                    dop853.MAX_FACTOR, dop853.SAFETY * error_norm**dop853.ERROR_EXPONENT
                )
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(dop853.MIN_FACTOR, dop853.SAFETY * error_norm**dop853.ERROR_EXPONENT)
            rejected = True
            st.rejected += 1
        st.steps += 1
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        if direction * (t - t_bound) >= 0:
            return ts, ys, st


def _solve_with_both_steps(fun, t0, y0, t_bound, args=()):
    """``dop853.solve`` through its generic instance (``fun`` wrapped in a plain function) and the loop
    oracle :func:`_loop_solve`. The points where fun is evaluated and the step ends must agree to the bit,
    the counters exactly. Returns the end state."""
    runs = []
    for solve in (dop853.solve, _loop_solve):
        calls = []

        def traced(t, y, *a):
            calls.append((t.hex(), *(v.hex() for v in y)))
            return fun(t, y, *a)

        ts, ys, st = solve(traced, t0, y0, t_bound, RTOL, ATOL, args=args)
        assert ts[-1] == t_bound
        runs.append(([[t.hex(), *(v.hex() for v in y)] for t, y in zip(ts, ys)], st, calls))
    assert runs[0] == runs[1]
    return tuple(float.fromhex(v) for v in runs[0][0][-1][1:])


def _check_hybrid_against_loop_step(item, n_returns):
    """The generic instance against the loop oracle on the four legs at a pool item's row and delta, and
    ``Field.dPhidx.solver`` against it on the item's returns; returns the leg directions."""
    params = _row_params(item["input"]["row"])
    delta, Z = item["input"]["delta"], item["input"]["z0"]
    directions = set()
    for x_from, x_to in _spans(mmopam.compute_geometry(params)):
        _solve_with_both_steps(params.field.dPhidx, x_from, IDENTITY, x_to, (delta,))
        directions.add(x_to > x_from)
    results = []
    for solve in (None, _loop_solve):
        with pytest.MonkeyPatch.context() as mp:
            if solve is not None:
                mp.setattr(dop853, "solve", solve)
            res = mmopam.hybrid_simulate(params, delta, Z, n_returns)
        results.append(([v.hex() for v in res.returns], res.solver_stats))
    assert results[0] == results[1]
    return directions


# --- fast tier ------------------------------------------------------------------------


def test_straight_line_step_matches_loop_step_bitwise():
    directions = set()
    for item in _POOL["pool"][::9]:
        directions |= _check_hybrid_against_loop_step(item, 2)
    assert directions == {True, False}
    # the step is generated per number of equations and of extra arguments
    dPhidx = _row_params("3^1").field.dPhidx
    _solve_with_both_steps(lambda x, phi: dPhidx(x, phi, 5e-3), -2.5, IDENTITY, -2.0)
    _solve_with_both_steps(lambda t, y: (y[1], -y[0]), 0.0, (1.0, 0.0), 3.0)
    # y' = y from -0.0: each sum's leading 0.0 + decides the sign of zero, as in the loops
    assert _solve_with_both_steps(lambda t, y: y, 0.0, (-0.0,), 1.0)[0].hex() == "0x0.0p+0"


@pytest.mark.parametrize("delta", [1e-3, 5e-3, 1e-2])
def test_legs_match_scipy(delta):
    """Forward (S_a1, S_a2) and backward (S_a3) legs of the fundamental matrix: same steps and nfev, same ends."""
    directions = set()
    for row in ROWS:
        params = _row_params(row)
        for x_from, x_to in _spans(mmopam.compute_geometry(params)):
            ref = _scipy_dop853(params.field.dPhidx, x_from, IDENTITY, x_to, RTOL, ATOL, (delta,))
            ts, ys, st = dop853.solve(params.field.dPhidx, x_from, IDENTITY, x_to, RTOL, ATOL, args=(delta,))
            assert all(type(v) is float for v in ys[-1])
            assert st.nfev == ref.nfev
            assert st.steps == len(ts) == len(ys) == len(ref.t) - 1
            assert ts[-1] == x_to
            assert np.allclose(ys[-1], ref.y[:, -1], rtol=1e-10, atol=0.0)
            directions.add(x_to > x_from)
    assert directions == {True, False}


def test_exponential_both_ways():
    def fun(t, y):
        return (-y[0], y[1] + y[0])

    for t_bound in (2.0, -2.0):
        ref = _scipy_dop853(fun, 0.0, (1.0, 0.0), t_bound, 1e-10, 1e-12)
        _, ys, st = dop853.solve(fun, 0.0, (1.0, 0.0), t_bound, 1e-10, 1e-12)
        assert st.nfev == ref.nfev and st.steps == len(ref.t) - 1
        assert np.allclose(ys[-1], ref.y[:, -1], rtol=1e-13, atol=0.0)
        # y1 = sinh(t) solves y1' = y1 + exp(-t) from 0
        assert math.isclose(ys[-1][0], math.exp(-t_bound), rel_tol=1e-9)
        assert math.isclose(ys[-1][1], math.sinh(t_bound), rel_tol=1e-9)


def test_nan_rhs_raises_step_size_underflow():
    def nan_beyond_half(t, y):
        return (y[0], y[1] if t < 0.5 else math.nan)

    # scipy rejects the steps whose stages see nan until the step underflows
    assert _scipy_dop853(nan_beyond_half, 0.0, (1.0, 1.0), 1.0, 1e-10, 1e-12).status == -1
    with pytest.raises(StepSizeUnderflow, match="failed at 0.5:"):
        dop853.solve(nan_beyond_half, 0.0, (1.0, 1.0), 1.0, 1e-10, 1e-12)
    # a nan from the start makes the first step nan, on which scipy's loop never ends
    with pytest.raises(StepSizeUnderflow, match="failed at 0:"):
        dop853.solve(lambda t, y: (math.nan,), 0.0, (1.0,), 1.0, 1e-10, 1e-12)


@pytest.mark.parametrize("bad_call", [1, 2, 3, 4, 12], ids=["k1", "k2", "k3", "k4", "f_new"])
def test_nan_in_a_zero_weight_stage_reaches_the_error_norm(bad_call):
    # scipy's error sums also run over the stages whose weights are 0, so one nan there rejects the step
    def nan_at(call):
        calls = []

        def fun(t, y):
            calls.append(t)
            return (math.nan if len(calls) == call else 1.0, 2.0)

        return fun

    y_new, _, _, ss5 = _loop_step(nan_at(bad_call), (), 0.0, (1.0, 1.0), 0.1, (1.0, 2.0), 1e-10, 1e-12)
    assert all(math.isfinite(v) for v in y_new) and math.isnan(ss5)
    # in a solve the first attempt's stages follow the two evaluations of the start: the nan rejects it
    runs = []
    for solve in (dop853.solve, _loop_solve):
        _, ys, st = solve(nan_at(2 + bad_call), 0.0, (1.0, 1.0), 1.0, 1e-10, 1e-12)
        assert all(math.isfinite(v) for y in ys for v in y) and st.rejected == 1
        runs.append(([[v.hex() for v in y] for y in ys], st))
    assert runs[0] == runs[1]


def test_rtol_floor_matches_scipy():
    def fun(t, y):
        return (math.cos(t) * y[0], -y[0] * y[1])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns that it raised rtol
        ref = _scipy_dop853(fun, 0.0, (1.0, 1.0), 3.0, 1e-18, 1e-20)
    ts, ys, st = dop853.solve(fun, 0.0, (1.0, 1.0), 3.0, 1e-18, 1e-20)
    assert (ts, ys, st) == dop853.solve(fun, 0.0, (1.0, 1.0), 3.0, 100 * dop853.EPS, 1e-20)
    assert (ts, ys, st) == _loop_solve(fun, 0.0, (1.0, 1.0), 3.0, 1e-18, 1e-20)
    assert st.nfev == ref.nfev
    assert np.allclose(ys[-1], ref.y[:, -1], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("rho", [RhoSpec("fixed_rational"), RhoSpec("quadratic", p=1.0, q=1.0)], ids=["fixed", "quad"])
def test_field_dop853_solver_equals_generic(rho):
    """``Field.dPhidx.solver`` (dPhidx's body in the stages, the step end on the last stage's coefficients)
    and the generic instance through a plain lambda: the same step ends to the bit and the same counters."""
    rejected, directions = 0, set()
    for target in ROWS.values():
        params = mmopam.synthesize(mmopam.PamCoefficients(*target), rho)
        dPhidx = params.field.dPhidx
        generic = lambda x, phi, delta: dPhidx(x, phi, delta)  # noqa: E731
        assert callable(dPhidx.solver) and not hasattr(generic, "solver")
        for delta in (0.0, 5e-3, 0.1):
            for x_from, x_to in _spans(mmopam.compute_geometry(params)):
                (ts, ys, st), (ts_generic, ys_generic, st_generic) = (
                    dop853.solve(fun, x_from, IDENTITY, x_to, RTOL, ATOL, args=(delta,)) for fun in (dPhidx, generic)
                )
                assert [[v.hex() for v in y] for y in ys] == [[v.hex() for v in y] for y in ys_generic]
                assert ts == ts_generic
                assert st == st_generic
                assert st.nfev == 2 + 12 * (st.steps + st.rejected)  # scipy's count
                rejected += st.rejected
                directions.add(x_to > x_from)
    assert rejected > 0 and directions == {True, False}


def test_generators_refuse_a_last_stage_off_the_step_end(monkeypatch):
    """The step end reuses the last stage's time, so a tableau whose last c is not 1.0 compiles no solver."""
    c, row = dop853.STAGES[-1]
    assert c == 1.0
    monkeypatch.setattr(dop853, "STAGES", dop853.STAGES[:-1] + ((math.nextafter(1.0, 0.0), row),))
    with pytest.raises(ValueError, match=r"needs c = 1\.0, got 0\.9999999999999999"):
        dop853._generic_solver.__wrapped__(2, 0)
    with pytest.raises(ValueError, match=r"needs c = 1\.0"):
        family._kernel_factory.__wrapped__("dop853", "fixed_rational", 6)


def test_empty_interval_rejected():
    with pytest.raises(DomainError):
        dop853.solve(lambda t, y: y, 1.0, (1.0,), 1.0, 1e-10, 1e-12)


def test_stop_ends_at_the_first_step_end_past_it():
    # the default stop changes no bit; a finite one ends the solve at the first step end whose first derivative
    # component exceeds it in magnitude, with the steps and counters of the plain solve up to there
    def fun(t, y):
        return (-3.0 * y[0] * math.cos(t), y[0])

    plain = dop853.solve(fun, 0.0, (1.0, 0.0), 4.0, 1e-10, 1e-12)
    assert plain == dop853.solve(fun, 0.0, (1.0, 0.0), 4.0, 1e-10, 1e-12, stop=math.inf)
    ts, ys, st = dop853.solve(fun, 0.0, (1.0, 0.0), 4.0, 1e-10, 1e-12, stop=1.5)
    k = len(ts)
    assert ts == plain[0][:k] and ys == plain[1][:k] and k < len(plain[0])
    assert [abs(fun(t, y)[0]) > 1.5 for t, y in zip(ts, ys)] == [False] * (k - 1) + [True]
    assert (st.steps, st.nfev) == (k, 2 + 12 * (k + st.rejected))


def test_hybrid_stats_sum_scipy_legs():
    params = _row_params("1^3")
    res = mmopam.hybrid_simulate(params, 5e-3, -0.5, 3)
    ends, nfev = _scipy_legs(params, 5e-3)
    assert isinstance(res.solver_stats, radau.SolverStats)
    assert res.solver_stats.nfev == nfev
    assert np.allclose(res.returns, _moebius_returns(ends, -0.5, 3), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("delta", [1e-3, 1e-2, 0.5])
@pytest.mark.parametrize("Z0", [2 * DISCONTINUITY_GUARD, -2 * DISCONTINUITY_GUARD, 1e3, -1e3])
def test_hybrid_edges_match_tight_reference(delta, Z0):
    """Starts just outside the jump guard and far out on both sides, up to delta = 0.5, on the 1^3 row."""
    params = _row_params("1^3")
    got = mmopam.hybrid_simulate(params, delta, Z0, 5).returns
    ref = hybrid_reference(params, delta, Z0, 5)
    assert max(abs(g - r) / abs(r) for g, r in zip(got, ref)) <= 1e-9


def test_hybrid_pole_raises_non_finite_state():
    """At delta = 10 the Riccati solution from Z = -0.5 passes through infinity on S_a3 on the 1^3 row."""
    params = _row_params("1^3")
    with pytest.raises(NonFiniteState, match="passes through infinity"):
        mmopam.hybrid_simulate(params, 10.0, -0.5, 5)
    # the scalar reference cannot pass the pole either: its step size underflows
    with pytest.raises(RuntimeError, match="Required step size is less than spacing between numbers"):
        hybrid_reference(params, 10.0, -0.5, 1)


# --- the hybrid benchmark pool ------------------------------------------------------------


@pytest.fixture(scope="module")
def pool_runs():
    """Per hybrid pool item: hybrid_simulate's result, the returns and nfev from scipy's four legs,
    and, on every third item, hybrid_reference's returns."""
    params = {row: _row_params(row) for row in ROWS}
    legs = {}
    runs = []
    for i, item in enumerate(_POOL["pool"]):
        row, delta, z0 = item["input"]["row"], item["input"]["delta"], item["input"]["z0"]
        p, n = params[row], _POOL["n_returns"]
        if (row, delta) not in legs:
            legs[row, delta] = _scipy_legs(p, delta)
        ends, nfev = legs[row, delta]
        tight = hybrid_reference(p, delta, z0, n) if i % 3 == 0 else None
        runs.append((mmopam.hybrid_simulate(p, delta, z0, n), _moebius_returns(ends, z0, n), nfev, tight))
    return runs


def _deviation(got, want):
    """Largest |got - want| as a fraction of the fingerprint tolerance atol + rtol |want|."""
    tol = _POOL["tolerance"]
    return max(abs(g - w) / (tol["atol"] + tol["rtol"] * abs(w)) for g, w in zip(got, want))


@pytest.mark.slow
@pytest.mark.parametrize("i", range(len(_POOL["pool"])), ids=lambda i: f"{_POOL['pool'][i]['input']['row']}-{i}")
def test_hybrid_pool_matches_fingerprint_and_scipy(i, pool_runs):
    res, scipy_returns, scipy_nfev, _ = pool_runs[i]
    want = _POOL["pool"][i]["expect"]
    assert str(res.signature) == want["signature"]
    assert len(res.returns) == len(want["returns"]) == len(scipy_returns)
    assert _deviation(res.returns, want["returns"]) <= 1.0
    assert _deviation(res.returns, scipy_returns) <= 1.0
    assert res.solver_stats.nfev == scipy_nfev


@pytest.mark.slow
@pytest.mark.parametrize("i", range(len(_POOL["pool"])), ids=lambda i: f"{_POOL['pool'][i]['input']['row']}-{i}")
def test_hybrid_pool_legs_match_loop_step_bitwise(i):
    assert _check_hybrid_against_loop_step(_POOL["pool"][i], _POOL["n_returns"]) == {True, False}


@pytest.mark.slow
def test_hybrid_pool_worst_deviation(pool_runs):
    """Over the pool, the returns are no further from the tight reference than the scalar legs were."""
    worst_fp = max(_deviation(res.returns, it["expect"]["returns"]) for (res, *_), it in zip(pool_runs, _POOL["pool"]))
    worst_rel = max(
        abs(g - r) / abs(r) for res, _, _, tight in pool_runs if tight is not None for g, r in zip(res.returns, tight)
    )
    print(f"\nhybrid pool: worst deviation {worst_fp:.2e} of the tolerance from the fingerprints, "
          f"worst relative error {worst_rel:.2e} from the rtol-1e-13 reference")
    assert worst_fp <= 1.0
    assert worst_rel <= SCALAR_LEGS_WORST_REL_ERR
