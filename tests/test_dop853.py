"""The scalar DOP853 solver and the hybrid simulator against scipy, their oracle.

``mmopam.dop853`` ports scipy's ``RungeKutta._step_impl`` and
``DOP853._estimate_error_norm`` step for step for one equation, so on the
same leg ``solve_ivp(method="DOP853")`` accepts and rejects the same steps.
The two are not bit-identical: numpy's dot products may round their sums
differently from the plain sums here, so end states agree to about 1e-12
relative, not to the last bit.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import mmopam
from mmopam import dop853, radau
from mmopam.errors import DomainError, StepSizeUnderflow
from mmopam.pam import DISCONTINUITY_GUARD

HYBRID_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "fingerprints" / "hybrid.json"
ROWS = {"1^1": (0.3, 1.0, 0.9, -2.0), "1^3": (0.3, 7.0, 0.9, -2.0), "3^1": (0.9, 1.0, 0.4, -3.0)}
RTOL, ATOL = 1e-10, 1e-12  # hybrid_simulate's defaults

_POOL = json.loads(HYBRID_POOL.read_text())


def _scipy_dop853(fun, t0, y0, t_bound, rtol, atol, args=()):
    from scipy.integrate import solve_ivp

    def vector_fun(t, y, *a):
        return [fun(float(t), float(y[0]), *a)]

    return solve_ivp(vector_fun, (t0, t_bound), [y0], method="DOP853", args=args or None, rtol=rtol, atol=atol)


def _row_params(row: str):
    return mmopam.synthesize(mmopam.PamCoefficients(*ROWS[row]), mmopam.RhoSpec("fixed_rational"))


def _legs(geom, Z):
    """The two legs of one hybrid return from Z, as (x_from, x_to) pairs."""
    if Z < 0.0:
        return (geom.xhat4, geom.x1), (geom.xhat1, geom.x4)
    return (geom.x2, geom.x3), (geom.xhat3, geom.x4)


def _scipy_hybrid(params, delta, Z, n_returns):
    """hybrid_simulate's returns with every leg solved by scipy, and the summed nfev."""
    geom = mmopam.compute_geometry(params)
    dZdx = params.field.dZdx
    returns, nfev = [], 0
    for _ in range(n_returns):
        assert abs(Z) > DISCONTINUITY_GUARD
        for x_from, x_to in _legs(geom, Z):
            sol = _scipy_dop853(dZdx, x_from, Z, x_to, RTOL, ATOL, (delta,))
            assert sol.status == 0, sol.message
            Z, nfev = float(sol.y[0, -1]), nfev + sol.nfev
        returns.append(Z)
    return returns, nfev


# --- fast tier ------------------------------------------------------------------------


@pytest.mark.parametrize("delta", [1e-3, 5e-3, 1e-2])
def test_legs_match_scipy(delta):
    """Forward (S_a1, S_a2) and backward (S_a3) legs from pool returns: same nfev, same end state."""
    directions = set()
    for item in [it for it in _POOL["pool"] if it["input"]["delta"] == delta][::2]:
        params = _row_params(item["input"]["row"])
        geom = mmopam.compute_geometry(params)
        Z = item["input"]["z0"]
        for _ in range(2):
            for x_from, x_to in _legs(geom, Z):
                ref = _scipy_dop853(params.field.dZdx, x_from, Z, x_to, RTOL, ATOL, (delta,))
                Z, st = dop853.solve(params.field.dZdx, x_from, Z, x_to, RTOL, ATOL, args=(delta,))
                assert type(Z) is float
                assert st.nfev == ref.nfev
                assert st.steps == len(ref.t) - 1
                assert math.isclose(Z, ref.y[0, -1], rel_tol=1e-10)
                directions.add(x_to > x_from)
    assert directions == {True, False}


def test_exponential_both_ways():
    for t_bound in (2.0, -2.0):
        ref = _scipy_dop853(lambda t, y: -y, 0.0, 1.0, t_bound, 1e-10, 1e-12)
        y, st = dop853.solve(lambda t, y: -y, 0.0, 1.0, t_bound, 1e-10, 1e-12)
        assert st.nfev == ref.nfev and st.steps == len(ref.t) - 1
        assert math.isclose(y, ref.y[0, -1], rel_tol=1e-13)
        assert math.isclose(y, math.exp(-t_bound), rel_tol=1e-9)


def test_nan_rhs_raises_step_size_underflow():
    def nan_beyond_half(t, y):
        return y if t < 0.5 else math.nan

    # scipy rejects the steps whose stages see nan until the step underflows
    assert _scipy_dop853(nan_beyond_half, 0.0, 1.0, 1.0, 1e-10, 1e-12).status == -1
    with pytest.raises(StepSizeUnderflow, match="t = 0.5:"):
        dop853.solve(nan_beyond_half, 0.0, 1.0, 1.0, 1e-10, 1e-12)
    # a nan from the start makes the first step nan, on which scipy's loop never ends
    with pytest.raises(StepSizeUnderflow, match="t = 0:"):
        dop853.solve(lambda t, y: math.nan, 0.0, 1.0, 1.0, 1e-10, 1e-12)


def test_rtol_floor_matches_scipy():
    fun = lambda t, y: math.cos(t) * y  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns that it raised rtol
        ref = _scipy_dop853(fun, 0.0, 1.0, 3.0, 1e-18, 1e-20)
    y, st = dop853.solve(fun, 0.0, 1.0, 3.0, 1e-18, 1e-20)
    assert (y, st) == dop853.solve(fun, 0.0, 1.0, 3.0, 100 * dop853.EPS, 1e-20)
    assert st.nfev == ref.nfev
    assert math.isclose(y, ref.y[0, -1], rel_tol=1e-12)


def test_empty_interval_rejected():
    with pytest.raises(DomainError):
        dop853.solve(lambda t, y: y, 1.0, 1.0, 1.0, 1e-10, 1e-12)


def test_hybrid_stats_sum_scipy_legs():
    params = _row_params("1^3")
    res = mmopam.hybrid_simulate(params, 5e-3, -0.5, 3)
    returns, nfev = _scipy_hybrid(params, 5e-3, -0.5, 3)
    assert isinstance(res.solver_stats, radau.SolverStats)
    assert res.solver_stats.nfev == nfev
    assert np.allclose(res.returns, returns, rtol=1e-10, atol=0.0)


# --- the hybrid benchmark pool ------------------------------------------------------------


@pytest.fixture(scope="module")
def pool_runs():
    """(hybrid_simulate's result, scipy's returns and nfev) for every hybrid pool item, computed once."""
    params = {row: _row_params(row) for row in ROWS}
    runs = []
    for item in _POOL["pool"]:
        p = params[item["input"]["row"]]
        args = (p, item["input"]["delta"], item["input"]["z0"], _POOL["n_returns"])
        runs.append((mmopam.hybrid_simulate(*args), _scipy_hybrid(*args)))
    return runs


def _deviation(got, want):
    """Largest |got - want| as a fraction of the fingerprint tolerance atol + rtol |want|."""
    tol = _POOL["tolerance"]
    return max(abs(g - w) / (tol["atol"] + tol["rtol"] * abs(w)) for g, w in zip(got, want))


@pytest.mark.slow
@pytest.mark.parametrize("i", range(len(_POOL["pool"])), ids=lambda i: f"{_POOL['pool'][i]['input']['row']}-{i}")
def test_hybrid_pool_matches_fingerprint_and_scipy(i, pool_runs):
    res, (ref_returns, ref_nfev) = pool_runs[i]
    want = _POOL["pool"][i]["expect"]
    assert str(res.signature) == want["signature"]
    assert len(res.returns) == len(want["returns"]) == len(ref_returns)
    assert _deviation(res.returns, want["returns"]) <= 1.0
    assert _deviation(res.returns, ref_returns) <= 1.0
    assert res.solver_stats.nfev == ref_nfev


@pytest.mark.slow
def test_hybrid_pool_worst_deviation(pool_runs):
    """The worst deviation over the pool stays three orders of magnitude inside the tolerance."""
    worst_fp = max(_deviation(res.returns, it["expect"]["returns"]) for (res, _), it in zip(pool_runs, _POOL["pool"]))
    worst_scipy = max(_deviation(res.returns, ref) for res, (ref, _) in pool_runs)
    print(f"\nhybrid pool: worst deviation {worst_fp:.2e} of the tolerance from the fingerprints, "
          f"{worst_scipy:.2e} from scipy")
    assert worst_fp < 1e-3 and worst_scipy < 1e-3
