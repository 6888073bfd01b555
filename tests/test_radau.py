"""The plain-float Radau IIA(5) solver against scipy, its oracle.

``mmopam.radau`` ports ``scipy.integrate._ivp.radau`` step for step, so on
the same problem ``solve_ivp(method="Radau", jac=..., events=...)`` takes
nearly the same steps and finds the same events. The two are not
bit-identical: numpy and OpenBLAS round some sums and LU updates as fused
multiply-adds, which plain Python floats cannot reproduce, so now and then a
step-size decision flips and the step sequences part.
"""

import json
import math
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import mmopam
from mmopam import radau
from mmopam.errors import NonFiniteState, RootFindingFailure, StepSizeUnderflow
from mmopam.family import CanonicalParams, Field, eval_F, eval_Fx
from mmopam.radau import _brentq
from mmopam.simulate import FULL_ATOL, FULL_RTOL, SimConfig, integrate_full

STIFF_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "fingerprints" / "stiff.json"
ROWS = {"1^1": (0.3, 1.0, 0.9, -2.0), "1^3": (0.3, 7.0, 0.9, -2.0), "3^1": (0.9, 1.0, 0.4, -3.0)}


def _scipy_radau(fun, jac, t_span, y0, rtol, atol, args=(), events=None):
    from scipy.integrate import solve_ivp

    return solve_ivp(fun, t_span, np.array(y0, dtype=float), method="Radau", jac=jac, args=args or None,
                     rtol=rtol, atol=atol, events=events)


def _within(got: int, want: int, rel: float) -> bool:
    return abs(got - want) <= rel * want


def _row_params(row: str) -> CanonicalParams:
    return mmopam.synthesize(mmopam.PamCoefficients(*ROWS[row]), mmopam.RhoSpec("fixed_rational"))


def _section_solve(params, cfg, n_crossings=None, fun=None, **kwargs):
    """One Radau solve of the whole run with integrate_full's section and tolerances, ``fun`` (default
    ``Field.rhs``) as the right-hand side: integrate_full before it handed the fast jumps to DOP853 in x."""
    fld = params.field
    geom = mmopam.compute_geometry(params)
    x_sec = 0.5 * (geom.x3 + geom.x4)
    return radau.solve(fld.rhs if fun is None else fun, fld.jac, 0.0, cfg.resolve_initial_state(), cfg.max_slow_time,
                       FULL_RTOL, FULL_ATOL, args=(cfg.eps, cfg.delta), section=x_sec, terminal=n_crossings, **kwargs)


# --- fast tier ------------------------------------------------------------------------


def test_short_model_run_matches_scipy():
    params = _row_params("1^1")
    fld = params.field
    cfg = SimConfig(eps=1e-5, delta=1e-2, max_slow_time=0.4)
    y0 = cfg.resolve_initial_state()
    args = (cfg.eps, cfg.delta)
    ref = _scipy_radau(fld.rhs, fld.jac, (0.0, 0.4), y0, FULL_RTOL, FULL_ATOL, args)
    sol = radau.solve(fld.rhs, fld.jac, 0.0, y0, 0.4, FULL_RTOL, FULL_ATOL, args=args)
    assert sol.t[-1] == 0.4
    end = sol.y[-1]
    for got, want in zip(end, ref.y[:, -1]):
        assert math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-8)
    st = sol.stats
    assert st.steps == len(sol.t) - 1 == len(sol.y) - 1
    assert sol.y[0] == y0
    assert _within(st.steps, len(ref.t) - 1, 0.01)
    assert _within(st.nfev, ref.nfev, 0.01)
    assert _within(st.njev, ref.njev, 0.01)
    assert _within(st.nlu, ref.nlu, 0.01)
    assert all(type(v) is float for v in end)


def _oscillator(t, s, w):
    x, y, z = s
    return y, -w * w * x, -1000.0 * z  # a rotation plus one stiff decaying mode


def _oscillator_jac(t, s, w):
    return (0.0, 1.0, 0.0), (-w * w, 0.0, 0.0), (0.0, 0.0, -1000.0)


# the section crossed in decreasing x is scipy's event with direction -1; only that direction exists
@pytest.mark.parametrize("direction", [-1])
def test_events_match_scipy(direction):
    def event(t, s, w):
        return s[0] - 0.3

    event.direction = direction
    ref = _scipy_radau(_oscillator, _oscillator_jac, (0.0, 20.0), (1.0, 0.0, 1.0), 1e-8, 1e-10, (2.0,), event)
    sol = radau.solve(_oscillator, _oscillator_jac, 0.0, (1.0, 0.0, 1.0), 20.0, 1e-8, 1e-10, args=(2.0,), section=0.3)
    assert len(sol.crossings) == len(ref.t_events[0]) > 5
    for (te, *se), want_t, want in zip(sol.crossings, ref.t_events[0], ref.y_events[0]):
        assert abs(te - want_t) < 1e-9
        assert abs(se[0] - 0.3) < 1e-12
        assert np.allclose(se, want, rtol=1e-7, atol=1e-9)
    # each root lies inside the step whose dense output located it
    for te, *_ in sol.crossings:
        assert any(a <= te <= b for a, b in zip(sol.t, sol.t[1:]))


def test_terminal_count_stops_at_the_last_root():
    kwargs = dict(args=(2.0,), section=0.3)
    sol = radau.solve(_oscillator, _oscillator_jac, 0.0, (1.0, 0.0, 1.0), 20.0, 1e-8, 1e-10, terminal=3, **kwargs)
    full = radau.solve(_oscillator, _oscillator_jac, 0.0, (1.0, 0.0, 1.0), 20.0, 1e-8, 1e-10, **kwargs)
    assert len(sol.crossings) == 3
    assert (sol.t[-1], *sol.y[-1]) == sol.crossings[-1]
    # the same steps up to the one that holds the root, which lies before that step's end
    n = len(sol.t) - 1
    assert (sol.t[:n], sol.y[:n]) == (full.t[:n], full.y[:n]) and sol.stats.steps == n == len(sol.y) - 1
    assert sol.t[-2] < sol.t[-1] < full.t[n]


def _blow_up(t, s):
    return s[0] * s[0], -s[1], 0.0


def _blow_up_jac(t, s):
    return (2.0 * s[0], 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 0.0)


def test_step_size_underflow_raises():
    # y' = y^2 from y = 1 has its pole at t = 1; scipy's Radau fails there too
    ref = _scipy_radau(_blow_up, _blow_up_jac, (0.0, 2.0), (1.0, 1.0, 0.0), 1e-8, 1e-10)
    assert ref.status == -1
    with pytest.raises(StepSizeUnderflow, match="t = 1:"):
        radau.solve(_blow_up, _blow_up_jac, 0.0, (1.0, 1.0, 0.0), 2.0, 1e-8, 1e-10)


def test_integrate_full_step_size_underflow(fixed_rho, monkeypatch):
    # a right-hand side that is never finite defeats every Newton iteration
    monkeypatch.setattr(Field, "rhs", lambda self, t, s, eps, delta: (math.nan, 0.0, 0.0))
    params = CanonicalParams(0.5, 0.3, 2.0, -4.0, fixed_rho)
    with pytest.raises(StepSizeUnderflow):
        integrate_full(params, SimConfig(eps=1e-5, delta=1e-2, max_slow_time=1.0))


def test_non_finite_state_raises():
    # the first step from the largest float overflows while the error estimate stays finite
    def push(t, s):
        return 1e300, 0.0, 0.0

    def no_jac(t, s):
        return (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)

    with pytest.raises(NonFiniteState):
        radau.solve(push, no_jac, 0.0, (sys.float_info.max, 0.0, 0.0), 10.0, 1e-6, 1e-9)


def test_overflowing_collocation_iterate_raises():
    # near the largest float the Newton iterates overflow while the derivative stays finite; scipy's
    # lu_solve rejects the non-finite right-hand side, and without the check this solve never ends
    calls = []

    def push(t, s):
        calls.append(t)
        if len(calls) > 10_000:
            raise AssertionError(f"runaway solve, stalled at t = {t}")
        return 1e300, 0.0, 0.0

    def no_jac(t, s):
        return (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)

    with pytest.raises(NonFiniteState, match="collocation iterate"):
        radau.solve(push, no_jac, 0.0, (1.79e308, 0.0, 0.0), 1e9, 1e-6, 1e-9)


@pytest.mark.parametrize("state, t_fail, full_error", [((1e30, 0.0, 0.0), "0", StepSizeUnderflow),
                                                       ((0.0, 0.0, 1e300), "1.98493e-289", StepSizeUnderflow)],
                         ids=["x-overflow", "z-overflow"])
def test_non_finite_newton_stage(state, t_fail, full_error):
    # F overflows at Newton stages: the iteration tests F and W for finiteness only once the norm of its
    # increment is not finite, which a non-finite F always makes it. The outcome is the one of testing them
    # at every iteration (the z run accepts steps in between), through Field.rhs's instance and the generic one.
    params = _row_params("1^1")
    cfg = SimConfig(eps=1e-6, delta=1e-2, initial_state=state)
    message = re.escape(f"integrator failed at t = {t_fail}: required step size is less than spacing between numbers")
    with pytest.raises(StepSizeUnderflow, match=f"^{message}$"):
        _section_solve(params, cfg)
    non_finite = []

    def plain(t, s, *a):
        f = params.field.rhs(t, s, *a)
        if not all(math.isfinite(v) for v in f):
            non_finite.append(t)
        return f

    with pytest.raises(StepSizeUnderflow, match=f"^{message}$"):
        _section_solve(params, cfg, fun=plain)
    assert non_finite
    # integrate_full fails in its first Radau solve on the x run; it hands the first step end of the z run,
    # where |y - F| is past its threshold, to a jump, and Radau fails again after it
    with pytest.raises(full_error):
        integrate_full(params, cfg)


def test_stop_at_inf_is_no_stop():
    # the default stop changes no bit; a finite one ends the solve at the first step end past it
    params = _row_params("1^1")
    cfg = SimConfig(eps=1e-6, delta=1e-2, max_slow_time=2.5)
    plain, at_inf = _section_solve(params, cfg), _section_solve(params, cfg, stop=math.inf)
    assert repr(plain) == repr(at_inf) and plain.stats.steps > 1000 and plain.crossings  # repr round-trips every float
    stop = 1e3
    sol = _section_solve(params, cfg, stop=stop)
    end = sol.t[-1]
    assert sol.t == plain.t[: len(sol.t)] and end < cfg.max_slow_time
    assert sol.y == plain.y[: len(sol.y)] and sol.stats.steps == len(sol.t) - 1 == len(sol.y) - 1
    assert abs(params.field.rhs(end, sol.y[-1], cfg.eps, cfg.delta)[0]) > stop
    assert all(abs(params.field.rhs(t, s, cfg.eps, cfg.delta)[0]) <= stop for t, s in zip(sol.t[1:-1], sol.y[1:-1]))


def test_integrate_full_alternates_radau_and_jumps(monkeypatch):
    """Radau solves that end where the gap |y - F| passes theta or in the band before the fold x1, x3 or x4,
    each followed by the x-solve legs of one jump; the counters are the sums over each solver's solves, and
    neither calls scipy."""
    solves = []
    radau_solve, dop853_solve = radau.solve, mmopam.dop853.solve

    def recording_radau(*args, **kwargs):
        solves.append(("radau", args, kwargs, radau_solve(*args, **kwargs)))
        return solves[-1][-1]

    def recording_dop853(*args, **kwargs):
        solves.append(("dop853", args, kwargs, dop853_solve(*args, **kwargs)))
        return solves[-1][-1]

    def no_scipy(*args, **kwargs):
        raise AssertionError("integrate_full must not call solve_ivp")

    monkeypatch.setattr(mmopam.simulate.radau, "solve", recording_radau)
    monkeypatch.setattr(mmopam.simulate.dop853, "solve", recording_dop853)
    monkeypatch.setattr(mmopam.simulate, "solve_ivp", no_scipy)
    params = _row_params("1^1")
    cfg = SimConfig(eps=1e-5, delta=1e-2, max_slow_time=2.5)
    series = integrate_full(params, cfg, n_crossings=2)
    # the budget holds both crossings, and the run stops at the second; a crossing inside a jump is the step end
    # of a leg split at the section, x = 0.5 exactly
    assert len(series.crossing_states) == 2
    assert series.t[-1] == series.crossing_states[-1][0] < 2.5
    assert all(x == 0.5 for _, x, _, _ in series.crossing_states)
    kinds = [kind for kind, *_ in solves]
    assert kinds[0] == "radau" and kinds.count("radau") > 2 and kinds.count("dop853") > 2
    theta = mmopam.simulate.JUMP_GAP * cfg.eps ** (2 / 3)
    band = mmopam.simulate.FOLD_BAND * cfg.eps ** (1 / 3)
    radau_stats, jump_stats = radau.SolverStats(), radau.SolverStats()
    passages = 0
    for (kind, args, kwargs, out), (next_kind, next_args, *_) in zip(solves, solves[1:] + [("end", None)]):
        if kind == "radau":
            radau_stats += out.stats
            assert kwargs["stop"] == theta / cfg.eps and args[4] == cfg.max_slow_time
            assert (kwargs["approach"], kwargs["band"]) == ((-2.0, 0.0, 1.0), band)
            assert out.stats.steps == len(out.t) - 1 == len(out.y) - 1
            end = out.y[-1]
            if next_kind == "dop853":  # a Radau solve hands over at its last step end: past theta, or in a band
                g = end[1] - eval_F(end[0], end[2])
                if abs(g) <= theta:
                    assert any(0.0 < math.copysign(1.0, g) * (xf - end[0]) < band for xf in (-2.0, 0.0, 1.0))
                    passages += 1
                assert next_args[1:3] == (end[0], (out.t[-1], *end[1:]))
        else:
            xs, ends, st = out
            jump_stats += st
            # the next solve starts where this leg ends
            if next_kind == "dop853":
                assert next_args[1:3] == (xs[-1], ends[-1])
            elif next_kind == "radau":
                assert (next_args[2], *next_args[3]) == (ends[-1][0], xs[-1], *ends[-1][1:])
    assert (series.solver_stats, series.jump_stats) == (radau_stats, jump_stats)
    assert radau_stats.steps > 0 and radau_stats.nlu > 0 and jump_stats.steps > 0
    assert passages > 0


def test_approach_ends_at_the_first_step_end_moving_toward_its_point():
    # the default approach changes no bit; a point x_f ends the solve at the first step end within the band of it
    # with x moving toward it, and not at one within the band moving away
    params = _row_params("1^1")
    cfg = SimConfig(eps=1e-6, delta=1e-2, max_slow_time=2.5)
    plain = _section_solve(params, cfg)
    assert repr(plain) == repr(_section_solve(params, cfg, approach=()))

    def side(t, s, xf, w):  # +1 within w moving toward x_f, -1 within w moving away, 0 outside
        v = params.field.rhs(t, s, cfg.eps, cfg.delta)[0] * (xf - s[0])
        return (1 if v > 0.0 else -1) if abs(xf - s[0]) < w else 0

    # from x = 1.3 the run slides away from x = 1.5 through its band, and a rightward jump later lands in it; the
    # first point, whose band no step end meets, shows that each point is tested
    xf, w = 1.5, 0.3
    sol = _section_solve(params, cfg, approach=(-10.0, xf), band=w)
    k = len(sol.t)
    assert sol.t == plain.t[:k] and sol.y == plain.y[:k] and k < len(plain.t)
    sides = [side(t, s, xf, w) for t, s in zip(sol.t[1:], sol.y[1:])]
    assert sides[-1] == 1 and 1 not in sides[:-1] and -1 in sides[:-1]


@pytest.mark.parametrize("rho", [mmopam.RhoSpec("fixed_rational"), mmopam.RhoSpec("quadratic", p=1.0, q=1.0)],
                         ids=["fixed", "quad"])
def test_field_solver_equals_generic(rho, monkeypatch):
    # Field.rhs carries the solver with its body written into the Newton stages and the step end; a plain
    # lambda around the same rhs runs the generic instance, which calls it there. Both give the same bits.
    params = mmopam.synthesize(mmopam.PamCoefficients(*ROWS["1^1"]), rho)
    cfg = SimConfig(eps=1e-6, delta=1e-2)
    assert params.field.rhs.solver is not None
    runs = [integrate_full(params, cfg, n_crossings=3)]
    calls = []
    solve = radau.solve

    def generic(fun, *args, **kwargs):
        return solve(lambda t, s, *a: calls.append(t) or fun(t, s, *a), *args, **kwargs)

    monkeypatch.setattr(mmopam.simulate.radau, "solve", generic)
    runs.append(integrate_full(params, cfg, n_crossings=3))
    field_run, generic_run = ([[v.hex() for v in col] for col in (r.t, r.x, r.y, r.z, *r.crossing_states)] for r in runs)
    assert field_run == generic_run
    st = runs[1].solver_stats
    assert runs[0].solver_stats == st
    assert len(calls) == st.nfev > 3 * st.steps
    # the run goes through every branch of the step loop: rejected steps, failed Newton iterations
    # and Jacobian refreshes
    assert st.rejected > 0 and st.newton_failures > 0 and st.njev > 1


# --- the unrolled 3x3 LU ------------------------------------------------------------------


def _loop_lu3(m):
    """The pivoting loop that ``radau._lu3`` unrolls, kept as its bitwise reference."""
    rows = [[0, m[0], m[1], m[2]], [1, m[3], m[4], m[5]], [2, m[6], m[7], m[8]]]
    for k in (1, 2):
        piv = max(range(k - 1, 3), key=lambda i: abs(rows[i][k].real) + abs(rows[i][k].imag))
        rows[k - 1], rows[piv] = rows[piv], rows[k - 1]
        top = rows[k - 1]
        if top[k] == 0:
            return None
        inv = 1 / top[k]
        for row in rows[k:]:
            row[k] = lk = row[k] * inv
            for j in range(k + 1, 4):
                row[j] -= lk * top[j]
    if rows[2][3] == 0:
        return None
    (p0, u00, u01, u02), (p1, l10, u11, u12), (p2, l20, l21, u22) = rows
    return p0, p1, p2, u00, u01, u02, l10, u11, u12, l20, l21, u22


def _bits(v):
    """A value's type and exact bits: pivot indices as they are, floats and complex parts by float.hex."""
    if type(v) is complex:
        return "complex", v.real.hex(), v.imag.hex()
    if type(v) is float:
        return "float", v.hex()
    return v


_SPECIAL = (0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 3.0, 1e-300, 1e300, math.inf, -math.inf, math.nan)


def _fuzz_entry(rng, kind):
    x = rng.choice(_SPECIAL) if rng.random() < 0.5 else rng.gauss(0.0, 10.0 ** rng.randint(-3, 3))
    if kind == "real":
        return x
    return complex(x, rng.choice(_SPECIAL) if rng.random() < 0.5 else rng.gauss(0.0, 1.0))


def _fuzz_matrices(seed, kind, n):
    """Seeded 3x3 matrices: random and special entries (ties, +-0.0, +-inf, nan) and singular ones.

    "mixed" is the shape of the complex iteration matrix: a complex diagonal, real off-diagonals.
    """
    rng = random.Random(seed)
    for _ in range(n):
        m = []
        for i in range(9):
            m.append(_fuzz_entry(rng, "complex" if kind == "complex" or kind == "mixed" and i % 4 == 0 else "real"))
        shape = rng.randrange(5)
        if shape == 1:  # two proportional rows
            r, q = rng.sample(range(3), 2)
            f = rng.choice((1.0, -1.0, 2.0, 0.0))
            m[3 * q : 3 * q + 3] = [f * v for v in m[3 * r : 3 * r + 3]]
        elif shape == 2:  # a zero column
            c = rng.randrange(3)
            m[c], m[c + 3], m[c + 6] = 0.0, -0.0, 0.0
        elif shape == 3:  # equal pivot keys in the first column
            m[3] = m[6] = m[0]
        yield tuple(m)


@pytest.mark.parametrize("kind, seed", [("real", 1), ("mixed", 2), ("complex", 3)], ids=["real", "mixed", "complex"])
def test_lu3_matches_loop_reference_bitwise(kind, seed):
    seen_none = seen_nan = 0
    for m in _fuzz_matrices(seed, kind, 6000):
        want = _loop_lu3(m)
        got = radau._lu3(m)
        if want is None:
            assert got is None, m
            seen_none += 1
            continue
        assert got is not None, m
        assert [_bits(v) for v in got] == [_bits(v) for v in want], m
        seen_nan += any(v != v for v in want)
    assert seen_none > 500 and seen_nan > 500


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_lu3_row_order_matches_scipy_lu_factor(kind):
    from scipy.linalg import lu_factor

    rng = np.random.default_rng(13)
    for _ in range(400):
        a = rng.standard_normal((3, 3))
        if kind == "complex":
            a = a + 1j * rng.standard_normal((3, 3))
        lu = radau._lu3(tuple(a.ravel().tolist()))
        factors, piv = lu_factor(a)
        perm = [0, 1, 2]  # getrf's interchanges, applied in order
        for i, p in enumerate(piv):
            perm[i], perm[p] = perm[p], perm[i]
        assert list(lu[:3]) == perm
        assert np.allclose(lu[3:], factors.ravel(), rtol=1e-9, atol=1e-12)


# One stiff pool item per row: crossing states and counters of the run as one Radau solve with integrate_full's
# section, recorded with the loop LU and the substitution calls that the straight-line code replaced. Any
# change in any step shows here.
PINNED = {
    0: (
        [("0x1.f17138f6e5f15p-2", "0x1.00000000416d9p-1", "-0x1.bbd03548ad934p-2", "-0x1.67dc1436a29d8p-8"),
         ("0x1.7cabf5f213005p+0", "0x1.0000000116decp-1", "-0x1.bc0300105088cp-2", "0x1.4d5297c26786dp-8")],
        radau.SolverStats(steps=1632, rejected=29, nfev=14150, njev=405, nlu=1188, newton_failures=28),
    ),
    4: (
        [("0x1.f0d036aa399a6p-2", "0x1.000000006b247p-1", "-0x1.bbe39a9ae4651p-2", "-0x1.7ca9d37536d5cp-10"),
         ("0x1.7c375513f3b53p+0", "0x1.fffffffd4411bp-2", "-0x1.bc9985d480f09p-2", "0x1.2a71f2abc6682p-5")],
        radau.SolverStats(steps=1676, rejected=28, nfev=14440, njev=407, nlu=1190, newton_failures=27),
    ),
    8: (
        [("0x1.e97e13f9ceac6p-2", "0x1.ffffffffd9175p-2", "-0x1.bbde0487781cap-2", "-0x1.57442cb9c8cf1p-9"),
         ("0x1.720b758ef8d85p+0", "0x1.00000000a0b5fp-1", "-0x1.bbf30b5772b60p-2", "0x1.cd3693bafbc89p-10")],
        radau.SolverStats(steps=1467, rejected=28, nfev=13031, njev=442, nlu=1222, newton_failures=18),
    ),
}


# --- the stiff benchmark pool ------------------------------------------------------------


_POOL = json.loads(STIFF_POOL.read_text())
_POOL_IDS = [pytest.param(i, id=f"{item['input']['row']}-{i}") for i, item in enumerate(_POOL["pool"])]


def _pool_cfg(item) -> SimConfig:
    return SimConfig(eps=_POOL["eps"], delta=_POOL["delta"], initial_state=tuple(item["input"]["state"]))


@pytest.fixture(scope="module")
def pool_runs():
    """(integrate_full's series, the run as one Radau solve, scipy's solution) for every stiff pool state."""
    params = {row: _row_params(row) for row in ROWS}
    runs = []
    for item in _POOL["pool"]:
        p = params[item["input"]["row"]]
        fld = p.field
        cfg = _pool_cfg(item)
        geom = mmopam.compute_geometry(p)
        x_sec = 0.5 * (geom.x3 + geom.x4)  # integrate_full's default section

        def cross(t, s, eps, delta, x_sec=x_sec):
            return s[0] - x_sec

        cross.direction = -1.0
        cross.terminal = _POOL["n_crossings"]
        ref = _scipy_radau(fld.rhs, fld.jac, (0.0, cfg.max_slow_time), cfg.initial_state, FULL_RTOL, FULL_ATOL,
                           (cfg.eps, cfg.delta), cross)
        runs.append((integrate_full(p, cfg, n_crossings=_POOL["n_crossings"]),
                     _section_solve(p, cfg, _POOL["n_crossings"]), ref))
    return runs


@pytest.mark.parametrize("i", [_POOL_IDS[i] for i in PINNED])
def test_stiff_pool_item_pinned(i):
    item = _POOL["pool"][i]
    sol = _section_solve(_row_params(item["input"]["row"]), _pool_cfg(item), _POOL["n_crossings"])
    crossings, stats = PINNED[i]
    assert [tuple(v.hex() for v in c) for c in sol.crossings] == crossings
    assert sol.stats == stats


@pytest.mark.slow
@pytest.mark.parametrize("i", _POOL_IDS)
def test_stiff_pool_matches_scipy(i, pool_runs):
    """integrate_full's crossings within the benchmark's fingerprint tolerance of scipy's; the counters of
    the run as one Radau solve within 1% of scipy's.

    nlu, which counts two factorisations per refresh of the iteration matrix,
    is held to 2% per item: a refresh follows a threshold test on the
    step-size factor, and the rounding differences described above flip a
    few of them on some items. Over the pool it is held to 1% (next test).
    """
    series, sol, ref = pool_runs[i]
    tol = _POOL["tolerance"]
    want = [(te, *ye) for te, ye in zip(ref.t_events[0], ref.y_events[0])]
    assert len(series.crossing_states) == len(want) == _POOL["n_crossings"]
    for got_c, want_c in zip(series.crossing_states, want):
        for g, w in zip(got_c, want_c):
            assert abs(g - w) <= tol["atol"] + tol["rtol"] * abs(w)
    st = sol.stats
    assert _within(st.steps, len(ref.t) - 1, 0.01)
    assert _within(st.nfev, ref.nfev, 0.01)
    assert _within(st.njev, ref.njev, 0.01)
    assert _within(st.nlu, ref.nlu, 0.02)


@pytest.mark.slow
def test_stiff_pool_totals(pool_runs):
    for name, want in (("steps", lambda r: len(r.t) - 1), ("nfev", lambda r: r.nfev), ("nlu", lambda r: r.nlu)):
        got = sum(getattr(sol.stats, name) for _, sol, _ in pool_runs)
        assert _within(got, sum(want(ref) for _, _, ref in pool_runs), 0.01), name


# --- Brent root finder (crossing location) ---------------------------------------------------

BRENT_FUNCTIONS = {
    "Fx(., 0)": lambda x: eval_Fx(x, 0.0),
    "Fx(., -0.4)": lambda x: eval_Fx(x, -0.4),
    "F(., 0) + 0.1": lambda x: eval_F(x, 0.0) + 0.1,
    "F(., 0.3) - 0.2": lambda x: eval_F(x, 0.3) - 0.2,
    "sin(3x) - 0.2": lambda x: math.sin(3.0 * x) - 0.2,
    "tanh(5x - 1) + x/10": lambda x: math.tanh(5.0 * x - 1.0) + 0.1 * x,
}
GEOMETRY_TOLS = (1e-14, 1e-15)
SCIPY_DEFAULT_TOLS = (2e-12, 4 * float(np.finfo(float).eps))


@pytest.mark.parametrize("xtol, rtol", [GEOMETRY_TOLS, SCIPY_DEFAULT_TOLS])
@pytest.mark.parametrize("name", sorted(BRENT_FUNCTIONS))
def test_brentq_equals_scipy(name, xtol, rtol):
    from scipy.optimize import brentq

    f = BRENT_FUNCTIONS[name]
    rng = np.random.default_rng(20210)
    checked = 0
    for a, b in rng.uniform(-3.0, 2.0, size=(400, 2)):  # NumPy scalar brackets
        if f(a) * f(b) >= 0.0:
            continue
        got = _brentq(f, a, b, xtol, rtol)
        assert type(got) is float
        assert got == brentq(f, a, b, xtol=xtol, rtol=rtol), (a, b)
        checked += 1
    assert checked >= 20


def test_brentq_unbracketed_raises():
    with pytest.raises(RootFindingFailure):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-14, 1e-15)
