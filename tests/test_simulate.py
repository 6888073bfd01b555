import gc
import hashlib
import math
import sys

import numpy as np
import pytest

import mmopam.simulate
from mmopam import dop853, radau
from mmopam.errors import DiscontinuityHit, DomainError, NotPeriodic, StepSizeUnderflow
from mmopam.family import _KCD, CanonicalParams, RhoSpec, compute_geometry, eval_F, eval_Fx
from mmopam.pam import PamCoefficients, Signature, iterate_orbit
from mmopam.radau import SolverStats
from mmopam.segments import associated_pam
from mmopam.simulate import (
    SimConfig,
    TimeSeries,
    _folds,
    canard_hole_radius,
    classify_series,
    hybrid_simulate,
    integrate_full,
    visual_rescale,
)
from mmopam.synthesis import synthesize
from mmopam.tables import SYNTHESIS_BENCHMARKS

ROW_1_1 = PamCoefficients(0.3, 1.0, 0.9, -2.0)


@pytest.fixture(scope="module")
def params_1_1(fixed_rho):
    return synthesize(ROW_1_1, fixed_rho)


class TestSimConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.eps == 1e-7 and cfg.delta == 5e-3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps": 1e-2},
            {"eps": 0.0},
            {"delta": 0.5},
            {"delta": 0.0},
            {"eps": math.nan},
            {"max_slow_time": -1.0},
            {"max_slow_time": math.inf},
            {"max_slow_time": math.nan},
            {"initial_state": (1.3, 0.0)},
            {"initial_state": (math.nan, 0.0, 0.0)},
        ],
    )
    def test_invariants(self, kwargs):
        with pytest.raises(DomainError):
            SimConfig(**kwargs)

    def test_default_initial_state_on_sheet(self):
        cfg = SimConfig()
        x0, y0, z0 = cfg.resolve_initial_state()
        assert x0 == 1.3
        assert math.isclose(y0, float(eval_F(1.3, 0.0)))
        assert math.isclose(z0, 0.0 - cfg.delta / 2.0)


class TestSection:
    def test_default_resolves_between_last_folds(self, params_1_1, monkeypatch):
        class Stop(Exception):
            pass

        seen = {}

        def capture(*args, section, **kwargs):
            seen.update(section=section)
            raise Stop

        monkeypatch.setattr(mmopam.simulate.radau, "solve", capture)
        with pytest.raises(Stop):
            integrate_full(params_1_1, SimConfig(eps=1e-5, delta=1e-2))
        # the plane x = 0.5, which radau.solve counts as crossed when x falls through it
        assert math.isclose(seen["section"], 0.5, abs_tol=1e-9)


@pytest.mark.parametrize("n_crossings", [0, -3])
def test_integrate_full_needs_a_positive_crossing_count(params_1_1, monkeypatch, n_crossings):
    def no_solve(*args, **kwargs):
        raise AssertionError("the count is checked before any integration")

    monkeypatch.setattr(mmopam.simulate.radau, "solve", no_solve)
    with pytest.raises(DomainError, match="n_crossings"):
        integrate_full(params_1_1, SimConfig(eps=1e-5, delta=1e-2), n_crossings=n_crossings)


class TestTimeSeries:
    def test_monotone_time_required(self):
        with pytest.raises(DomainError):
            TimeSeries(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2), np.zeros(2))

    def test_csv_export(self, tmp_path):
        t = np.linspace(0, 1, 5)
        series = TimeSeries(t, t * 2, t * 3, t * 4)
        path = tmp_path / "out.csv"
        series.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x,y,z"
        assert len(lines) == 6


class TestHybrid:
    def test_delta_zero_reproduces_map(self, params_1_1):
        orbit = iterate_orbit(ROW_1_1, -0.5)
        res = hybrid_simulate(params_1_1, 0.0, -0.5, 15)
        for got, want in zip(res.returns, orbit.iterates[1:16]):
            assert math.isclose(got, want, abs_tol=1e-8)

    @pytest.mark.parametrize("pam", [ROW_1_1, PamCoefficients(0.3, 7.0, 0.9, -2.0), PamCoefficients(0.9, 1.0, 0.4, -3.0)],
                             ids=["1^1", "1^3", "3^1"])
    def test_delta_zero_branch_maps_are_the_pam(self, fixed_rho, pam):
        """At delta = 0 the legs composed along each branch are its closed-form affine map: C = 0 and D = 1 exactly."""
        params = synthesize(pam, fixed_rho)
        geom = compute_geometry(params)
        branches, _ = mmopam.simulate._hybrid_legs(params, 0.0, geom)
        closed = associated_pam(params, geom)
        for legs, (slope, offset) in zip(branches, ((closed.a11, closed.a12), (closed.a21, closed.a22))):
            A, B, C, D = 1.0, 0.0, 0.0, 1.0
            for (a, b, c, d), _ in legs:
                A, B, C, D = a * A + b * C, a * B + b * D, c * A + d * C, c * B + d * D
            assert C == 0.0 and D == 1.0
            assert math.isclose(A, slope, rel_tol=1e-10)
            assert math.isclose(B, offset, rel_tol=1e-10)

    def test_signature_detected(self, params_1_1):
        res = hybrid_simulate(params_1_1, 0.0, -0.5, 40)
        assert res.signature is not None
        assert str(res.signature) == "1^1"
        assert res.period == 2

    def test_pure_lao_fixed_point(self, fixed_rho):
        pam = PamCoefficients(0.5, -1.0, 0.5, -3.0)
        params = synthesize(pam, fixed_rho)
        res = hybrid_simulate(params, 0.0, -0.5, 30)
        assert str(res.signature) == "1^0"

    def test_negative_delta_rejected(self, params_1_1):
        with pytest.raises(DomainError):
            hybrid_simulate(params_1_1, -1e-3, -0.5, 5)

    @pytest.mark.parametrize("delta, Z0", [(math.nan, -0.5), (math.inf, -0.5), (1e-3, math.nan), (1e-3, -math.inf)])
    def test_non_finite_inputs_rejected(self, params_1_1, delta, Z0):
        with pytest.raises(DomainError):
            hybrid_simulate(params_1_1, delta, Z0, 5)

    def test_jump_hit_raises(self, params_1_1):
        with pytest.raises(DiscontinuityHit):
            hybrid_simulate(params_1_1, 0.0, 1e-13, 5)

    def test_legs_never_call_solve_ivp(self, params_1_1, monkeypatch):
        # the legs run on mmopam.dop853; scipy's solve_ivp is left for the oracle tests
        def no_scipy(*args, **kwargs):
            raise AssertionError("hybrid_simulate must not call solve_ivp")

        monkeypatch.setattr(mmopam.simulate, "solve_ivp", no_scipy)
        res = hybrid_simulate(params_1_1, 1e-3, -0.5, n_returns=2)
        assert len(res.returns) == 2 and res.solver_stats.steps > 0


class TestVisualRescale:
    def test_arithmetic(self):
        t = np.array([0.0, 1.0])
        series = TimeSeries(t, np.array([3.5, 7.0]), np.array([2.0, 4.0]), np.array([0.1, 0.2]))
        out = visual_rescale(series, delta=0.1)
        assert np.allclose(out.x, [1.0, 2.0])
        assert np.allclose(out.y, [3.0, 6.0])
        assert np.allclose(out.z, [1.0, 2.0])

    def test_identity_on_z_when_trivial(self):
        t = np.array([0.0, 1.0])
        series = TimeSeries(t, np.zeros(2), np.zeros(2), np.array([0.3, -0.4]))
        out = visual_rescale(series)
        assert np.allclose(out.z, series.z)

    def test_zero_delta_rejected(self):
        t = np.array([0.0, 1.0])
        series = TimeSeries(t, np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(DomainError):
            visual_rescale(series, delta=0.0)


def test_canard_hole_radius():
    assert math.isclose(canard_hole_radius(1e-7, 5e-3), 2.0 * 1e-7 ** (1 / 3) / 5e-3)


class TestClassifySeries:
    def _series_from_symbols(self, symbols, with_crossings=True):
        # a synthetic trajectory: each unit-time cycle starts at x = 1.3, dips to -2.5 (LAO)
        # or -1.0 (SAO), and crosses the section x = 0.5 downward once on its way down
        t_parts, x_parts, crossings = [], [], []
        for k, is_lao in enumerate(symbols):
            depth = -2.5 if is_lao else -1.0
            mid, amp = 0.5 * (1.3 + depth), 0.5 * (1.3 - depth)
            tt = np.linspace(k, k + 1.0, 51)[:-1]
            t_parts.append(tt)
            x_parts.append(mid + amp * np.cos((tt - k) * 2 * np.pi))
            crossings.append((k + math.acos((0.5 - mid) / amp) / (2 * np.pi), 0.5, 0.0, 0.0))
        t = np.concatenate(t_parts)
        x = np.concatenate(x_parts)
        return TimeSeries(t, x, np.zeros_like(t), np.zeros_like(t), crossing_states=crossings if with_crossings else [])

    def test_periodic_pattern_classified(self, geometry):
        symbols = [True, False, False] * 8  # 1^2 repeated
        sig = classify_series(self._series_from_symbols(symbols), geometry)
        assert str(sig) == "1^2"

    def test_all_lao(self, geometry):
        sig = classify_series(self._series_from_symbols([True] * 12), geometry)
        assert str(sig) == "1^0"

    def test_too_few_crossings(self, geometry):
        with pytest.raises(NotPeriodic):
            classify_series(self._series_from_symbols([True, False]), geometry)

    def test_no_crossing_states(self, geometry):
        # the samples alone are never searched for crossings
        series = self._series_from_symbols([True, False, False] * 8, with_crossings=False)
        with pytest.raises(NotPeriodic, match="only 0 section crossings; need at least 8"):
            classify_series(series, geometry)


@pytest.mark.slow
class TestIntegrateFull:
    def test_z_frozen_without_drift(self, fixed_rho):
        # alpha = beta = 0 kills the slow z-drift entirely
        params = CanonicalParams(0.0, 0.0, 3.0, -5.0, fixed_rho)
        cfg = SimConfig(eps=1e-5, delta=1e-2, max_slow_time=2.0)
        series = integrate_full(params, cfg)
        assert np.ptp(series.z) < 1e-9

    def test_slow_manifold_attraction(self, params_1_1):
        # distance to {y = F(x, z)} during slow segments shrinks with eps
        devs = []
        for eps in (1e-4, 1e-5, 1e-6):
            cfg = SimConfig(eps=eps, delta=5e-3, max_slow_time=1.0)
            series = integrate_full(params_1_1, cfg)
            # sample the second half (past the initial layer), slow segments only
            n = len(series) // 2
            x, y, z = (np.asarray(c)[n:] for c in (series.x, series.y, series.z))
            resid = np.abs(y - eval_F(x, z))
            slow = resid < np.median(resid) * 4  # ignore jump segments
            devs.append(float(np.median(resid[slow])))
        assert devs[0] > devs[1] > devs[2]

    def test_full_run_produces_crossings_and_density(self, params_1_1):
        cfg = SimConfig(eps=1e-5, delta=1e-2, max_slow_time=10.0)
        series = integrate_full(params_1_1, cfg, n_crossings=8)
        assert len(series.crossing_states) >= 8
        assert np.all(np.abs(np.diff(series.x)) < 0.05 + 1e-9)
        assert np.all(np.diff(series.t) > 0.0)


def _record_solves(monkeypatch) -> list:
    """Record integrate_full's solves in order, as ("radau" or "dop853", args, result)."""
    solves = []
    for kind, module in (("radau", radau), ("dop853", dop853)):
        def recording(*args, _kind=kind, _solve=module.solve, **kwargs):
            solves.append((_kind, args, _solve(*args, **kwargs)))
            return solves[-1][-1]

        monkeypatch.setattr(getattr(mmopam.simulate, kind), "solve", recording)
    return solves


# sha256 of the float.hex of the columns t, x, y and z, in that order, joined by spaces: a moved bit fails
SAMPLES_SHA256 = {
    None: "e05ad782a18f7749b17e0c45b7ba3296526dc83ba93871cf980dbaff21126b99",
    1: "df9d8ae70dc0dbab4279f48d22ef1d4e50827c9f6a33d0a6318d09a1c937adc9",
}


@pytest.mark.parametrize("n_crossings", [None, 1], ids=["one-solve", "terminal-stop"])
def test_samples_equal_the_numpy_sampler(params_1_1, monkeypatch, n_crossings):
    # each Radau solve's samples are a run of the columns; in between lie the jumps' x-step ends; every bit is pinned
    solves = _record_solves(monkeypatch)
    cfg = SimConfig(eps=1e-5, delta=1e-2, max_slow_time=1.0)
    series = integrate_full(params_1_1, cfg, n_crossings=n_crossings)
    assert (series.t[-1] < cfg.max_slow_time) == (n_crossings is not None)
    cols = [list(c) for c in (series.t, series.x, series.y, series.z)]
    digest = hashlib.sha256(" ".join(v.hex() for c in cols for v in c).encode()).hexdigest()
    assert digest == SAMPLES_SHA256[n_crossings]
    radau_sols = [out for kind, _, out in solves if kind == "radau"]
    assert radau_sols and len(radau_sols) < len(solves)
    covered = set()
    for sol in radau_sols:
        i = cols[0].index(sol.t[0])  # a solve after a jump starts at the jump's last sample
        run = [c[i : i + len(sol.t)] for c in cols]
        assert run == [sol.t, *map(list, zip(*sol.y))]
        covered.update(range(i, i + len(sol.t)))
    samples = set(zip(*cols))
    for kind, _, out in solves:
        if kind == "dop853":
            xs, ends, _ = out
            assert {(t, x, y, z) for x, (t, y, z) in zip(xs, ends)} <= samples
    assert len(covered) < len(series)


def test_integrate_full_stops_at_its_budget(params_1_1, monkeypatch):
    # more crossings than the budget holds: the last Radau solve ends at max_slow_time, then NotPeriodic with the
    # partial series, whose counters are the sums over the solves
    solves = _record_solves(monkeypatch)
    cfg = SimConfig(eps=1e-5, delta=1e-2, max_slow_time=1.0)
    with pytest.raises(NotPeriodic, match=r"of 50 section crossings within 1 slow-time units") as exc:
        integrate_full(params_1_1, cfg, n_crossings=50)
    series = exc.value.series
    assert series.t[-1] == cfg.max_slow_time
    kind, _, last = solves[-1]
    assert kind == "radau" and last.t[-1] == cfg.max_slow_time
    radau_stats, jump_stats, crossing_times = SolverStats(), SolverStats(), []
    for kind, _, out in solves:
        if kind == "radau":
            radau_stats += out.stats
            crossing_times += [t for t, *_ in out.crossings]
        else:
            xs, ends, st = out
            jump_stats += st
            crossing_times += [t for x, (t, _, _) in zip(xs, ends) if x == 0.5]
    assert (series.solver_stats, series.jump_stats) == (radau_stats, jump_stats)
    assert [t for t, *_ in series.crossing_states] == sorted(crossing_times)
    assert 0 < len(series.crossing_states) < 50


def test_budget_ending_mid_jump_ends_at_it(params_1_1, monkeypatch):
    # a leg that would end past the budget is dropped, and Radau finishes the run from its start
    solves = _record_solves(monkeypatch)
    cfg = SimConfig(eps=1e-5, delta=1e-2, max_slow_time=1.0)
    integrate_full(params_1_1, cfg)
    t_from, t_to = next((args[2][0], out[1][-1][0]) for kind, args, out in solves if kind == "dop853")
    solves.clear()
    budget = 0.5 * (t_from + t_to)
    series = integrate_full(params_1_1, SimConfig(eps=1e-5, delta=1e-2, max_slow_time=budget))
    assert series.t[-1] == budget
    (kind, args, sol), (last_kind, last_args, last) = solves[-2:]
    assert kind == "dop853" and sol[1][-1][0] > budget
    assert last_kind == "radau" and last_args[2] == t_from and last.t[-1] == budget


def test_budget_ending_after_the_section_counts_its_crossing_once(fixed_rho):
    # the first crossing is a jump's leg end at the section; the budget drops the next leg, so Radau finishes the run
    # from the section itself, which is not a crossing: x must fall from strictly above it
    params = synthesize(PamCoefficients(0.3, 7.0, 0.9, -2.0), fixed_rho)
    t_c = 0.19868161648097665
    with pytest.raises(NotPeriodic, match=r"^only 1 of 2 section crossings within 0\.199 slow-time units$") as exc:
        integrate_full(params, SimConfig(max_slow_time=t_c + 1e-8), n_crossings=2)
    assert [c[:2] for c in exc.value.series.crossing_states] == [(t_c, 0.5)]


def test_radau_locates_a_crossing_inside_integrate_full(fixed_rho, monkeypatch):
    # a start just above the section, within theta of the middle sheet: Radau falls through x = 0.5 before any jump
    solves = _record_solves(monkeypatch)
    params = synthesize(PamCoefficients(0.3, 7.0, 0.9, -2.0), fixed_rho)
    cfg = SimConfig(initial_state=(0.5001, eval_F(0.5001, 0.0) - 1e-6, 0.0))
    series = integrate_full(params, cfg, n_crossings=1)
    (kind, _, sol), = solves
    crossing = series.crossing_states[0]
    assert kind == "radau" and (sol.t[-1], *sol.y[-1]) == crossing  # the terminal crossing ends the solve
    assert [v.hex() for v in crossing] == [
        "0x1.52481fc17e68fp-21", "0x1.000000000005cp-1", "-0x1.a85c57cda387ap-3", "0x1.0d9e46e5562fbp-39"]


@pytest.mark.parametrize("row", [ROW_1_1, PamCoefficients(0.3, 7.0, 0.9, -2.0)], ids=["1^1", "1^3"])
def test_every_jump_leg_has_length(fixed_rho, monkeypatch, row):
    # legs end at folds, at the section and at exits, and none starts where it ends
    solves = _record_solves(monkeypatch)
    integrate_full(synthesize(row, fixed_rho), SimConfig(eps=1e-6, delta=5e-3, max_slow_time=20.0), n_crossings=6)
    legs = [(args[1], args[3]) for kind, args, _ in solves if kind == "dop853"]
    assert len(legs) > 10 and all(x_to != x_from for x_from, x_to in legs)
    ends = {x_to for _, x_to in legs}
    assert 0.5 in ends and any(abs(x - fold) < 1e-3 for x in ends for fold in (-2.0, 0.0, 1.0))


def test_folds_are_the_sorted_roots_of_Fx():
    # F_x(x, z) = x (x + 1 + z/16) (x + 2) (x - 1) R4(x): for any z each fold is a root to rounding, and
    # x2(z) = -1 - z/16 meets the fold at -2, 0 or 1 at z = 16, -16 or -32
    meeting = (16.0, -16.0, -32.0)
    for z in [-60.0 + 0.01 * k for k in range(12001)] + [9.99, 10.0, *meeting, -39.90000000000002]:
        folds = _folds(z)
        assert len(folds) == 6 and folds == sorted(folds), z
        for x in folds:
            terms = sum(abs(k * (c + d * z) * x ** (k - 1)) for k, c, d in _KCD)
            assert abs(eval_Fx(x, z)) <= 4 * sys.float_info.epsilon * terms, (z, x)
        assert len(set(folds)) == (5 if z in meeting else 6), z


def test_jump_at_large_z_keeps_time_increasing(params_1_1):
    # at z = 10 the first leg from x = -1.2 heads left for x2(z) = -1.625, so t keeps increasing up to the budget
    cfg = SimConfig(eps=1e-5, delta=1e-2, max_slow_time=2.0, initial_state=(-1.2, eval_F(-1.2, 10.0) - 0.2, 10.0))
    series = integrate_full(params_1_1, cfg)
    assert series.t[-1] == 2.0 and all(a < b for a, b in zip(series.t, series.t[1:]))
    assert (series.solver_stats.steps, series.jump_stats.steps) == (304, 83)


def test_jump_far_below_z_minus_16_keeps_time_increasing(params_1_1, monkeypatch):
    # at z = -39.9, x2(z) lies right of 1, and the fast drift of z moves g = y - F(x, z) to 0 inside a leg, before
    # the exit that the leg's starting y and z place: the x-solve ends where the running gap falls to theta / 2
    solves = _record_solves(monkeypatch)
    z = -39.90000000000002
    cfg = SimConfig(eps=1e-5, delta=1e-2, initial_state=(-1.2, eval_F(-1.2, z) - 0.2, z))
    series = integrate_full(params_1_1, cfg)
    assert series.t[-1] == cfg.max_slow_time and all(a < b for a, b in zip(series.t, series.t[1:]))
    theta = mmopam.simulate.JUMP_GAP * cfg.eps ** (2 / 3)
    legs = [(args[3], *out[:2]) for kind, args, out in solves if kind == "dop853"]
    stopped = [(xs[-1], ends[-1]) for x_to, xs, ends in legs if xs[-1] != x_to]
    assert stopped and all(abs(y - eval_F(x, zv)) < 0.5 * theta for x, (_, y, zv) in stopped)


@pytest.mark.parametrize("fold", [0.0, 1.0], ids=["x3", "x4"])
def test_fold_passage_in_x_matches_a_tight_radau_reference(fixed_rho, monkeypatch, fold):
    # the run enters the passage from its Radau sample in the band before the fold; on the leg it ran on from the
    # fold, the first x-step end (x_k, t, y, z) past |g| = theta matches Radau at rtol 1e-12 from that sample, whose
    # crossing of x = x_k is located on its dense output, in (t, y, z) within 1e-12
    solves = _record_solves(monkeypatch)
    params = synthesize(PamCoefficients(0.3, 7.0, 0.9, -2.0), fixed_rho)
    cfg = SimConfig()
    integrate_full(params, cfg, n_crossings=3)
    monkeypatch.undo()
    band = mmopam.simulate.FOLD_BAND * cfg.eps ** (1 / 3)
    theta = mmopam.simulate.JUMP_GAP * cfg.eps ** (2 / 3)
    legs = [(args, out) for kind, args, out in solves if kind == "dop853"]
    i = next(i for i, (args, _) in enumerate(legs) if args[3] == fold and 0.0 < abs(fold - args[1]) < band)
    (_, x0, state, *_), ((_, x_from, _, x_to, *_), (xs, ends, _)) = legs[i][0], legs[i + 1]
    assert x_from == fold and x_to != fold
    k = next(k for k, (xv, (_, yv, zv)) in enumerate(zip(xs, ends)) if abs(yv - eval_F(xv, zv)) > theta)
    assert 2.0 < abs(xs[k] - fold) / band < 3.5  # just past the inner region
    # the reference solves u = m x, which falls along the leg, so that its section event locates x = x_k
    fld, m = params.field, -1.0 if x_to > fold else 1.0

    def rhs(t, s, *args):
        f0, f1, f2 = fld.rhs(t, (m * s[0], s[1], s[2]), *args)
        return m * f0, f1, f2

    def jac(t, s, *args):
        (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = fld.jac(t, (m * s[0], s[1], s[2]), *args)
        return (j00, m * j01, m * j02), (m * j10, j11, j12), (m * j20, j21, j22)

    ref = radau.solve(rhs, jac, state[0], (m * x0, *state[1:]), state[0] + 1.0, 1e-12, 1e-14,
                      args=(cfg.eps, cfg.delta), section=m * xs[k], terminal=1)
    t_ref, _, y_ref, z_ref = ref.crossings[0]
    assert max(abs(a - b) for a, b in zip(ends[k], (t_ref, y_ref, z_ref))) < 1e-12


def test_canard_start_near_x3_completes(fixed_rho, monkeypatch):
    # a start on the repelling middle sheet, half a band right of x3, heading for it: the passage's gap does not
    # grow, so its x-solve hands back to Radau before the fold, and the run goes on
    solves = _record_solves(monkeypatch)
    params = synthesize(PamCoefficients(0.3, 7.0, 0.9, -2.0), fixed_rho)
    band = mmopam.simulate.FOLD_BAND * SimConfig.eps ** (1 / 3)
    x0 = 0.5 * band
    cfg = SimConfig(max_slow_time=1.0, initial_state=(x0, eval_F(x0, 0.0) - 1e-5, 0.0))
    series = integrate_full(params, cfg)
    assert series.t[-1] == cfg.max_slow_time and all(a < b for a, b in zip(series.t, series.t[1:]))
    # the first x-solve is the approach to x3 from inside its band, and it ends before the fold
    (_, x_from, _, x_to, *_), (xs, _, _) = next((args, out) for kind, args, out in solves if kind == "dop853")
    assert x_to == 0.0 and 0.0 < x_from < band and 0.0 < xs[-1] < x_from


def test_start_in_the_band_moving_toward_x4_completes(fixed_rho, monkeypatch):
    # on the attracting sheet right of x4, half a band from it: Radau's first step end hands the passage to x
    solves = _record_solves(monkeypatch)
    params = synthesize(PamCoefficients(0.3, 7.0, 0.9, -2.0), fixed_rho)
    band = mmopam.simulate.FOLD_BAND * SimConfig.eps ** (1 / 3)
    x0 = 1.0 + 0.5 * band
    cfg = SimConfig(max_slow_time=1.0, initial_state=(x0, eval_F(x0, 0.0) - 1e-6, 0.0))
    series = integrate_full(params, cfg)
    assert series.t[-1] == cfg.max_slow_time and all(a < b for a, b in zip(series.t, series.t[1:]))
    (kind, _, first), (next_kind, args, _) = solves[:2]
    assert kind == "radau" and first.stats.steps == 1
    assert next_kind == "dop853" and (args[1], args[3]) == (first.y[-1][0], 1.0)  # from the step end to the fold


def test_start_in_the_band_moving_away_from_x4_keeps_radau(fixed_rho, monkeypatch):
    # the same start above the sheet moves right, away from x4: Radau's step ends in the band do not end its solve
    # until the run turns back toward the fold
    solves = _record_solves(monkeypatch)
    params = synthesize(PamCoefficients(0.3, 7.0, 0.9, -2.0), fixed_rho)
    band = mmopam.simulate.FOLD_BAND * SimConfig.eps ** (1 / 3)
    x0 = 1.0 + 0.5 * band
    cfg = SimConfig(max_slow_time=1.0, initial_state=(x0, eval_F(x0, 0.0) + 1e-5, 0.0))
    integrate_full(params, cfg)
    kind, _, first = solves[0]
    assert kind == "radau" and first.stats.steps > 1
    rhs = params.field.rhs
    away = [x for t, (x, y, z) in zip(first.t[1:-1], first.y[1:-1])
            if x - 1.0 < band and rhs(t, (x, y, z), cfg.eps, cfg.delta)[0] > 0.0]
    assert away


def test_x_solve_fails_at_a_pole_of_rho(fixed_rho, monkeypatch):
    # rho's poles do not cancel in G = (kappa + lambda P) u rho J or H = rho u J, so z' is singular on the planes
    # x = -4.69647 and -2.91967, both leg ends: a jump rising from x = -3.2 fails in its x-solve at the second
    params = synthesize(PamCoefficients(0.3, 7.0, 0.9, -2.0), fixed_rho)
    cfg = SimConfig(eps=1e-6, delta=1e-2, initial_state=(-3.2, eval_F(-3.2, 0.0) + 0.5, 0.0))
    failed, solve = [], dop853.solve

    def recording(fun, x, state, x_end, *args, **kwargs):
        try:
            return solve(fun, x, state, x_end, *args, **kwargs)
        except StepSizeUnderflow:
            failed.append(x_end)
            raise

    monkeypatch.setattr(mmopam.simulate.dop853, "solve", recording)
    with pytest.raises(StepSizeUnderflow, match=r"^integrator failed at -2\.91967: "):
        integrate_full(params, cfg)
    pole = _folds(0.0)[1]
    assert failed == [pole] and round(pole, 5) == -2.91967


def test_integrate_full_leaves_no_cyclic_garbage(params_1_1):
    # the samples are freed by reference counting alone, so a run's columns never wait for the cyclic collector
    cfg = SimConfig(eps=1e-5, delta=1e-2, max_slow_time=1.0)
    integrate_full(params_1_1, cfg)
    gc.collect()
    gc.disable()
    try:
        integrate_full(params_1_1, cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.slow
def test_quadratic_rho_criterion_7_signatures():
    # criterion 7's runs with the quadratic rho (p = q = 1): each row's full-system attractor is the map's word
    results = {}
    for label in ("1^1", "1^3", "3^1"):
        row = next(r for r in SYNTHESIS_BENCHMARKS if r.signature == label)
        params = synthesize(row.pam, RhoSpec("quadratic", p=1.0, q=1.0))
        period = Signature.from_string(label).period
        series = integrate_full(params, SimConfig(eps=1e-7, delta=5e-3, max_slow_time=400.0),
                                n_crossings=5 + 4 * period + 2)
        results[label] = str(classify_series(series, compute_geometry(params)))
    assert results == {"1^1": "1^1", "1^3": "1^3", "3^1": "3^1"}
