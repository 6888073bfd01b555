import gc
import math

import numpy as np
import pytest

import mmopam.simulate
from mmopam import radau
from mmopam.errors import DiscontinuityHit, DomainError, NotPeriodic
from mmopam.family import CanonicalParams, compute_geometry, eval_F
from mmopam.pam import PamCoefficients, iterate_orbit
from mmopam.segments import lao_branch, sao_branch
from mmopam.simulate import (
    SimConfig,
    TimeSeries,
    canard_hole_radius,
    classify_series,
    hybrid_simulate,
    integrate_full,
    visual_rescale,
)
from mmopam.synthesis import synthesize

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

        def capture(*args, event, direction, **kwargs):
            seen.update(event=event, direction=direction)
            raise Stop

        monkeypatch.setattr(mmopam.simulate.radau, "solve", capture)
        with pytest.raises(Stop):
            integrate_full(params_1_1, SimConfig(eps=1e-5, delta=1e-2))
        # the plane x = 0.5, crossed in decreasing x
        assert math.isclose(seen["event"](0.0, (0.5, 0.0, 0.0)), 0.0, abs_tol=1e-9)
        assert seen["direction"] == -1


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
        (sa1, sa2, sa3_head, sa3), _ = mmopam.simulate._hybrid_legs(params, 0.0, geom)
        for legs, closed in (((sa1, sa3_head, sa3), lao_branch(params, geom)), ((sa2, sa3), sao_branch(params, geom))):
            A, B, C, D = 1.0, 0.0, 0.0, 1.0
            for (a, b, c, d), _ in legs:
                A, B, C, D = a * A + b * C, a * B + b * D, c * A + d * C, c * B + d * D
            assert C == 0.0 and D == 1.0
            assert math.isclose(A, closed.slope, rel_tol=1e-10)
            assert math.isclose(B, closed.offset, rel_tol=1e-10)

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


def _numpy_densify(sol):
    """The numpy sampler integrate_full used before its columns became array('d'): a global pass
    that inserts the midpoints of every gap above DENSIFY_DX, at most 24 times."""
    ends = np.array(sol.t)
    cubics = np.array(sol.cubics)

    def at(t, components=(0, 1, 2)):
        c = cubics[np.clip(np.searchsorted(ends, t, side="left") - 1, 0, len(cubics) - 1)]
        x = (t - c[:, 0]) / c[:, 1]
        x2 = x * x
        x3 = x2 * x
        return np.array([c[:, 5 + 3 * j] * x + c[:, 6 + 3 * j] * x2 + c[:, 7 + 3 * j] * x3 + c[:, 2 + j] for j in components])

    t = ends
    for _ in range(24):
        x = at(t, (0,))[0]
        gaps = np.abs(np.diff(x)) > mmopam.simulate.DENSIFY_DX
        if not gaps.any():
            break
        mids = 0.5 * (t[:-1][gaps] + t[1:][gaps])
        t = np.unique(np.concatenate([t, mids]))
    return t, at(t)


@pytest.mark.parametrize("n_crossings, n_solves", [(None, 1), (4, 4)], ids=["one-solve", "extension-chunks"])
def test_samples_equal_the_numpy_sampler(params_1_1, monkeypatch, n_crossings, n_solves):
    solves = []
    solve = radau.solve

    def recording(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(mmopam.simulate.radau, "solve", recording)
    cfg = SimConfig(eps=1e-5, delta=1e-2, max_slow_time=1.0)
    series = integrate_full(params_1_1, cfg, n_crossings=n_crossings)
    assert len(solves) == n_solves
    parts = [_numpy_densify(sol) for sol in solves]
    t = np.concatenate([tt for tt, _ in parts])
    y = np.concatenate([yy for _, yy in parts], axis=1)
    keep = np.concatenate([[True], np.diff(t) > 0.0])  # one sample where two chunks meet
    want = [t[keep].tolist(), *(row.tolist() for row in y[:, keep])]
    assert [list(c) for c in (series.t, series.x, series.y, series.z)] == want


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
