"""Dynamical validation: stiff full-system integration and a hybrid reduced simulator.

Three ways of producing the same combinatorics are implemented here:

* :func:`integrate_full` integrates the slow-time system
  eps*x' = y - F(x, z), y' = J(x), z' = delta*G(x) + z*H(x)
  with the package's own Radau IIA(5) solver (:mod:`mmopam.radau`) and an
  analytic Jacobian on the sheets, and each fast jump, with the passage of the
  fold x1, x3 or x4 that starts it, with x as the independent variable with the
  package's own DOP853 (:mod:`mmopam.dop853`); the fold x2, where the fiber from
  x4 lands or passes on, stays with Radau. Poincare-section crossings come from
  jump leg ends and, rarely, Radau steps.
* :func:`hybrid_simulate` alternates exact reduced-flow legs on the attracting
  sheets with instantaneous fold-to-sheet jumps. Each leg is a Moebius map in
  Z, solved once per call as a fundamental matrix with the package's own
  DOP853 (:mod:`mmopam.dop853`); at delta = 0 the maps are the piecewise
  affine map to integrator tolerance.
* :func:`classify_series` turns a simulated time series into a signature by
  thresholding the minimum x of each inter-crossing cycle.
"""

from __future__ import annotations

import csv
import math
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from functools import partial
from itertools import islice

from . import dop853, radau
from .errors import DiscontinuityHit, DomainError, FrozenValue, NonFiniteState, NotPeriodic, Value
from .family import _FOLDS, _RHO_DEN, CanonicalParams, ManifoldGeometry, _horner, compute_geometry, eval_F
from .pam import DISCONTINUITY_GUARD, Signature, _detect_tail_period, signature_from_signs


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call.

    No code in the package calls it: both simulators run on the package's
    own solvers. It stays because the benchmark tracer in ``perfbench``
    looks it up here and rebinds it on every traced run.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


# The full system and the hybrid legs are solved to these tolerances, and a period
# of the hybrid returns is accepted once returns p apart agree within HYBRID_PERIOD_TOL.
# A fast jump's x-solve changes its state (t, y, z) by about eps, so it is solved to
# JUMP_RTOL and JUMP_ATOL, tighter relative to the state than FULL_RTOL and FULL_ATOL.
FULL_RTOL = 1e-8
FULL_ATOL = 1e-10
JUMP_RTOL = 1e-11
JUMP_ATOL = 1e-13
HYBRID_RTOL = 1e-11
HYBRID_ATOL = 1e-13
HYBRID_PERIOD_TOL = 1e-6


class SimConfig(FrozenValue):
    """Integration configuration for the full system, solved to FULL_RTOL and FULL_ATOL.

    ``max_slow_time`` is the run's slow-time budget: :func:`integrate_full`
    never integrates past it. ``initial_state`` of None picks the default
    start on the rightmost attracting sheet: x = 1.3, y = F(1.3, 0), z = -delta/2.
    """

    _fields = ("eps", "delta", "max_slow_time", "initial_state")
    eps, delta, max_slow_time, initial_state = 1e-7, 5e-3, 40.0, None  # the defaults, also read on the class

    def __init__(self, eps: float = eps, delta: float = delta, max_slow_time: float = max_slow_time,
                 initial_state: tuple[float, float, float] | None = initial_state):
        if not (0.0 < eps <= 1e-3):
            raise DomainError(f"eps must lie in (0, 1e-3], got {eps}")
        if not (0.0 < delta <= 1e-1):
            raise DomainError(f"delta must lie in (0, 1e-1], got {delta}")
        if not (0.0 < max_slow_time < math.inf):
            raise DomainError(f"max_slow_time must be positive and finite, got {max_slow_time}")
        if initial_state is not None and not (len(initial_state) == 3 and all(map(math.isfinite, initial_state))):
            raise DomainError(f"initial_state must be None or three finite numbers, got {initial_state!r}")
        vars(self).update(eps=eps, delta=delta, max_slow_time=max_slow_time, initial_state=initial_state)

    def resolve_initial_state(self) -> tuple[float, float, float]:
        if self.initial_state is not None:
            return self.initial_state
        x0 = 1.3
        return (x0, float(eval_F(x0, 0.0)), -self.delta / 2.0)


class TimeSeries(Value):
    """Sampled trajectory with section-crossing bookkeeping.

    The columns are float sequences (``array('d')`` from :func:`integrate_full`);
    ``crossing_states`` holds the (t, x, y, z) of each crossing and defaults to
    a new empty list. ``solver_stats`` and ``jump_stats`` are the counters of
    :func:`integrate_full`'s Radau solves and of its x-solves.
    """

    _fields = ("t", "x", "y", "z", "crossing_states", "solver_stats", "jump_stats")
    solver_stats = jump_stats = None

    def __init__(self, t: Sequence[float], x: Sequence[float], y: Sequence[float], z: Sequence[float],
                 crossing_states: list[tuple[float, float, float, float]] | None = None,
                 solver_stats: radau.SolverStats | None = None, jump_stats: radau.SolverStats | None = None):
        if not all(a < b for a, b in zip(t, islice(t, 1, None))):
            raise DomainError("sample times must be strictly increasing")
        self.t, self.x, self.y, self.z = t, x, y, z
        self.crossing_states = [] if crossing_states is None else crossing_states
        self.solver_stats, self.jump_stats = solver_stats, jump_stats

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y", "z"])
            for row in zip(self.t, self.x, self.y, self.z):
                writer.writerow([repr(float(v)) for v in row])


# A fast jump is solved in x once the gap |y - F(x, z)| exceeds JUMP_GAP eps^(2/3), the gap
# scale of the fold layer, and hands back to Radau where it falls to half that. A passage of
# the fold x1, x3 or x4 is solved in x from FOLD_BAND eps^(1/3) before it, the width of the
# fold's inner region. Jump samples lie at most SAMPLE_DX apart in x. The folds of F(., z)
# that stay put as z moves are x1, x3, x4 and the two real roots of R4 = 1/rho of the fixed
# rational rho, in [-5, -4] and [-3, -2.5].
JUMP_GAP = 10.0
FOLD_BAND = 1.0
SAMPLE_DX = 0.05
_X1, _X2, _X3, _X4 = map(float, _FOLDS)
_PASSAGE_FOLDS = (_X1, _X3, _X4)
_STILL_FOLDS = tuple(radau._brentq(partial(_horner, _RHO_DEN), a, b, 4 * radau.EPS, 4 * radau.EPS)
                     for a, b in ((-5.0, -4.0), (-3.0, -2.5))) + _PASSAGE_FOLDS


def integrate_full(params: CanonicalParams, cfg: SimConfig, n_crossings: int | None = None) -> TimeSeries:
    """Integrate the slow-time system from t = 0: Radau on the sheets, DOP853 in x over fold passages and jumps.

    The section is the plane x = (x3 + x4) / 2 between the two rightmost folds, crossed
    in decreasing x: the fast fall after an SAO jump crosses it once per oscillation.
    Both solvers count a crossing by one rule, x falling from strictly above the section
    to at or below it, so a restart on the section is not a second crossing.
    The run alternates two solvers within the budget ``cfg.max_slow_time``:

    * :func:`mmopam.radau.solve` in slow time, its rare section crossings located on the
      dense output of the step that crosses. It hands over at the first step end where
      the gap g = y - F(x, z) exceeds theta = JUMP_GAP eps^(2/3) in magnitude, a fast
      jump, or that lies within FOLD_BAND eps^(1/3) of the fold x1 = -2, x3 = 0 or x4 = 1
      with x moving toward it, a fold passage: the inner region of a regular fold is
      O(eps^(1/3)) wide, and in x its stiffness times its width is O(1), so an explicit
      solver crosses it in a bounded number of steps. The fold x2 = -1 - z/16 is left to
      Radau: it moves with z, and there the fast fiber from x4 lands or passes on, the
      landing decision, in about two Radau steps.
    * :func:`mmopam.dop853.solve` on :attr:`Field.layer`, the same field with x as the
      independent variable, which is not stiff while g stays away from 0. It moves x in
      the direction d = sign(g) in legs, each ending at the next fold of F(., z) (the
      roots of F_x(x, z) = x (x + 1 + z/16) (x + 2) (x - 1) R4(x), R4 = 1/rho of the fixed
      rational rho, between which F is monotone) or, in decreasing x, at the section. It
      hands back to Radau at the exit, the first x-step end where the running gap d g
      falls below half of theta, or, on a leg that starts with d g below theta, below half
      of that (a passage whose gap does not grow after its fold hands back); beyond the
      last fold the leg ends at the latest where the gap with the leg's starting y and z
      falls to that level. It also hands back at a fold where |g| < theta, except at the
      fold a passage entered by, through which it carries on into the jump. Exiting at
      half the entry gap keeps a restart from handing over again at once. The section is
      a leg end with no hand-back check, so its crossing is the step end (t, x_sec, y, z),
      with no root finding. A leg that would end past the budget is dropped, and Radau
      finishes the run from its start with neither hand-over.

    With ``n_crossings`` (at least 1), the run stops at that crossing if the budget holds
    it. Each Radau step end and each x-step end is a sample, and an x-step longer than
    SAMPLE_DX gets evenly spaced samples from its cubic Hermite interpolant in x, its end
    slopes limited so that t stays monotone. The
    series carries the Radau counters, summed, as ``solver_stats`` and the x-solves' as
    ``jump_stats``. Too few crossings raise NotPeriodic, whose ``series`` is what was
    integrated.
    """
    if n_crossings is not None and n_crossings < 1:
        raise DomainError(f"n_crossings must be positive, got {n_crossings}")
    geom = compute_geometry(params)
    x_sec = 0.5 * (geom.x3 + geom.x4)
    fld = params.field
    args = cfg.eps, cfg.delta
    theta = JUMP_GAP * cfg.eps ** (2.0 / 3.0)
    t_bound = cfg.max_slow_time
    cols = ts, xs, ys, zs = array("d"), array("d"), array("d"), array("d")
    crossings: list[tuple[float, float, float, float]] = []
    stats, jump_stats = radau.SolverStats(), radau.SolverStats()

    band = FOLD_BAND * cfg.eps ** (1.0 / 3.0)
    t, state, finish = 0.0, cfg.resolve_initial_state(), False
    while len(crossings) != n_crossings:
        terminal = None if n_crossings is None else n_crossings - len(crossings)
        sol = radau.solve(fld.rhs, fld.jac, t, state, t_bound, FULL_RTOL, FULL_ATOL, args=args, section=x_sec,
                          terminal=terminal, stop=math.inf if finish else theta / cfg.eps,
                          approach=() if finish else _PASSAGE_FOLDS, band=band)
        stats += sol.stats
        for tv, (xv, yv, zv) in zip(sol.t, sol.y):
            if not ts or tv > ts[-1]:  # skips t0 after a jump and a terminal root at the start of its step
                ts.append(tv)
                xs.append(xv)
                ys.append(yv)
                zs.append(zv)
        crossings += sol.crossings
        t = sol.t[-1]
        if t >= t_bound or len(crossings) == n_crossings:
            break
        t, state, finish = _jump(fld, args, theta, band, x_sec, t_bound, t, sol.y[-1], cols, crossings,
                                 n_crossings, jump_stats)
    series = TimeSeries(*cols, crossing_states=crossings, solver_stats=stats, jump_stats=jump_stats)
    if n_crossings is not None and len(crossings) < n_crossings:
        raise NotPeriodic(
            f"only {len(crossings)} of {n_crossings} section crossings within {t:.3g} slow-time units",
            series=series,
        )
    return series


def _jump(fld, args, theta, band, x_sec, t_bound, t, state, cols, crossings, n_crossings, stats):
    """The x-solve legs of one jump or fold passage from (t, state); returns Radau's (t, state, finish).

    Appends the samples and crossings and adds the DOP853 counters to ``stats``.
    A leg that would end at or past ``t_bound`` is dropped, and ``finish`` lets
    Radau finish the run from its start. The leg ends are the folds ahead, the
    roots of F_x(x, z) = x (x + 1 + z/16) (x + 2) (x - 1) R4(x): -2, 0, 1,
    -1 - z/16 and the two real roots of R4, so at any z, F(., z) is monotone on
    each leg; and, when x falls, the section. Where |y - F(x, z)| <= theta the
    run is a fold passage, entered at the fold x1, x3 or x4 within ``band``
    ahead, which gets no hand-back test. A leg ends early where the running
    gap d (y - F) falls below ``level``, half of theta or of the smaller gap
    at the leg's start, and the last leg at the latest where the gap with the
    leg's starting y and z falls to it.
    """
    x, y, z = state
    g = y - eval_F(x, z)
    d = 1.0 if g > 0.0 else -1.0
    entry = None if abs(g) > theta else next((xf for xf in _PASSAGE_FOLDS if 0.0 < d * (xf - x) < band), None)
    folds = _folds(z)
    # a leg to each fold and, falling, to the section ahead in the direction d; the last leg ends at its exit
    ahead = folds + [x_sec] if d < 0.0 else folds
    legs = sorted({xb for xb in ahead if d * (xb - x) > 0.0}, reverse=d < 0.0)
    for xb in legs + [None]:
        level = 0.5 * min(theta, d * (y - eval_F(x, z)))
        at_exit = xb is None
        if at_exit:  # beyond the last fold F is monotone and unbounded, so the frozen exit lies within reach
            def gap(xv, y=y, z=z, level=level):
                return d * (y - eval_F(xv, z)) - level

            xb = x + d
            while gap(xb) > 0.0:
                xb += xb - x
            xb = radau._brentq(gap, x, xb, 4 * radau.EPS, 4 * radau.EPS)
        xs, ends, st = dop853.solve(fld.layer, x, (t, y, z), xb, JUMP_RTOL, JUMP_ATOL, args=args, stop=args[0] / level)
        stats += st
        if not ends[-1][0] < t_bound:
            return t, (x, y, z), True
        _sample_leg(fld.layer, args, x, (t, y, z), xs, ends, cols)
        x, (t, y, z) = xs[-1], ends[-1]
        if x == x_sec and d < 0.0:
            crossings.append((t, x, y, z))
            if len(crossings) == n_crossings:
                return t, (x, y, z), True
        if at_exit or x != xb or (x != entry and x in folds and abs(y - eval_F(x, z)) < theta):
            return t, (x, y, z), False


def _folds(z):
    """The folds of F(., z), sorted: the roots of F_x(., z), with x2(z) = x2 - z/16."""
    return sorted(_STILL_FOLDS + (_X2 - z / 16.0,))


def _sample_leg(layer, args, x, state, xs, ends, cols):
    """Append the x-steps' ends from (x, state) as (t, x, y, z) samples, with Hermite samples inside long steps.

    A step longer than SAMPLE_DX gets evenly spaced samples from its cubic
    Hermite interpolant in x, each component's end slopes limited as Fritsch and
    Carlson do (*SIAM J. Numer. Anal.* 17, 1980) so that a monotone component,
    t among them, stays monotone: near a fold the slope at one end of a step
    can exceed the step's secant by orders of magnitude.
    """
    ts, xcol, ys, zs = cols
    for x1, end in zip(xs, ends):
        h = x1 - x
        k = int(abs(h) / SAMPLE_DX) + 1
        if k > 1:
            slopes = [_limited_slopes(a, b, h, ma, mb) for a, b, ma, mb in zip(state, end, layer(x, state, *args),
                                                                             layer(x1, end, *args))]
            for j in range(1, k):
                s = j / k
                h01 = s * s * (3.0 - 2.0 * s)
                h10 = h * s * (1.0 - s) * (1.0 - s)
                h11 = h * s * s * (s - 1.0)
                tv, yv, zv = (a + (b - a) * h01 + ma * h10 + mb * h11 for a, b, (ma, mb) in zip(state, end, slopes))
                ts.append(tv)
                xcol.append(x + s * h)
                ys.append(yv)
                zs.append(zv)
        x, state = x1, end
        ts.append(end[0])
        xcol.append(x1)
        ys.append(end[1])
        zs.append(end[2])


def _limited_slopes(a, b, h, ma, mb):
    """The end slopes (ma, mb) of a cubic from a to b over a step h, limited so the cubic is monotone if a != b."""
    secant = (b - a) / h
    if secant == 0.0:
        return 0.0, 0.0
    ra, rb = max(ma / secant, 0.0), max(mb / secant, 0.0)
    r2 = ra * ra + rb * rb
    scale = secant * (3.0 / math.sqrt(r2) if r2 > 9.0 else 1.0)
    return ra * scale, rb * scale


def canard_hole_radius(eps: float, delta: float) -> float:
    """Half-width in Z of the region around the jump excluded from statistics."""
    return 2.0 * eps ** (1.0 / 3.0) / delta


class HybridResult(Value):
    """Returns Z at the last fold, the tail signature and period, and the DOP853 counters summed over the four legs."""

    _fields = ("returns", "signature", "period", "solver_stats")
    solver_stats = None

    def __init__(self, returns: list[float], signature: Signature | None, period: int | None,
                 solver_stats: radau.SolverStats | None = None):
        self.returns, self.signature, self.period, self.solver_stats = returns, signature, period, solver_stats


def hybrid_simulate(params: CanonicalParams, delta: float, Z0: float, n_returns: int) -> HybridResult:
    """Reduced-flow legs on attracting sheets alternating with fold jumps.

    One return is a passage ending at the rightmost fold, where the sign of Z
    selects the landing sheet of the jump. The rescaled slow variable obeys

        dZ/dx = (alpha Q + beta) (kappa + lambda P + Z) (W + delta Z rho F_xz)

    along each leg, with W = rho * F_x(., 0). This Riccati equation's flow over
    a leg is the Moebius map Z -> (A Z + B) / (C Z + D) whose coefficients are
    the fundamental matrix of its linearisation (:attr:`Field.dPhidx`). Each
    call solves that matrix once per leg with :func:`mmopam.dop853.solve`, at
    HYBRID_RTOL and HYBRID_ATOL, over the passages of ``geom.branches``, the
    Z < 0 branch's S_a3 split at xhat3 so both branches share its tail; the
    solves run ``Field.dPhidx.solver``, the DOP853 solver generated with
    dPhidx's body in its stages. Every return then carries Z through the
    legs of the branch its sign picks. At delta = 0, C = 0 and D = 1, and
    each leg is the exact affine segment map. A denominator C Z + D that
    is not positive at a step end of a leg, or a non-finite result, means the
    solution passes through infinity and raises NonFiniteState. The result
    carries the four solves' counters, summed, as ``solver_stats``.
    """
    if not (0.0 <= delta < math.inf):
        raise DomainError(f"delta must be nonnegative and finite, got {delta}")
    if not math.isfinite(Z0):
        raise DomainError(f"Z0 must be finite, got {Z0}")
    if n_returns < 1:
        raise DomainError("n_returns must be positive")
    geom = compute_geometry(params)
    branches, stats = _hybrid_legs(params, delta, geom)

    Z = float(Z0)
    returns: list[float] = []
    for _ in range(n_returns):
        if abs(Z) <= DISCONTINUITY_GUARD:
            raise DiscontinuityHit(f"hybrid state hit the jump (Z = {Z!r})")
        for (A, B, C, D), denominators in branches[Z > 0.0]:
            for c, d in denominators:
                if not c * Z + d > 0.0:
                    raise NonFiniteState(f"the reduced flow from Z = {Z!r} passes through infinity")
            Z_end = (A * Z + B) / (C * Z + D)
            if not math.isfinite(Z_end):
                raise NonFiniteState(f"the reduced flow from Z = {Z!r} leaves the finite range")
            Z = Z_end
        returns.append(Z)

    period = _detect_tail_period(returns, HYBRID_PERIOD_TOL, max_period=max(1, len(returns) // 4))
    sig = None
    if period is not None:
        sig = signature_from_signs([Z < 0.0 for Z in returns[-period:]])
    return HybridResult(returns, sig, period, stats)


def _hybrid_legs(params: CanonicalParams, delta: float, geom: ManifoldGeometry):
    """The legs of each branch of ``geom.branches``, with S_a3 split at xhat3 so both share its tail, and their counters.

    Each leg is its end matrix (A, B, C, D), solved from the identity, and
    the (C, D) of every accepted step end.
    """
    (sa1, (xhat1, _)), (sa2, sa3) = geom.branches
    dPhidx = params.field.dPhidx
    stats = radau.SolverStats()
    legs = []
    for x_from, x_to in (sa1, sa2, (xhat1, sa3[0]), sa3):
        _, ends, st = dop853.solve(dPhidx, x_from, (1.0, 0.0, 0.0, 1.0), x_to, HYBRID_RTOL, HYBRID_ATOL, args=(delta,))
        stats += st
        legs.append((ends[-1], [(C, D) for _, _, C, D in ends]))
    leg1, leg2, head, tail = legs
    return ((leg1, head, tail), (leg2, tail)), stats


# The classifier skips this many leading crossings as transient, and two crossing states
# recur when they agree within RECURRENCE_TOL times the larger of 1 and their spread.
TRANSIENT_SKIP = 5
RECURRENCE_TOL = 1e-3


def classify_series(series: TimeSeries, geom: ManifoldGeometry) -> Signature:
    """Signature of a periodic series: one symbol per cycle between ``series.crossing_states``.

    A cycle is an LAO when its minimum x dips below the threshold between the
    left jump-landing abscissa and the second fold; otherwise it is an SAO.
    Periodicity is established by near-recurrence of (x, y, z) at crossings
    over at least two full periods; failing that raises NotPeriodic.
    """
    times = [tc for tc, *_ in series.crossing_states]
    states = [(xv, yv, zv) for _, xv, yv, zv in series.crossing_states]
    if len(times) < TRANSIENT_SKIP + 3:
        raise NotPeriodic(f"only {len(times)} section crossings; need at least {TRANSIENT_SKIP + 3}")

    symbols: list[bool] = []
    for ta, tb in zip(times[:-1], times[1:]):
        lo, hi = bisect_left(series.t, ta), bisect_left(series.t, tb)
        if lo >= hi:
            raise NotPeriodic("empty sampling window between section crossings")
        symbols.append(float(min(islice(series.x, lo, hi))) < geom.lao_threshold)

    states = states[: len(symbols)]
    spread = max(max(c) - min(c) for c in zip(*states))
    tol_abs = RECURRENCE_TOL * max(1.0, spread)
    n = len(symbols)

    def recurs(i: int, p: int) -> bool:
        return symbols[i] == symbols[i + p] and max(
            abs(a - b) for a, b in zip(states[i], states[i + p])
        ) <= tol_abs
    # search the trailing window only, so a slowly contracting transient at
    # the front cannot mask an already-converged tail
    for p in range(1, (n - TRANSIENT_SKIP) // 2 + 1):
        window = min(2 * p, n - p - TRANSIENT_SKIP)
        if window < p:
            break
        if all(recurs(i, p) for i in range(n - p - window, n - p)):
            return signature_from_signs(symbols[n - p :])
    raise NotPeriodic("no recurrent crossing pattern over two full periods")


def visual_rescale(series: TimeSeries, delta: float = 1.0) -> TimeSeries:
    """Plotting normalization: x -> (2/7) x, y -> (3/2) y, z -> z/delta."""
    if delta == 0.0:
        raise DomainError("delta must be nonzero for the z rescale")
    return TimeSeries(
        series.t,
        array("d", (v * (2.0 / 7.0) for v in series.x)),
        array("d", (v * 1.5 for v in series.y)),
        array("d", (v / delta for v in series.z)),
        [(t, xv * (2.0 / 7.0), yv * 1.5, zv / delta) for t, xv, yv, zv in series.crossing_states],
        series.solver_stats,
        series.jump_stats,
    )
