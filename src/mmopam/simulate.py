"""Dynamical validation: stiff full-system integration and a hybrid reduced simulator.

Three ways of producing the same combinatorics are implemented here:

* :func:`integrate_full` integrates the slow-time system
  eps*x' = y - F(x, z), y' = J(x), z' = delta*G(x) + z*H(x)
  with the package's own Radau IIA(5) solver (:mod:`mmopam.radau`) and an
  analytic Jacobian, locating Poincare-section crossings as solver event roots.
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
from dataclasses import dataclass, field, replace
from itertools import islice

from . import dop853, radau
from .errors import DiscontinuityHit, DomainError, NonFiniteState, NotPeriodic
from .family import CanonicalParams, ManifoldGeometry, compute_geometry, eval_F
from .pam import DISCONTINUITY_GUARD, Signature, _detect_tail_period, signature_from_signs


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call.

    No code in the package calls it: both simulators run on the package's
    own solvers. It stays because the benchmark tracer in ``perfbench``
    looks it up here and rebinds it on every traced run.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


# Output-point density control: consecutive samples are refined until adjacent
# x values differ by less than this during slow segments.
DENSIFY_DX = 0.05

# The full system and the hybrid legs are solved to these tolerances, and a period
# of the hybrid returns is accepted once returns p apart agree within HYBRID_PERIOD_TOL.
FULL_RTOL = 1e-8
FULL_ATOL = 1e-10
HYBRID_RTOL = 1e-11
HYBRID_ATOL = 1e-13
HYBRID_PERIOD_TOL = 1e-6


@dataclass(frozen=True)
class SimConfig:
    """Integration configuration for the full system, solved to FULL_RTOL and FULL_ATOL.

    ``initial_state`` of None picks the default start on the rightmost
    attracting sheet: x = 1.3, y = F(1.3, 0), z = -delta/2.
    """

    eps: float = 1e-7
    delta: float = 5e-3
    max_slow_time: float = 40.0
    initial_state: tuple[float, float, float] | None = None

    def __post_init__(self):
        if not (0.0 < self.eps <= 1e-3):
            raise DomainError(f"eps must lie in (0, 1e-3], got {self.eps}")
        if not (0.0 < self.delta <= 1e-1):
            raise DomainError(f"delta must lie in (0, 1e-1], got {self.delta}")
        if not (0.0 < self.max_slow_time < math.inf):
            raise DomainError(f"max_slow_time must be positive and finite, got {self.max_slow_time}")
        state = self.initial_state
        if state is not None and not (len(state) == 3 and all(math.isfinite(v) for v in state)):
            raise DomainError(f"initial_state must be None or three finite numbers, got {state!r}")

    def resolve_initial_state(self) -> tuple[float, float, float]:
        if self.initial_state is not None:
            return self.initial_state
        x0 = 1.3
        return (x0, float(eval_F(x0, 0.0)), -self.delta / 2.0)


@dataclass
class TimeSeries:
    """Sampled trajectory with section-crossing bookkeeping.

    The columns are float sequences (``array('d')`` from :func:`integrate_full`);
    ``crossing_states`` holds the (t, x, y, z) of each crossing, a solver event root.
    """

    t: Sequence[float]
    x: Sequence[float]
    y: Sequence[float]
    z: Sequence[float]
    crossing_states: list[tuple[float, float, float, float]] = field(default_factory=list)
    solver_stats: radau.SolverStats | None = None

    def __post_init__(self):
        if not all(a < b for a, b in zip(self.t, islice(self.t, 1, None))):
            raise DomainError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y", "z"])
            for row in zip(self.t, self.x, self.y, self.z):
                writer.writerow([repr(float(v)) for v in row])


def integrate_full(params: CanonicalParams, cfg: SimConfig, n_crossings: int | None = None) -> TimeSeries:
    """Integrate the slow-time system with the Radau IIA(5) solver of :mod:`mmopam.radau`.

    The section is the plane x = (x3 + x4) / 2 between the two rightmost folds, crossed
    in decreasing x: the fast fall after an SAO jump crosses it once per oscillation.
    Stops at ``cfg.max_slow_time`` or, if ``n_crossings`` (at least 1) is given, extends
    the time span (a bounded number of times) until that many section crossings have
    been collected. The returned series carries the solver counters, summed over the
    extensions, as ``solver_stats``. Too few crossings raise NotPeriodic, whose
    ``series`` is what was integrated.
    """
    if n_crossings is not None and n_crossings < 1:
        raise DomainError(f"n_crossings must be positive, got {n_crossings}")
    geom = compute_geometry(params)
    x_sec = 0.5 * (geom.x3 + geom.x4)
    fld = params.field

    def cross(t, s):
        return s[0] - x_sec

    state = cfg.resolve_initial_state()
    t0 = 0.0
    span = cfg.max_slow_time
    cols = (array("d"), array("d"), array("d"), array("d"))
    crossings: list[tuple[float, float, float, float]] = []
    stats = radau.SolverStats()
    max_extensions = 6 if n_crossings is not None else 0

    for attempt in range(max_extensions + 1):
        sol = radau.solve(
            fld.rhs,
            fld.jac,
            t0,
            state,
            t0 + span,
            FULL_RTOL,
            FULL_ATOL,
            args=(cfg.eps, cfg.delta),
            event=cross,
            direction=-1,
            terminal=None if n_crossings is None else n_crossings - len(crossings),
        )
        stats += sol.stats
        _densify(sol, cols)
        crossings.extend((te, *se) for te, se in zip(sol.t_events, sol.y_events))
        if n_crossings is None or len(crossings) >= n_crossings:
            break
        t0 = sol.t[-1]
        state = sol.y[-1]
    series = TimeSeries(*cols, crossing_states=crossings, solver_stats=stats)
    if n_crossings is not None and len(crossings) < n_crossings:
        raise NotPeriodic(
            f"only {len(crossings)} of {n_crossings} section crossings within {t0:.3g} slow-time units",
            series=series,
        )
    return series


def _densify(sol: radau.RadauSolution, cols: tuple[array, array, array, array]) -> None:
    """Append one solve's samples to the columns (t, x, y, z).

    The samples are the step ends, each from the step that ends there as ``OdeSolution``
    does, and the bisection points of each step's cubic while adjacent x values differ by
    more than DENSIFY_DX, at most 24 levels deep. A sample whose t does not exceed the last
    one is skipped, so the junction of two extension chunks appears once.
    """
    a = sol.t[0]
    sa = radau.dense_eval(sol.cubics[0], a)
    _push(cols, a, sa)
    for cubic, b in zip(sol.cubics, islice(sol.t, 1, None)):
        sb = radau.dense_eval(cubic, b)
        _refine(cols, cubic, a, sa, b, sb, 24)
        _push(cols, b, sb)
        a, sa = b, sb


# Module-level, not a closure in _densify: a closure that calls itself is a reference
# cycle, which would keep each run's columns alive until the cyclic collector runs.
def _refine(cols, cubic, a: float, sa, b: float, sb, depth: int) -> None:
    """Push the bisection points strictly between samples (a, sa) and (b, sb), in order."""
    if depth and abs(sb[0] - sa[0]) > DENSIFY_DX:
        m = 0.5 * (a + b)
        sm = radau.dense_eval(cubic, m)
        _refine(cols, cubic, a, sa, m, sm, depth - 1)
        _push(cols, m, sm)
        _refine(cols, cubic, m, sm, b, sb, depth - 1)


def _push(cols, t: float, s: tuple[float, float, float]) -> None:
    """Append the sample (t, *s) unless t does not exceed the last sample time."""
    ts, xs, ys, zs = cols
    if not ts or t > ts[-1]:
        ts.append(t)
        xs.append(s[0])
        ys.append(s[1])
        zs.append(s[2])


def canard_hole_radius(eps: float, delta: float) -> float:
    """Half-width in Z of the region around the jump excluded from statistics."""
    return 2.0 * eps ** (1.0 / 3.0) / delta


@dataclass
class HybridResult:
    """Returns Z at the last fold, the tail signature and period, and the DOP853 counters summed over the four legs."""

    returns: list[float]
    signature: Signature | None
    period: int | None
    solver_stats: radau.SolverStats | None = None


def hybrid_simulate(params: CanonicalParams, delta: float, Z0: float, n_returns: int) -> HybridResult:
    """Reduced-flow legs on attracting sheets alternating with fold jumps.

    One return is a passage ending at the rightmost fold, where the sign of Z
    selects the landing sheet of the jump. The rescaled slow variable obeys

        dZ/dx = (alpha Q + beta) (kappa + lambda P + Z) (W + delta Z rho F_xz)

    along each leg, with W = rho * F_x(., 0). This Riccati equation's flow over
    a leg is the Moebius map Z -> (A Z + B) / (C Z + D) whose coefficients are
    the fundamental matrix of its linearisation (:attr:`Field.dPhidx`). Each
    call solves that matrix once per leg with :func:`mmopam.dop853.solve`, at
    HYBRID_RTOL and HYBRID_ATOL, over S_a1 (xhat4 -> x1), S_a2 (x2 -> x3) and
    S_a3 split at xhat3 (xhat1 -> xhat3 -> x4), so both S_a3 passages share
    their tail; every return then evaluates the maps. At delta = 0, C = 0 and
    D = 1, and each leg is the exact affine segment map. A denominator
    C Z + D that is not positive at a step end of a leg, or a non-finite
    result, means the solution passes through infinity and raises
    NonFiniteState. The result carries the four solves' counters, summed, as
    ``solver_stats``.
    """
    if not (0.0 <= delta < math.inf):
        raise DomainError(f"delta must be nonnegative and finite, got {delta}")
    if not math.isfinite(Z0):
        raise DomainError(f"Z0 must be finite, got {Z0}")
    if n_returns < 1:
        raise DomainError("n_returns must be positive")
    geom = compute_geometry(params)
    (sa1, sa2, sa3_head, sa3), stats = _hybrid_legs(params, delta, geom)

    Z = float(Z0)
    returns: list[float] = []
    for _ in range(n_returns):
        if abs(Z) <= DISCONTINUITY_GUARD:
            raise DiscontinuityHit(f"hybrid state hit the jump (Z = {Z!r})")
        if Z < 0.0:
            Z = _carry(sa3, _carry(sa3_head, _carry(sa1, Z)))  # S_a1, jump, S_a3 to the last fold
        else:
            Z = _carry(sa3, _carry(sa2, Z))  # S_a2, jump, S_a3 from xhat3 to the last fold
        returns.append(Z)

    period = _detect_tail_period(returns, HYBRID_PERIOD_TOL, max_period=max(1, len(returns) // 4))
    sig = None
    if period is not None:
        sig = signature_from_signs([Z < 0.0 for Z in returns[-period:]])
    return HybridResult(returns, sig, period, stats)


def _hybrid_legs(params: CanonicalParams, delta: float, geom: ManifoldGeometry):
    """The legs S_a1, S_a2, S_a3 from xhat1 to xhat3 and S_a3 from xhat3 to x4, and their summed counters.

    Each leg is its end matrix (A, B, C, D), solved from the identity, and
    the (C, D) of every accepted step end.
    """
    dPhidx = params.field.dPhidx
    stats = radau.SolverStats()
    legs = []
    for x_from, x_to in ((geom.xhat4, geom.x1), (geom.x2, geom.x3), (geom.xhat1, geom.xhat3), (geom.xhat3, geom.x4)):
        ends, st = dop853.solve(dPhidx, x_from, (1.0, 0.0, 0.0, 1.0), x_to, HYBRID_RTOL, HYBRID_ATOL, args=(delta,))
        stats += st
        legs.append((ends[-1], [(C, D) for _, _, C, D in ends]))
    return legs, stats


def _carry(leg, Z: float) -> float:
    """Z carried over one leg, (A Z + B) / (C Z + D), with the denominator positive at every step end."""
    (A, B, C, D), denominators = leg
    for c, d in denominators:
        if not c * Z + d > 0.0:
            raise NonFiniteState(f"the reduced flow from Z = {Z!r} passes through infinity")
    Z_end = (A * Z + B) / (C * Z + D)
    if not math.isfinite(Z_end):
        raise NonFiniteState(f"the reduced flow from Z = {Z!r} leaves the finite range")
    return Z_end


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
    return replace(
        series,
        x=array("d", (v * (2.0 / 7.0) for v in series.x)),
        y=array("d", (v * 1.5 for v in series.y)),
        z=array("d", (v / delta for v in series.z)),
        crossing_states=[
            (t, xv * (2.0 / 7.0), yv * 1.5, zv / delta)
            for t, xv, yv, zv in series.crossing_states
        ],
    )
