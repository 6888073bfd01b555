"""Dynamical validation: stiff full-system integration and a hybrid reduced simulator.

Three ways of producing the same combinatorics are implemented here:

* :func:`integrate_full` integrates the slow-time system
  eps*x' = y - F(x, z), y' = J(x), z' = delta*G(x) + z*H(x)
  with the package's own Radau IIA(5) solver (:mod:`mmopam.radau`) and an
  analytic Jacobian, recording Poincare-section crossings on the fly.
* :func:`hybrid_simulate` alternates exact reduced-flow legs on the attracting
  sheets with instantaneous fold-to-sheet jumps; at delta = 0 it reproduces
  the piecewise affine map to integrator tolerance. Its legs use the
  package's own scalar DOP853 (:mod:`mmopam.dop853`).
* :func:`classify_series` turns a simulated time series into a signature by
  thresholding the minimum x of each inter-crossing cycle.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from . import dop853, radau
from .errors import DiscontinuityHit, DomainError, NotPeriodic
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


@dataclass(frozen=True)
class SimConfig:
    """Integration configuration for the full system.

    ``initial_state`` of None picks the default start on the rightmost
    attracting sheet: x = 1.3, y = F(1.3, 0), z = -delta/2.
    """

    eps: float = 1e-7
    delta: float = 5e-3
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_slow_time: float = 40.0
    initial_state: tuple[float, float, float] | None = None

    def __post_init__(self):
        if not (0.0 < self.eps <= 1e-3):
            raise DomainError(f"eps must lie in (0, 1e-3], got {self.eps}")
        if not (0.0 < self.delta <= 1e-1):
            raise DomainError(f"delta must lie in (0, 1e-1], got {self.delta}")
        for name, tol in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not (1e-14 <= tol <= 1e-6):
                raise DomainError(f"{name} must lie in [1e-14, 1e-6], got {tol}")
        if self.max_slow_time <= 0.0:
            raise DomainError("max_slow_time must be positive")

    def resolve_initial_state(self, params: CanonicalParams) -> tuple[float, float, float]:
        if self.initial_state is not None:
            return self.initial_state
        x0 = 1.3
        return (x0, float(eval_F(x0, 0.0)), -self.delta / 2.0)


@dataclass(frozen=True)
class SectionSpec:
    """Poincare plane {x = x_section} with a signed crossing direction.

    ``x_section`` of None resolves to the midpoint of the two rightmost fold
    abscissas, which the fast fall after an SAO jump crosses exactly once per
    oscillation; the default direction is decreasing x.
    """

    x_section: float | None = None
    crossing_direction: int = -1

    def __post_init__(self):
        if self.crossing_direction not in (-1, 1):
            raise DomainError("crossing_direction must be -1 or +1")

    def resolve(self, geom: ManifoldGeometry) -> float:
        if self.x_section is not None:
            return self.x_section
        return 0.5 * (geom.x3 + geom.x4)


@dataclass
class TimeSeries:
    """Sampled trajectory with section-crossing bookkeeping.

    ``event_marks`` holds sample indices nearest to each detected crossing;
    ``crossing_states`` holds the interpolation-refined (t, x, y, z) there.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    event_marks: list[int] = field(default_factory=list)
    crossing_states: list[tuple[float, float, float, float]] = field(default_factory=list)
    solver_stats: radau.SolverStats | None = None

    def __post_init__(self):
        if not np.all(np.diff(self.t) > 0.0):
            raise DomainError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y", "z"])
            for row in zip(self.t, self.x, self.y, self.z):
                writer.writerow([repr(float(v)) for v in row])


def integrate_full(
    params: CanonicalParams,
    cfg: SimConfig,
    section: SectionSpec | None = None,
    n_crossings: int | None = None,
) -> TimeSeries:
    """Integrate the slow-time system with the Radau IIA(5) solver of :mod:`mmopam.radau`.

    Stops at ``cfg.max_slow_time`` or, if ``n_crossings`` is given, extends
    the time span (a bounded number of times) until that many directed
    section crossings have been collected. The returned series carries the
    solver counters, summed over the extensions, as ``solver_stats``.
    """
    geom = compute_geometry(params)
    sec = section or SectionSpec()
    x_sec = sec.resolve(geom)
    fld = params.field

    def cross(t, s):
        return s[0] - x_sec

    state = cfg.resolve_initial_state(params)
    t0 = 0.0
    span = cfg.max_slow_time
    ts_parts: list[np.ndarray] = []
    ys_parts: list[np.ndarray] = []
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
            cfg.rel_tol,
            cfg.abs_tol,
            args=(cfg.eps, cfg.delta),
            event=cross,
            direction=sec.crossing_direction,
            terminal=None if n_crossings is None else n_crossings - len(crossings),
        )
        stats += sol.stats
        tt, yy = _densify(sol)
        ts_parts.append(tt)
        ys_parts.append(yy)
        crossings.extend((te, *se) for te, se in zip(sol.t_events, sol.y_events))
        if n_crossings is None or len(crossings) >= n_crossings:
            break
        t0 = sol.t[-1]
        state = sol.y[-1]
    else:
        raise NotPeriodic(
            f"only {len(crossings)} of {n_crossings} section crossings within "
            f"{t0 + span:.3g} slow-time units"
        )

    t = np.concatenate(ts_parts)
    y = np.concatenate(ys_parts, axis=1)
    # drop duplicate junction samples between extension chunks
    keep = np.concatenate([[True], np.diff(t) > 0.0])
    t, y = t[keep], y[:, keep]
    marks = [int(np.searchsorted(t, tc)) for tc, *_ in crossings]
    marks = [min(m, len(t) - 1) for m in marks]
    return TimeSeries(t, y[0], y[1], y[2], event_marks=marks, crossing_states=crossings, solver_stats=stats)


def _densify(sol: radau.RadauSolution) -> tuple[np.ndarray, np.ndarray]:
    """Sample the per-step cubics, inserting midpoints until adjacent x gaps fall below DENSIFY_DX.

    A sample at a step end is taken from the step that ends there, as ``OdeSolution`` does.
    """
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
        gaps = np.abs(np.diff(x)) > DENSIFY_DX
        if not gaps.any():
            break
        mids = 0.5 * (t[:-1][gaps] + t[1:][gaps])
        t = np.unique(np.concatenate([t, mids]))
    return t, at(t)


def detect_section_crossings(series: TimeSeries, sec: SectionSpec, x_section: float | None = None) -> list[tuple[float, float]]:
    """Directed crossings of {x = x_section} located from the samples.

    Each crossing sits at the root of the linear interpolant of x(t) between
    the bracketing samples, where (y, z) are interpolated too. When the series
    carries integrator-refined crossing states those are used directly.
    """
    if series.crossing_states:
        return [(yv, zv) for (_, _, yv, zv) in series.crossing_states]
    xs = sec.x_section if x_section is None else x_section
    if xs is None:
        raise DomainError("section abscissa unresolved; pass x_section explicitly")
    g = (series.x - xs) * sec.crossing_direction
    out = []
    for i in np.nonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))[0]:
        w = g[i] / (g[i] - g[i + 1])  # interpolant root, as a fraction of the sample step
        out.append(
            (
                float(series.y[i] + w * (series.y[i + 1] - series.y[i])),
                float(series.z[i] + w * (series.z[i + 1] - series.z[i])),
            )
        )
    return out


def canard_hole_radius(eps: float, delta: float) -> float:
    """Half-width in Z of the region around the jump excluded from statistics."""
    return 2.0 * eps ** (1.0 / 3.0) / delta


@dataclass
class HybridResult:
    """Returns Z at the last fold, the tail signature and period, and the DOP853 counters summed over all legs."""

    returns: list[float]
    signature: Signature | None
    period: int | None
    solver_stats: radau.SolverStats | None = None


def hybrid_simulate(
    params: CanonicalParams,
    delta: float,
    Z0: float,
    n_returns: int,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
) -> HybridResult:
    """Reduced-flow legs on attracting sheets alternating with fold jumps.

    One return is a passage ending at the rightmost fold, where the sign of Z
    selects the landing sheet of the jump. The rescaled slow variable obeys

        dZ/dx = (alpha Q + beta) (kappa + lambda P + Z) (W + delta Z rho F_xz)

    along each leg, with W = rho * F_x(., 0). At delta = 0 each leg reduces
    to the exact affine segment map. Each leg is one :func:`mmopam.dop853.solve`;
    the result carries their counters, summed, as ``solver_stats``.
    """
    if delta < 0.0:
        raise DomainError("delta must be nonnegative")
    if n_returns < 1:
        raise DomainError("n_returns must be positive")
    geom = compute_geometry(params)
    dZdx = params.field.dZdx
    stats = radau.SolverStats()

    def leg(x_from, x_to, Z):
        nonlocal stats
        Z, st = dop853.solve(dZdx, x_from, Z, x_to, rel_tol, abs_tol, args=(delta,))
        stats += st
        return Z

    Z = float(Z0)
    returns: list[float] = []
    for _ in range(n_returns):
        if abs(Z) <= DISCONTINUITY_GUARD:
            raise DiscontinuityHit(f"hybrid state hit the jump (Z = {Z!r})")
        if Z < 0.0:
            Z = leg(geom.xhat4, geom.x1, Z)   # S_a1 passage, jump to S_a3
            Z = leg(geom.xhat1, geom.x4, Z)   # S_a3 passage to the last fold
        else:
            Z = leg(geom.x2, geom.x3, Z)      # S_a2 passage, jump to S_a3
            Z = leg(geom.xhat3, geom.x4, Z)   # S_a3 passage to the last fold
        returns.append(Z)

    period = _detect_tail_period(returns, tol=max(1e-6, 100.0 * rel_tol), max_period=max(1, len(returns) // 4))
    sig = None
    if period is not None:
        sig = signature_from_signs([Z < 0.0 for Z in returns[-period:]])
    return HybridResult(returns, sig, period, stats)


def classify_series(
    series: TimeSeries,
    geom: ManifoldGeometry,
    sec: SectionSpec | None = None,
    transient_skip: int = 5,
    recurrence_tol: float = 1e-3,
) -> Signature:
    """Signature of a periodic series: one symbol per inter-crossing cycle.

    A cycle is an LAO when its minimum x dips below the threshold between the
    left jump-landing abscissa and the second fold; otherwise it is an SAO.
    Periodicity is established by near-recurrence of (x, y, z) at crossings
    over at least two full periods; failing that raises NotPeriodic.
    """
    sec = sec or SectionSpec()
    if series.crossing_states:
        times = [tc for tc, *_ in series.crossing_states]
        states = [(xv, yv, zv) for _, xv, yv, zv in series.crossing_states]
    else:
        xs = sec.resolve(geom)
        g = (series.x - xs) * sec.crossing_direction
        idx = np.nonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))[0]
        times = [float(series.t[i]) for i in idx]
        states = [(float(series.x[i]), float(series.y[i]), float(series.z[i])) for i in idx]
    if len(times) < transient_skip + 3:
        raise NotPeriodic(f"only {len(times)} section crossings; need at least {transient_skip + 3}")

    symbols: list[bool] = []
    for ta, tb in zip(times[:-1], times[1:]):
        window = (series.t >= ta) & (series.t < tb)
        if not window.any():
            raise NotPeriodic("empty sampling window between section crossings")
        symbols.append(float(series.x[window].min()) < geom.lao_threshold)

    states = states[: len(symbols)]
    arr = np.asarray(states)
    spread = float((arr.max(axis=0) - arr.min(axis=0)).max())
    tol_abs = recurrence_tol * max(1.0, spread)
    n = len(symbols)

    def recurs(i: int, p: int) -> bool:
        return symbols[i] == symbols[i + p] and max(
            abs(a - b) for a, b in zip(states[i], states[i + p])
        ) <= tol_abs
    # search the trailing window only, so a slowly contracting transient at
    # the front cannot mask an already-converged tail
    for p in range(1, (n - transient_skip) // 2 + 1):
        window = min(2 * p, n - p - transient_skip)
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
        x=series.x * (2.0 / 7.0),
        y=series.y * 1.5,
        z=series.z / delta,
        crossing_states=[
            (t, xv * (2.0 / 7.0), yv * 1.5, zv / delta)
            for t, xv, yv, zv in series.crossing_states
        ],
    )


def visual_rescale_inverse(series: TimeSeries, delta: float = 1.0) -> TimeSeries:
    if delta == 0.0:
        raise DomainError("delta must be nonzero for the z rescale")
    return replace(
        series,
        x=series.x * 3.5,
        y=series.y / 1.5,
        z=series.z * delta,
        crossing_states=[
            (t, xv * 3.5, yv / 1.5, zv * delta)
            for t, xv, yv, zv in series.crossing_states
        ],
    )
