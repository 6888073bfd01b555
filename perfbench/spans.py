"""Span recorder and the wrappers that put spans around calls into each layer.

Layers are the package's modules. ``install`` wraps every public function a
layer module defines, and rebinds the wrapper wherever the function is
bound: in its own module and wherever ``from .x import y`` copied it (for
example ``mmopam.simulate.eval_F``). Scipy's ``solve_ivp``, reached through
``mmopam.simulate``, is the ``solver`` layer; its counts are read off the
returned solution, one layer per method (``solver.radau``,
``solver.dop853``). ``plotting`` runs only under ``cli`` and is not
wrapped, so its time is the self time of the calling command.

Spans (name, start, end, parent, op) are kept in memory and written once at
the end. Self time is span time minus the time of direct child spans; it is
accumulated as spans close, so the aggregates stay exact even where the span
list is capped.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import sys
import threading
from time import perf_counter

LAYERS = ("family", "segments", "synthesis", "pam", "simulate", "tables", "cli")
# Spans beyond this many are aggregated but not stored, bounding memory on the
# stiff workload, whose Radau right-hand side makes millions of family calls.
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.op = -1  # -1 marks set-up work
        self.spans: list[tuple] = []
        self.dropped = 0
        self.names: list[str] = []
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()  # tables.verify_all calls layers from its own threads

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        name_id = len(self.names)
        self.names.append(name)
        self.stats[name] = [0, 0.0, 0.0]

        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [next(self._ids), 0.0]  # span id, time covered by child spans
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent = -1
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                with self._lock:
                    rec = self.stats[name]
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[1]
                    if len(self.spans) < SPAN_CAP:
                        self.spans.append((frame[0], name_id, t0, t1, parent, self.op))
                    else:
                        self.dropped += 1
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def write(self, path: str) -> None:
        """Write the stored spans as gzip TSV: id, name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for sid, nid, t0, t1, parent, op in self.spans:
                fh.write(f"{sid}\t{self.names[nid]}\t{t0!r}\t{t1!r}\t{parent}\t{op}\n")

    def snapshot(self) -> dict:
        return {
            "stats": {k: v for k, v in self.stats.items() if v[0]},
            "counters": dict(self.counters),
            "spans": len(self.spans),
            "dropped": self.dropped,
        }


# --------------------------------------------------------------------------
# result hooks: counts read where the work happens


def _solver_hook(layer: str):
    def hook(tracer, args, kwargs, sol):
        tracer.count(f"{layer}.solves", 1)
        tracer.count(f"{layer}.steps", len(sol.t) - 1)
        tracer.count(f"{layer}.nfev", sol.nfev)
        tracer.count(f"{layer}.njev", sol.njev)
        tracer.count(f"{layer}.nlu", sol.nlu)

    return hook


def _integrate_full_hook(tracer, args, kwargs, series):
    tracer.count("simulate.integrate_full.crossings", len(series.crossing_states))
    tracer.count("simulate.integrate_full.samples", len(series.t))


def _hybrid_hook(tracer, args, kwargs, result):
    tracer.count("simulate.hybrid_simulate.returns", len(result.returns))


def _iterate_orbit_hook(tracer, args, kwargs, orbit):
    tracer.count("pam.iterate_orbit.iterates", len(orbit.iterates))
    if orbit.converged and orbit.period is not None:
        tracer.count("pam.iterate_orbit.useful", orbit.transient_length + 4 * orbit.period)


HOOKS = {
    "simulate.integrate_full": _integrate_full_hook,
    "simulate.hybrid_simulate": _hybrid_hook,
    "pam.iterate_orbit": _iterate_orbit_hook,
}


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and rebind them in all mmopam modules."""
    wrappers: dict[int, object] = {}
    keep = []  # originals stay referenced so their ids stay unique
    for layer in LAYERS:
        mod = importlib.import_module(f"mmopam.{layer}")
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                full = f"{layer}.{name}"
                wrappers[id(obj)] = tracer.wrap(full, obj, HOOKS.get(full))
                keep.append(obj)
    solve_ivp = sys.modules["mmopam.simulate"].solve_ivp
    by_method: dict[str, object] = {}

    def solve_ivp_traced(*args, **kwargs):
        layer = "solver." + str(kwargs.get("method", "RK45")).lower()
        if layer not in by_method:
            by_method[layer] = tracer.wrap(layer, solve_ivp, _solver_hook(layer))
        return by_method[layer](*args, **kwargs)

    wrappers[id(solve_ivp)] = solve_ivp_traced
    keep.append(solve_ivp)
    for modname, mod in list(sys.modules.items()):
        if modname != "mmopam" and not modname.startswith("mmopam."):
            continue
        for name, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None and obj is not wrapper:
                setattr(mod, name, wrapper)
    tracer.originals = keep


# --------------------------------------------------------------------------
# aggregation into the per-layer metrics


def merge(total: dict, part: dict) -> None:
    """Add one snapshot into another (used to combine CLI child processes)."""
    for name, rec in part["stats"].items():
        acc = total["stats"].setdefault(name, [0, 0.0, 0.0])
        for k in range(3):
            acc[k] += rec[k]
    for name, value in part["counters"].items():
        total["counters"][name] = total["counters"].get(name, 0) + value
    total["spans"] += part["spans"]
    total["dropped"] += part["dropped"]


def empty_snapshot() -> dict:
    return {"stats": {}, "counters": {}, "spans": 0, "dropped": 0}


def layer_metrics(snap: dict) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one merged snapshot."""
    stats, ctr = snap["stats"], snap["counters"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    family = [k for k in stats if k.startswith("family.")]
    radau_steps = ctr.get("solver.radau.steps", 0)
    iterates = ctr.get("pam.iterate_orbit.iterates", 0)
    invocations = ctr.get("cli.invocations", 0)
    return {
        "family.calls": sum(calls(k) for k in family),
        "family.self_s": sum(self_s(k) for k in family),
        "family.eval_F.calls": calls("family.eval_F"),
        "family.eval_Q.calls": calls("family.eval_Q"),
        "family.eval_Q.self_s": self_s("family.eval_Q"),
        "family.q_polynomial.calls": calls("family.q_polynomial"),
        "family.q_polynomial.self_s": self_s("family.q_polynomial"),
        "family.compute_geometry.self_s": self_s("family.compute_geometry"),
        "solver.radau.solves": ctr.get("solver.radau.solves", 0),
        "solver.radau.steps": radau_steps,
        "solver.radau.nfev": ctr.get("solver.radau.nfev", 0),
        "solver.radau.njev": ctr.get("solver.radau.njev", 0),
        "solver.radau.nlu": ctr.get("solver.radau.nlu", 0),
        "solver.radau.self_s": self_s("solver.radau"),
        "solver.dop853.solves": ctr.get("solver.dop853.solves", 0),
        "solver.dop853.nfev": ctr.get("solver.dop853.nfev", 0),
        "solver.dop853.self_s": self_s("solver.dop853"),
        "simulate.integrate_full.self_s": self_s("simulate.integrate_full"),
        "simulate.integrate_full.crossings": ctr.get("simulate.integrate_full.crossings", 0),
        "simulate.integrate_full.samples_per_step": (
            ctr.get("simulate.integrate_full.samples", 0) / radau_steps if radau_steps else 0.0
        ),
        "simulate.hybrid_simulate.self_s": self_s("simulate.hybrid_simulate"),
        "simulate.hybrid_simulate.returns": ctr.get("simulate.hybrid_simulate.returns", 0),
        "segments.associated_pam.calls": calls("segments.associated_pam"),
        "segments.associated_pam.self_s": self_s("segments.associated_pam"),
        "segments.segment_affine.calls": calls("segments.segment_affine"),
        "synthesis.synthesize.calls": calls("synthesis.synthesize"),
        "synthesis.synthesize.self_s": self_s("synthesis.synthesize"),
        "pam.iterate_orbit.calls": calls("pam.iterate_orbit"),
        "pam.iterate_orbit.self_s": self_s("pam.iterate_orbit"),
        "pam.iterate_orbit.iterates": iterates,
        "pam.iterate_orbit.useful_ratio": (
            ctr.get("pam.iterate_orbit.useful", 0) / iterates if iterates else 0.0
        ),
        "cli.import_s": ctr.get("cli.import_s", 0) / invocations if invocations else 0.0,
        "cli.import.scipy_s": ctr.get("cli.import.scipy_s", 0) / invocations if invocations else 0.0,
        "cli.main.self_s": sum(self_s(k) for k in stats if k.startswith("cli.")),
        "tables.verify_all.wall_s": stats.get("tables.verify_all", [0, 0.0, 0.0])[1],
    }


def parse_importtime(stderr: str) -> tuple[dict[str, float], str]:
    """Import costs from ``-X importtime`` output, and stderr without those lines.

    ``cli.import_s`` is the cumulative time of the top-level ``mmopam`` import
    statement; ``cli.import.scipy_s`` sums the self time of every scipy module.
    The per-layer metrics give both as means per CLI invocation.
    """
    cumulative = 0.0
    scipy_self = 0.0
    rest = []
    for line in stderr.splitlines(keepends=True):
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the column header
        self_us, cum_us, name = int(parts[0]), int(parts[1]), parts[2]
        module = name.strip()
        if module == "scipy" or module.startswith("scipy."):
            scipy_self += self_us
        if module.startswith("mmopam") and name.startswith(" ") and not name.startswith("  "):
            cumulative += cum_us  # nesting level 0
    return {"cli.import_s": cumulative / 1e6, "cli.import.scipy_s": scipy_self / 1e6}, "".join(rest)
