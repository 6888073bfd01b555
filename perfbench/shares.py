"""Layer shares of benchmark ops beside those of the tier-1 criterion runs.

    PYTHONPATH=src python3 perfbench/shares.py

Traces with the benchmark's own span wrappers (``spans.py``):
- per row, one ``stiff`` op (2 crossings from a recorded attractor state)
  beside the first run of criterion 7 (5 + 4p + 2 crossings from the
  default start, for a row of period p);
- per row, one ``hybrid`` op (20 returns from a recorded attractor value)
  beside the criterion-6 call (20 returns from Z0 = -0.5), at delta 5e-3.

For each it prints the share of traced wall time spent in each layer's own
code (self time) and the solver counts per crossing or return, so the work
mix of an op can be compared with that of the runs it stands for.
"""

from __future__ import annotations

import copy
import sys
from time import perf_counter

import mmopam
import mmopam.cli  # noqa: F401 - every layer module must be loaded to be wrapped
import spans
from common import load_fingerprints
from workloads import ROWS

LAYER_PREFIXES = ("family", "solver", "simulate", "pam", "segments", "synthesis")


def _traced(tracer: spans.Tracer, fn) -> tuple[float, dict, dict, object]:
    before = copy.deepcopy(tracer.snapshot())
    t0 = perf_counter()
    result = fn()
    wall = perf_counter() - t0
    after = tracer.snapshot()
    self_s = {}
    for name, rec in after["stats"].items():
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + rec[2] - before["stats"].get(name, [0, 0.0, 0.0])[2]
    counts = {k: v - before["counters"].get(k, 0) for k, v in after["counters"].items()}
    return wall, self_s, counts, result


def _row(label: str, wall: float, self_s: dict, per: int, unit: str, counts: dict, solver: str) -> str:
    shares = " ".join(f"{p} {self_s.get(p, 0.0) / wall:5.1%}" for p in LAYER_PREFIXES if self_s.get(p))
    per_unit = " ".join(
        f"{k.rsplit('.', 1)[1]}/{unit} {counts.get(k, 0) / per:.0f}"
        for k in (f"{solver}.steps", f"{solver}.nfev", f"{solver}.njev", f"{solver}.nlu")
        if k in counts
    )
    return f"  {label:<34} wall {wall:7.2f} s   {shares}   {per_unit}"


def main() -> int:
    rho = mmopam.RhoSpec("fixed_rational")
    params = {row: mmopam.synthesize(mmopam.PamCoefficients(*t), rho) for row, t in ROWS.items()}
    stiff, hybrid = load_fingerprints("stiff"), load_fingerprints("hybrid")
    tracer = spans.Tracer()
    spans.install(tracer)
    print("stiff: one op (2 crossings) beside criterion 7's first run (5 + 4p + 2 crossings)")
    for row, p in params.items():
        state = next(it["input"]["state"] for it in stiff["pool"] if it["input"]["row"] == row)
        n_c7 = 5 + 4 * mmopam.Signature.from_string(row).period + 2
        for label, cfg, n in (
            (f"{row} op", mmopam.SimConfig(initial_state=tuple(state)), stiff["n_crossings"]),
            (f"{row} criterion 7", mmopam.SimConfig(max_slow_time=400.0), n_c7),
        ):
            wall, self_s, counts, _ = _traced(tracer, lambda: mmopam.integrate_full(p, cfg, n_crossings=n))
            print(_row(label, wall, self_s, n, "crossing", counts, "solver.radau"))
    print("hybrid: one op beside the criterion-6 call, 20 returns each, delta 5e-3")
    for row, p in params.items():
        z0 = next(it["input"]["z0"] for it in hybrid["pool"]
                  if it["input"]["row"] == row and it["input"]["delta"] == 5e-3)
        for label, start in ((f"{row} op", z0), (f"{row} criterion 6", -0.5)):
            wall, self_s, counts, _ = _traced(tracer, lambda: mmopam.hybrid_simulate(p, 5e-3, start, 20))
            print(_row(label, wall, self_s, 20, "return", counts, "solver.dop853"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
