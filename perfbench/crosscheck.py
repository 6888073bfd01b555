"""Time the single calls of the ROADMAP baseline table, for comparison with it.

    PYTHONPATH=src python3 perfbench/crosscheck.py

Each row is the median of several repeats after one warm call (the stiff
row runs once), with OpenBLAS/OpenMP pinned by the caller as in the
workloads. The CLI row starts fresh ``python -m mmopam.cli`` processes.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import mmopam
from common import ROOT, child_env
from mmopam.tables import verify_all

# ROADMAP re-anchor table (2-core machine, Python 3.11.7, numpy 2.4.6, scipy 1.17.1)
ROADMAP = {
    "eval_F (scalar)": 7.7e-6,
    "eval_Q (scalar)": 24.6e-6,
    "associated_pam": 221e-6,
    "synthesize": 1.23e-3,
    "iterate_orbit, 1^3 row": 1.07e-3,
    "hybrid_simulate, 20 returns": 0.69,
    "verify_all": 78e-3,
    "integrate_full, 1^1 row, 15 crossings": 38.7,
    "CLI pam signature (wall)": 1.1,
}


def per_call(fn, repeats: int, inner: int, warm: bool = True) -> float:
    if warm:
        fn()
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        samples.append((perf_counter() - t0) / inner)
    return statistics.median(samples)


def main() -> int:
    rho = mmopam.RhoSpec("fixed_rational")
    target = mmopam.PamCoefficients(0.3, 1.0, 0.9, -2.0)
    params = mmopam.synthesize(target, rho)
    geom = mmopam.compute_geometry(params)
    row_1_3 = mmopam.PamCoefficients(0.3, 7.0, 0.9, -2.0)
    cli = [sys.executable, "-m", "mmopam.cli", "pam", "signature",
           "--a11", "0.3", "--a12", "7", "--a21", "0.9", "--a22", "-2"]
    measured = {
        "eval_F (scalar)": per_call(lambda: mmopam.eval_F(0.7, 0.0), 7, 2000),
        "eval_Q (scalar)": per_call(lambda: mmopam.eval_Q(params, 0.7), 7, 2000),
        "associated_pam": per_call(lambda: mmopam.associated_pam(params, geom), 7, 200),
        "synthesize": per_call(lambda: mmopam.synthesize(target, rho), 7, 50),
        "iterate_orbit, 1^3 row": per_call(lambda: mmopam.iterate_orbit(row_1_3, -0.5), 7, 50),
        "hybrid_simulate, 20 returns": per_call(lambda: mmopam.hybrid_simulate(params, 5e-3, -0.5, 20), 3, 1),
        "verify_all": per_call(verify_all, 7, 3),
        "integrate_full, 1^1 row, 15 crossings": per_call(
            lambda: mmopam.integrate_full(params, mmopam.SimConfig(max_slow_time=400.0), n_crossings=15),
            1, 1, warm=False),
        "CLI pam signature (wall)": per_call(
            lambda: subprocess.run(cli, cwd=ROOT, env=child_env(), capture_output=True, check=True), 5, 1),
    }
    print(f"{'row':<38} {'ROADMAP':>12} {'measured':>12} {'ratio':>7}")
    for name, ref in ROADMAP.items():
        got = measured[name]
        print(f"{name:<38} {ref:>12.4g} {got:>12.4g} {got / ref:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
