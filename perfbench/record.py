"""Record the input pools and the program's outputs for them (``fingerprints/``).

    PYTHONPATH=src python3 perfbench/record.py [WORKLOAD ...]

Run this at the commit whose outputs define correctness; every later run of
the benchmark compares against what it wrote, one file per workload. Pools
are drawn from a fixed pool seed, or from runs of the program itself,
independent of the run seeds that later pick from them.
"""

from __future__ import annotations

import importlib.metadata
import json
import platform
import subprocess
import sys

import numpy as np

import workloads
from common import FINGERPRINTS, ROOT
from workloads import ROWS

POOL_SEED = 20210309

# Paper crossover segments (alpha, beta, kappa1, lambda1, kappa2, lambda2).
SEGMENTS = [
    (-0.0220, 0.1747, 7.7321, -233.3068, 7.9239, -275.3021),
    (-0.0610, 0.2430, 24.4916, -96.1819, 24.5673, -81.8569),
]

# Crossings and returns thrown away as start-up transient before a start
# state is taken from a trajectory; criterion 7 skips the same 5 crossings.
TRANSIENT_CROSSINGS = 5
TRANSIENT_RETURNS = 40


def _row_params(mm) -> dict:
    rho = mm.RhoSpec("fixed_rational")
    return {row: mm.synthesize(mm.PamCoefficients(*target), rho) for row, target in ROWS.items()}


def _stiff_pool(mm) -> dict:
    """Start states on each row's attractor, from a criterion-7-length default-start run.

    The run is the one of tier-1 criterion 7: 5 + 4p + 2 crossings for a
    row of period p, or 5 + 12p + 2 if those do not classify. Its
    classification is stored beside the pool; for 1^3 it is the full
    system's own attractor, not the map's signature.
    """
    eps, delta = 1e-7, 5e-3
    pool, attractors = [], {}
    for row, params in _row_params(mm).items():
        geom = mm.compute_geometry(params)
        period = mm.Signature.from_string(row).period
        for n in (5 + 4 * period + 2, 5 + 12 * period + 2):
            series = mm.integrate_full(params, mm.SimConfig(eps=eps, delta=delta, max_slow_time=400.0),
                                       n_crossings=n)
            try:
                outcome = str(mm.classify_series(series, geom))
                break
            except mm.MmopamError as exc:
                outcome = type(exc).__name__
        attractors[row] = {"n_crossings": n, "classified": outcome}
        times = [c[0] for c in series.crossing_states]
        for k in range(TRANSIENT_CROSSINGS, TRANSIENT_CROSSINGS + 4):
            # the sample nearest the middle of a cycle lies on a slow sheet
            i = int(np.searchsorted(series.t, 0.5 * (times[k] + times[k + 1])))
            state = [float(series.x[i]), float(series.y[i]), float(series.z[i])]
            pool.append({"input": {"row": row, "after_crossing": k + 1, "state": state}})
    # Radau runs at rtol 1e-8, atol 1e-10: allow 100x both. Re-running at rtol
    # 1e-9 or from a start perturbed by 1e-12 moved no crossing value by more
    # than 2e-9 (t, y, z by at most 2e-10).
    return {"eps": eps, "delta": delta, "n_crossings": 2, "attractors": attractors,
            "tolerance": {"rtol": 1e-6, "atol": 1e-8}, "pool": pool}


def _hybrid_pool(mm) -> dict:
    """Start values on each (row, delta) hybrid attractor, after a transient from Z0 = -0.5."""
    pool = []
    for row, params in _row_params(mm).items():
        for delta in (1e-2, 5e-3, 1e-3):
            returns = mm.hybrid_simulate(params, delta, -0.5, TRANSIENT_RETURNS + 5).returns
            for k in range(TRANSIENT_RETURNS, TRANSIENT_RETURNS + 5):
                pool.append({"input": {"row": row, "delta": delta, "after_return": k + 1, "z0": returns[k]}})
    # DOP853 runs at rtol 1e-10, atol 1e-12: allow 1000x both. 20 returns
    # give the tail-period detection periods up to 4, so every signature of
    # the three rows is classified.
    return {"n_returns": 20, "tolerance": {"rtol": 1e-7, "atol": 1e-9}, "pool": pool}


def _maps_pool(mm) -> dict:
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for _ in range(256):  # criterion-4 target ranges
        target = [float(rng.uniform(0.1, 0.99)), float(rng.uniform(-10.0, 25.0)),
                  float(rng.uniform(0.1, 0.99)), float(rng.uniform(-10.0, 10.0))]
        for rho in workloads.RHO_SPECS:
            pool.append({"input": {"kind": "roundtrip", "target": target, "rho": rho}})
    for _ in range(512):  # criterion-9 admissible draws
        a, b = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95))
        l = float(rng.uniform(-20.0, -0.5))
        mu = -l * float(rng.uniform(1e-3, 1.0 - 1e-3))
        pool.append({"input": {"kind": "scan", "a": a, "b": b, "mu": mu, "l": l}})
    for j, (alpha, beta, k1, l1, k2, l2) in enumerate(SEGMENTS):
        for i in range(65):
            t = i / 64
            params = [alpha, beta, k1 + t * (k2 - k1), l1 + t * (l2 - l1)]
            pool.append({"input": {"kind": "segment", "segment": j, "params": params}})
    # Synthesis is a pair of 2x2 solves; its own roundtrip check is 1e-8.
    return {"tolerance": {"rtol": 1e-9, "atol": 1e-12}, "pool": pool}


def _pam_flags(t) -> list[str]:
    return ["--a11", repr(t[0]), "--a12", repr(t[1]), "--a21", repr(t[2]), "--a22", repr(t[3])]


def _cli_pool(mm) -> dict:
    from mmopam.tables import MU_WINDOW_BENCHMARKS, SYNTHESIS_BENCHMARKS

    pool = []
    for row in SYNTHESIS_BENCHMARKS:
        flags = _pam_flags(row.pam.as_tuple())
        pool.append({"input": {"kind": "pam signature", "argv": ["pam", "signature", *flags]}})
        pool.append({"input": {"kind": "synth --verify", "argv": ["synth", *flags, "--verify"]}})
        pool.append({"input": {
            "kind": "pam iterate",
            "argv": ["pam", "iterate", *flags, "--out-csv", "{out}/orbit.csv", "--out-svg", "{out}/orbit.svg"],
            "files": ["orbit.csv", "orbit.svg"],
        }})
    for row in MU_WINDOW_BENCHMARKS:
        L, s = mm.Signature.from_string(row.signature).segments[0]
        count = ["--s", str(s)] if L == 1 else ["--L", str(L)]
        argv = ["pam", "bounds", "--a", repr(row.a), "--b", repr(row.b), "--l", repr(row.l),
                "--mu", repr(row.mu_actual), *count]
        pool.append({"input": {"kind": "pam bounds", "argv": argv}})
    pool.append({"input": {"kind": "verify-tables", "argv": ["verify-tables"]}})
    for alpha, beta, k1, l1, k2, l2 in SEGMENTS:
        argv = ["crossover", "--alpha", repr(alpha), "--beta", repr(beta), "--kappa1", repr(k1),
                "--lambda1", repr(l1), "--kappa2", repr(k2), "--lambda2", repr(l2), "--grid", "41"]
        pool.append({"input": {"kind": "crossover", "argv": argv}})
    # Reals printed in full repr get 1e-9; shorter prints may move by one unit
    # in their last digit (see common.compare_text).
    return {"tolerance": {"rtol": 1e-9, "atol": 1e-12}, "pool": pool}


MAKE_POOL = {"stiff": _stiff_pool, "hybrid": _hybrid_pool, "maps": _maps_pool, "cli": _cli_pool}


def _provenance() -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
        "pool_seed": POOL_SEED,
    }


def main() -> int:
    import mmopam

    FINGERPRINTS.mkdir(exist_ok=True)
    provenance = _provenance()
    for name in sys.argv[1:] or MAKE_POOL:
        make_pool = MAKE_POOL[name]
        fp = make_pool(mmopam)
        wl = workloads.WORKLOADS[name](fp)
        wl.prepare()
        for i, item in enumerate(wl.pool):
            out = wl.run(wl.op(i))
            out.pop("stderr", None)
            item["expect"] = out
        fp["recorded_with"] = provenance
        with open(FINGERPRINTS / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(fp, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(wl.pool)} pool items recorded", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
