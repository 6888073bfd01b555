"""mmopam benchmark entry point.

    python3 perfbench/run.py --workload {stiff,hybrid,maps,cli} --seed N --seconds S --trace {0,1}

Run from the repository root. Each workload is one single-threaded
closed-loop client: one caller, the next operation only after the previous
one returns. Workload processes import the package from ``src/`` with
OpenBLAS/OpenMP pinned to one thread; this process never imports it.

``--trace 0`` times the workload for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` runs a fixed amount of work once untraced
and twice traced, reports the per-layer metrics of the first traced run and
the traced/untraced wall-time ratio, and fails the correctness check if a
count differs between the two traced runs.

Every output is checked against ``fingerprints/<workload>.json``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary and
the reproducibility record. Details go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from common import (
    BENCH_DIR,
    OUT_DIR,
    PACKAGE_INIT,
    PINNED_THREADS,
    REF_EVERY_S,
    ROOT,
    SRC,
    child_env,
    digest,
    fail,
)

WORKLOAD_NAMES = ("stiff", "hybrid", "maps", "cli")
END_TO_END_UNITS = {"ops_per_ref": "1/ref", "latency_p50_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5  # set-ups per run, the median is reported
DEADLINE_S = 170.0  # every run must end within 180 s


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("samples_per_step"):
        return "samples/step"
    return "count"


class Deadline:
    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds

    def left(self) -> float:
        left = self.end - perf_counter()
        if left <= 0:
            fail("run exceeded its time limit", 1)
        return left


def spawn_worker(workload: str, seed: int, mode: list[str], deadline: Deadline) -> tuple[float, dict | None]:
    """Start a workload process; return (seconds to its READY line, its result or None)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed), *mode]
    t0 = perf_counter()
    # own process group, so the watchdog also stops the CLI children of a stuck worker
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    watchdog = threading.Timer(deadline.left(), os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.rstrip() == "READY":
                ready = perf_counter() - t0
                break
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or ready is None:
        fail(f"{workload} worker exited with code {proc.returncode}", 1)
    lines = out.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def cli_setup(deadline: Deadline) -> float:
    """Seconds for a fresh interpreter to import the CLI, the set-up every CLI call pays."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import mmopam.cli"], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=deadline.left())
    if proc.returncode != 0:
        fail("cli set-up: cannot import mmopam.cli", 1)
    return perf_counter() - t0


def warm_up(deadline: Deadline) -> None:
    """Compile the package and the benchmark once, so no timed process writes .pyc files."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import mmopam.cli, common, spans, workloads"
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH_DIR)], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=deadline.left())
    if proc.returncode != 0:
        fail(f"cannot import the package from {SRC.name}/: {proc.stderr.strip()[-300:]}", 1)


def environment(seed: int, inputs_digest: str) -> dict:
    commit = "not a git checkout"
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(git) == 2 and os.path.samefile(git[0], ROOT):
            commit = git[1]
    except OSError:
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted((SRC / "mmopam").glob("*.py"))}
    return {
        "seed": seed,
        "inputs_sha256": inputs_digest,
        "git_commit": commit,
        "src_sha256": digest(sources),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "pinned_env": PINNED_THREADS,
        "pythonpath": "src",
        "cli": "python -m mmopam.cli",
    }


def normalized_latencies(lat: list[float], ref_times: list[float], ref_index: list[int]) -> list[float]:
    """Each op's latency in units of the reference samples taken around it.

    The host switches between fast and slow phases within a second, so only
    samples near an op measure the speed it ran at. An op's samples are
    those that cover as much op time as it took, on either side of it: one
    sample each side for an op shorter than ``REF_EVERY_S``, more for
    longer ops, whose speed is an average over several phases.
    """
    out = []
    for t, k in zip(lat, ref_index):
        m = max(1, round(t / REF_EVERY_S))
        out.append(t / statistics.fmean(ref_times[max(0, k - m):k + m]))
    return out


def timed_run(args, deadline: Deadline) -> tuple[dict, dict]:
    setups = []
    cli = args.workload == "cli"
    for _ in range(SETUP_SAMPLES if cli else SETUP_SAMPLES - 1):
        setups.append(cli_setup(deadline) if cli else
                      spawn_worker(args.workload, args.seed, ["--setup-only"], deadline)[0])
    mode = ["--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
    ready, res = spawn_worker(args.workload, args.seed, mode, deadline)
    if not cli:
        setups.append(ready)
    lat = res["latencies"]
    n = len(lat)
    norm = normalized_latencies(lat, res["ref_times"], res["ref_index"])
    has_p90 = n >= 100  # a percentile needs at least ten samples beyond it
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if has_p90 else None
    p90_ref = statistics.quantiles(norm, n=10, method="inclusive")[8] if has_p90 else None
    p90_note = f"n={n}" if has_p90 else f"omitted: n={n}, needs >= 100 for 10 samples beyond p90"
    metrics = {
        "ops_per_ref": n / sum(norm),
        "latency_p50_ref": statistics.median(norm),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    rows = [
        ("ops_per_ref", metrics["ops_per_ref"], "1/ref", f"{n} ops in {sum(norm):.1f} ref"),
        ("latency_p50_ref", metrics["latency_p50_ref"], "ref", f"n={n}"),
        ("latency_p90_ref", p90_ref, "ref", p90_note),
        ("ops_per_s", n / res["wall_s"], "1/s", f"{n} ops in {res['wall_s']:.2f} s, {res['rounds']} rounds"),
        ("latency_p50_s", statistics.median(lat), "s", f"n={n}"),
        ("latency_p90_s", p90, "s", p90_note),
        ("setup_s", metrics["setup_s"], "s", f"median of n={len(setups)} " +
         ("`import mmopam.cli` processes, " if cli else "set-ups, ") + ", ".join(f"{s:.3f}" for s in setups)),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB",
         "max over CLI child processes" if args.workload == "cli" else "workload process"),
        ("failed_share", res["failed"] / res["attempted"], "ratio", f"{res['failed']}/{res['attempted']}"),
        ("reference_s", statistics.fmean(res["ref_times"]), "s",
         f"mean of n={len(res['ref_times'])} reference samples"),
    ]
    return {"metrics": metrics, "rows": rows, "result": res}, res


def traced_run(args, deadline: Deadline) -> tuple[dict, dict]:
    import spans

    rounds = ["--rounds", "1" if args.smoke else str(args.trace_rounds)] + (["--smoke"] if args.smoke else [])
    _, plain = spawn_worker(args.workload, args.seed, rounds, deadline)
    runs = [spawn_worker(args.workload, args.seed, rounds + ["--trace"], deadline)[1] for _ in range(2)]
    layers = [spans.layer_metrics(r["snapshot"]) for r in runs]
    metrics = dict(layers[0])
    # each wall time in units of its own run's reference, so host drift between the runs cancels
    metrics["trace.overhead_ratio"] = ((runs[0]["wall_s"] / statistics.fmean(runs[0]["ref_times"]))
                                       / (plain["wall_s"] / statistics.fmean(plain["ref_times"])))
    metrics["trace.spans"] = runs[0]["snapshot"]["spans"]
    counted = [k for k in layers[0] if per_layer_unit(k) == "count"]
    unstable = [k for k in counted if layers[0][k] != layers[1][k]]
    res = {
        "attempted": plain["attempted"] + sum(r["attempted"] for r in runs),
        "failed": plain["failed"] + sum(r["failed"] for r in runs),
        "failures": plain["failures"] + [f for r in runs for f in r["failures"]],
    }
    rows = [(k, v, per_layer_unit(k), "") for k, v in metrics.items()]
    rows.append(("counts repeat", not unstable, "", ", ".join(unstable) or f"{len(counted)} counts identical"))
    rows.append(("spans dropped", runs[0]["snapshot"]["dropped"], "count", f"spans in .perfbench_out/{runs[0]['spans_file']}"))
    return {"metrics": metrics, "rows": rows, "unstable_counts": unstable}, res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="one operation per round, for quick checks")
    args = ap.parse_args()
    if args.workload not in WORKLOAD_NAMES:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOAD_NAMES)}")
    if not PACKAGE_INIT.is_file():
        fail(f"no package source at {PACKAGE_INIT.relative_to(ROOT)}; run from a full checkout")
    deadline = Deadline(DEADLINE_S)
    OUT_DIR.mkdir(exist_ok=True)
    warm_up(deadline)

    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    from common import load_fingerprints

    wl = workloads.WORKLOADS[args.workload](load_fingerprints(args.workload))
    args.trace_rounds = wl.trace_rounds
    inputs_digest = digest(wl.generate(args.seed))
    env = environment(args.seed, inputs_digest)
    report, res = (traced_run if args.trace else timed_run)(args, deadline)

    mode = "traced, fixed work" if args.trace else f"timed, {args.seconds:g} s"
    print(f"perfbench workload={args.workload} seed={args.seed} mode={mode} client=1 closed loop")
    for name, value, unit, note in report["rows"]:
        shown = "-" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))
        print(f"  {name:<40} {shown:>14} {unit:<12} {note}")
    for msg in res["failures"]:
        print(f"  FAILED {msg}")
    if args.workload == "cli":
        print(f"  note: tables.verify_all fans out on its own thread pool (8 workers when recorded) "
              f"on {env['nproc']} CPUs; this is the program's behaviour and is measured as-is.")
    print("env " + json.dumps(env, sort_keys=True))
    with open(OUT_DIR / f"run-{args.workload}-{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, **{k: v for k, v in report.items() if k != "rows"}, "run": res}, fh)

    correct = res["failed"] == 0 and not report.get("unstable_counts")
    units = END_TO_END_UNITS if not args.trace else {k: per_layer_unit(k) for k in report["metrics"]}
    metrics = {k: {"value": report["metrics"][k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
