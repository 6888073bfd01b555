"""Workload process: set up, print READY, then run the closed loop.

    python3 perfbench/worker.py --workload NAME --seed N
        (--setup-only | --seconds S | --rounds R) [--trace] [--smoke]

Set-up is process start, the import of the package and the program's own
set-up (geometry, parameter synthesis). The parent times it up to the READY
line. Only then does the worker load this workload's fingerprints and pick
its inputs, which is benchmark work that no change to the program can move.
A timed run first runs its first operation once, untimed. The loop then
runs whole rounds, one operation at a time, until
``--seconds`` have passed or ``--rounds`` rounds are done, and prints one
JSON result as its last line. Between operations it times the fixed
``reference.work`` computation, one sample for every ``REF_EVERY_S`` of
operation time, so that the samples cover the run as evenly as the
operations do, and it notes for each operation how many samples came before
it. Neither the samples nor the output checks count in the loop's wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import reference
import workloads
from common import OUT_DIR, REF_EVERY_S, load_fingerprints


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--rounds", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true", help="one operation per round")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]()
    tracer = snapshot = None
    if args.trace:
        import spans

        if args.workload == "cli":
            snapshot = spans.empty_snapshot()  # each child traces itself through cli_shim.py
        else:
            import mmopam.cli  # noqa: F401 - every layer module must be loaded to be wrapped

            tracer = spans.Tracer()
            spans.install(tracer)
    wl.prepare()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    wl.load(load_fingerprints(args.workload))
    inputs = wl.generate(args.seed)

    latencies: list[float] = []
    failures: list[str] = []
    attempted = failed = 0
    check_s = 0.0
    ref_times: list[float] = []
    ref_index: list[int] = []  # per op: reference samples taken before it started
    ref_s = 0.0  # time spent on reference samples
    owed = 0.0  # operation time not yet matched by a reference sample
    reference.work()  # first call pays NumPy's lazy set-up; not a sample
    if args.seconds is not None and not args.smoke:
        # Warm-up: lazy set-up in the program's first call is not timed. The
        # first timed op repeats this input, and its output is checked.
        wl.run(inputs[0][0])
    rounds = 0
    start = perf_counter()
    while True:
        batch = inputs[rounds % len(inputs)]
        for op in batch[:1] if args.smoke else batch:
            if tracer is not None:
                tracer.op = attempted
            ref_index.append(len(ref_times))
            t0 = perf_counter()
            try:
                if args.trace and tracer is None:
                    output = _traced_cli_op(wl, op, args.seed, attempted, snapshot)
                else:
                    output = wl.run(op)
                latencies.append(perf_counter() - t0)
                t1 = perf_counter()
                miss = wl.check(op, output)
                check_s += perf_counter() - t1
            except Exception as exc:  # an unexpected error fails the op, the run goes on
                latencies.append(perf_counter() - t0)
                miss = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            attempted += 1
            owed += latencies[-1]
            while owed >= REF_EVERY_S:
                owed -= REF_EVERY_S
                t0 = perf_counter()
                reference.work()
                ref_times.append(perf_counter() - t0)
                ref_s += ref_times[-1]
            if miss is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"op {attempted - 1} ({op.get('kind', op.get('row', ''))}): {miss}")
        rounds += 1
        elapsed = perf_counter() - start
        if args.rounds is not None and rounds >= args.rounds:
            break
        if args.seconds is not None and elapsed >= args.seconds:
            break
    wall = perf_counter() - start - check_s - ref_s
    if not ref_times:  # a smoke run can end before its first sample is due
        t0 = perf_counter()
        reference.work()
        ref_times.append(perf_counter() - t0)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "latencies": latencies,
        "ref_times": ref_times,
        "ref_index": ref_index,
        "rounds": rounds,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        spans_file = f"spans-{args.workload}-{args.seed}-{os.getpid()}.tsv.gz"
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(str(OUT_DIR / spans_file))
        snapshot = tracer.snapshot()
    elif args.trace:
        spans_file = f"cli-{args.seed}-{os.getpid()}-*.spans.tsv.gz"
    if args.trace:
        result["snapshot"] = snapshot
        result["spans_file"] = spans_file
    print(json.dumps(result))
    return 0


def _traced_cli_op(wl, op: dict, seed: int, n: int, snapshot: dict) -> dict:
    """Run one CLI op through the tracing shim and merge the child's snapshot."""
    import spans

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"cli-{seed}-{os.getpid()}-{n}.json"
    output = wl.run(op, spans_path=str(path))
    imports, output["stderr"] = spans.parse_importtime(output["stderr"])
    child = json.loads(path.read_text(encoding="utf-8"))
    path.unlink()
    for name, value in imports.items():
        child["counters"][name] = child["counters"].get(name, 0) + value
    child["counters"]["cli.invocations"] = 1
    spans.merge(snapshot, child)
    return output


if __name__ == "__main__":
    sys.exit(main())
