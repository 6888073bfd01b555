"""The four benchmark workloads: input generation, operations and output checks.

Inputs come from fixed pools recorded in ``fingerprints/<workload>.json``
together with the outputs the program gave for them (see ``record.py``). A run's seed picks
pool items and their order, round by round, with ``random.Random(seed)``, so
the same seed always yields byte-identical inputs and the program only ever
sees those inputs. A round holds the same mix of operation kinds in every
run, which keeps medians comparable across seeds.

The package is imported lazily (``prepare``), so ``run.py`` and the ``cli``
client never load it themselves.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import tempfile

from common import BENCH_DIR, OUT_DIR, child_env, compare_text, compare_vectors

RHO_SPECS = {"fixed_rational": None, "quadratic": {"p": 1.0, "q": 1.0}}

# Targets of the criterion-7 rows (tables.SYNTHESIS_BENCHMARKS), synthesized
# with the fixed rational rho into the parameters of ``stiff`` and ``hybrid``.
# 1^3 stays in although its full-system attractor is canard-afflicted.
ROWS = {"1^1": [0.3, 1.0, 0.9, -2.0], "1^3": [0.3, 7.0, 0.9, -2.0], "3^1": [0.9, 1.0, 0.4, -3.0]}


def _rho(mm, name: str):
    spec = RHO_SPECS[name]
    return mm.RhoSpec(name) if spec is None else mm.RhoSpec(name, **spec)


class Workload:
    """One workload: ``generate`` is pure; ``prepare`` and ``run`` call the program."""

    name = ""
    pregenerated_rounds = 0  # a timed run cycles through these if it needs more
    trace_rounds = 0  # fixed work of a traced run, so its counts repeat exactly
    MIX: dict = {}  # picks per pool group in one round; a group absent here gets one

    def __init__(self, fingerprints: dict | None = None):
        if fingerprints is not None:
            self.load(fingerprints)

    def load(self, fingerprints: dict) -> None:
        """Take this workload's input pool and recorded outputs (``common.load_fingerprints``)."""
        self.fp = fingerprints
        self.pool = fingerprints["pool"]

    def group(self, inp: dict):
        """Pool group of an input; every round draws from each group."""
        raise NotImplementedError

    def generate(self, seed: int) -> list[list[dict]]:
        groups: dict = {}
        for i, item in enumerate(self.pool):
            groups.setdefault(self.group(item["input"]), []).append(i)
        rng = random.Random(f"{self.name}:{seed}")
        rounds = []
        for _ in range(self.pregenerated_rounds):
            chosen = [rng.choice(idx) for key, idx in groups.items() for _ in range(self.MIX.get(key, 1))]
            rng.shuffle(chosen)
            rounds.append([self.op(i) for i in chosen])
        return rounds

    def op(self, i: int) -> dict:
        return {"i": i, **self.pool[i]["input"]}

    def prepare(self) -> None:
        """Set-up calls into the program (import, geometry, parameter synthesis).

        It needs no fingerprints, so a set-up can be timed without loading them.
        """

    def run(self, op: dict) -> dict:
        raise NotImplementedError

    def check(self, op: dict, output: dict) -> str | None:
        raise NotImplementedError

    def expected(self, op: dict) -> dict:
        return self.pool[op["i"]]["expect"]


class _RowWorkload(Workload):
    """Shared set-up of ``stiff`` and ``hybrid``: synthesize the criterion-7 rows."""

    def prepare(self) -> None:
        import mmopam

        self.mm = mmopam
        rho = _rho(mmopam, "fixed_rational")
        self.params = {}
        for row, target in ROWS.items():
            self.params[row] = mmopam.synthesize(mmopam.PamCoefficients(*target), rho)
            mmopam.compute_geometry(self.params[row])


class Stiff(_RowWorkload):
    """``integrate_full`` at (eps, delta) = (1e-7, 5e-3), default tolerances, fixed crossing count.

    Each op starts from a state on the row's attractor, recorded after the
    start-up transient of a default-start run.
    """

    name = "stiff"
    pregenerated_rounds = 16
    trace_rounds = 1

    def group(self, inp):
        return inp["row"]

    def run(self, op):
        cfg = self.mm.SimConfig(eps=self.fp["eps"], delta=self.fp["delta"], initial_state=tuple(op["state"]))
        series = self.mm.integrate_full(self.params[op["row"]], cfg, n_crossings=self.fp["n_crossings"])
        return {"crossings": [list(c) for c in series.crossing_states]}

    def check(self, op, output):
        want = self.expected(op)["crossings"]
        if len(output["crossings"]) != len(want):
            return f"{len(output['crossings'])} crossings, expected {len(want)}"
        tol = self.fp["tolerance"]
        flat = [v for c in output["crossings"] for v in c]
        return compare_vectors(flat, [v for c in want for v in c], tol["rtol"], tol["atol"], "crossing state")


class Hybrid(_RowWorkload):
    """``hybrid_simulate`` for each row and delta, fixed return count; one op is one call.

    Each op starts from a return on the row's hybrid attractor at that delta,
    so its tail period, and hence its signature, is classified.
    """

    name = "hybrid"
    pregenerated_rounds = 64
    trace_rounds = 2

    def group(self, inp):
        return (inp["row"], inp["delta"])

    def run(self, op):
        res = self.mm.hybrid_simulate(self.params[op["row"]], op["delta"], op["z0"], self.fp["n_returns"])
        return {"returns": list(res.returns), "signature": None if res.signature is None else str(res.signature)}

    def check(self, op, output):
        want = self.expected(op)
        if output["signature"] != want["signature"]:
            return f"signature {output['signature']}, expected {want['signature']}"
        tol = self.fp["tolerance"]
        return compare_vectors(output["returns"], want["returns"], tol["rtol"], tol["atol"], "return")


class Maps(Workload):
    """Map-level analysis and synthesis: roundtrip, scan and crossover-segment ops."""

    name = "maps"
    pregenerated_rounds = 512
    trace_rounds = 64
    MIX = {"roundtrip": 8, "scan": 8}  # and one point on each crossover segment

    def group(self, inp):
        return inp["kind"] + str(inp.get("segment", ""))

    def prepare(self):
        import mmopam

        self.mm = mmopam
        self.rhos = {name: _rho(mmopam, name) for name in RHO_SPECS}
        self.geoms = {
            name: mmopam.compute_geometry(mmopam.CanonicalParams(0.0, 0.0, 0.0, 0.0, rho))
            for name, rho in self.rhos.items()
        }

    def _signature(self, pam, max_iters: int) -> str:
        try:
            return str(self.mm.detect_signature(self.mm.iterate_orbit(pam, -0.5, max_iters=max_iters)))
        except self.mm.MmopamError as exc:  # expected outcomes are fingerprinted by class
            return type(exc).__name__

    def run(self, op):
        mm = self.mm
        kind = op["kind"]
        if kind == "scan":
            pam = mm.untransform(mm.TransformedPam(op["a"], op["b"], op["mu"], op["l"]))
            return {"outcome": self._signature(pam, 50_000)}
        if kind == "roundtrip":
            try:
                params = mm.synthesize(mm.PamCoefficients(*op["target"]), self.rhos[op["rho"]])
            except mm.MmopamError as exc:
                return {"outcome": type(exc).__name__}
            geom = self.geoms[op["rho"]]
        else:
            params = mm.CanonicalParams(*op["params"], self.rhos["fixed_rational"])
            geom = self.geoms["fixed_rational"]
        pam = mm.associated_pam(params, geom)
        return {
            "params": [params.alpha, params.beta, params.kappa, params.lam],
            "pam": list(pam.as_tuple()),
            "outcome": self._signature(pam, 100_000),
        }

    def check(self, op, output):
        want = self.expected(op)
        if output["outcome"] != want["outcome"]:
            return f"outcome {output['outcome']}, expected {want['outcome']}"
        tol = self.fp["tolerance"]
        for key in ("params", "pam"):
            if key in want:
                miss = compare_vectors(output.get(key, []), want[key], tol["rtol"], tol["atol"], key)
                if miss:
                    return miss
        return None


class Cli(Workload):
    """Fresh ``python -m mmopam.cli`` processes, one at a time, one per command kind a round."""

    name = "cli"
    pregenerated_rounds = 16
    trace_rounds = 1

    def group(self, inp):
        return inp["kind"]

    def command(self, argv: list[str], spans_path: str | None) -> list[str]:
        if spans_path is None:
            return [sys.executable, "-m", "mmopam.cli", *argv]
        return [sys.executable, "-X", "importtime", str(BENCH_DIR / "cli_shim.py"), spans_path, *argv]

    def run(self, op, spans_path: str | None = None):
        OUT_DIR.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
        try:
            argv = [a.replace("{out}", tmp) for a in op["argv"]]
            proc = subprocess.run(
                self.command(argv, spans_path),
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=60,
            )
            files = {}
            for name in op.get("files", []):
                path = os.path.join(tmp, name)
                if os.path.exists(path):
                    with open(path, encoding="utf-8") as fh:
                        files[name] = fh.read()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return {"exit": proc.returncode, "stdout": proc.stdout, "files": files, "stderr": proc.stderr}

    def check(self, op, output):
        want = self.expected(op)
        if output["exit"] != want["exit"]:
            tail = output["stderr"].strip().splitlines()[-1:] or [""]
            return f"exit {output['exit']}, expected {want['exit']}: {tail[0][:200]}"
        tol = self.fp["tolerance"]
        miss = compare_text(output["stdout"], want["stdout"], tol["rtol"], tol["atol"], "stdout")
        if miss:
            return miss
        for name, text in want["files"].items():
            if name not in output["files"]:
                return f"{name} not written"
            miss = compare_text(output["files"][name], text, tol["rtol"], tol["atol"], name)
            if miss:
                return miss
        return None


WORKLOADS = {cls.name: cls for cls in (Stiff, Hybrid, Maps, Cli)}
