"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that the printed metric names match BENCHMARK.json, that inputs
depend on the seed and only on it, that a perturbed output fails its
fingerprint, that op times are scaled by the reference samples around each
op, that the smoke mode is quick, and that ``run.py`` refuses to run without
the package source.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from time import perf_counter

import workloads
from common import BENCH_DIR, BENCHMARK_JSON, OUT_DIR, REF_EVERY_S, ROOT, SRC, canonical_bytes, load_fingerprints

sys.path.insert(0, str(SRC))  # the package under test, as the workload processes see it


def _run(workload: str, trace: int, cwd=ROOT, smoke: bool = True) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


class MetricNames(unittest.TestCase):
    def test_printed_names_match_benchmark_json(self):
        spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            for workload in ("maps", "cli"):
                with self.subTest(trace=trace, workload=workload):
                    proc = _run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertTrue(result["correct"], proc.stdout)


class Inputs(unittest.TestCase):
    def test_seed_determines_inputs(self):
        for name, cls in workloads.WORKLOADS.items():
            fp = load_fingerprints(name)
            with self.subTest(workload=name):
                a = canonical_bytes(cls(fp).generate(7))
                b = canonical_bytes(cls(fp).generate(7))
                c = canonical_bytes(cls(fp).generate(8))
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)

    def test_every_round_has_the_same_mix(self):
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(load_fingerprints(name))
            mixes = {tuple(sorted(str(wl.group(op)) for op in r)) for r in wl.generate(1)}
            self.assertEqual(len(mixes), 1, name)


class Fingerprints(unittest.TestCase):
    def _check(self, name: str, i: int, perturb) -> tuple[str | None, str | None]:
        wl = workloads.WORKLOADS[name](load_fingerprints(name))
        op = wl.op(i)
        good = copy.deepcopy(wl.expected(op))
        bad = copy.deepcopy(good)
        perturb(bad)
        if name == "cli":
            good["stderr"] = bad["stderr"] = ""
        return wl.check(op, good), wl.check(op, bad)

    def test_perturbed_outputs_fail(self):
        def nudge(values, k, rel):
            values[k] *= 1.0 + rel

        def to_nan(values, k):
            values[k] = float("nan")

        cases = [
            ("stiff", "nudged", lambda out: nudge(out["crossings"][-1], 3, 1e-4)),
            ("stiff", "nan", lambda out: to_nan(out["crossings"][0], 1)),
            ("hybrid", "nudged", lambda out: nudge(out["returns"], -1, 1e-5)),
            ("hybrid", "nan", lambda out: to_nan(out["returns"], 0)),
            ("maps", "nudged", lambda out: nudge(out["params"], 2, 1e-7)),
            ("maps", "nan", lambda out: to_nan(out["pam"], 0)),
            ("cli", "changed", lambda out: out.update(stdout=out["stdout"].replace("^", "^1", 1))),
        ]
        for name, how, perturb in cases:
            wl = workloads.WORKLOADS[name](load_fingerprints(name))
            i = next(i for i, item in enumerate(wl.pool) if name != "maps" or "params" in item["expect"])
            with self.subTest(workload=name, perturbation=how):
                good, bad = self._check(name, i, perturb)
                self.assertIsNone(good)
                self.assertIsNotNone(bad)

    def test_changed_signature_fails(self):
        good, bad = self._check("maps", 0, lambda out: out.update(outcome="2^1"))
        self.assertIsNone(good)
        self.assertIn("outcome", bad)

    def test_hybrid_signatures_are_classified(self):
        # the signature check only bites where the recording classified one
        for item in load_fingerprints("hybrid")["pool"]:
            self.assertIsNotNone(item["expect"]["signature"], item["input"])

    def test_program_output_matches_recording(self):
        wl = workloads.Maps(load_fingerprints("maps"))
        wl.prepare()
        for i in range(0, len(wl.pool), 97):
            op = wl.op(i)
            self.assertIsNone(wl.check(op, wl.run(op)))


class Reference(unittest.TestCase):
    def test_each_op_is_scaled_by_the_samples_around_it(self):
        import run

        # samples 0.5 | op | 1.0 | op | 2.0, 4.0 | op (no sample after it); ops shorter than REF_EVERY_S
        short = [0.1 * REF_EVERY_S, 0.2 * REF_EVERY_S, 0.4 * REF_EVERY_S]
        norm = run.normalized_latencies(short, [0.5, 1.0, 2.0, 4.0], [1, 2, 4])
        self.assertEqual(norm, [short[0] / 0.75, short[1] / 1.5, short[2] / 4.0])

    def test_a_long_op_is_scaled_by_as_many_samples_as_it_lasted(self):
        import run

        # an op of two sample periods takes the two samples on either side of it
        norm = run.normalized_latencies([2 * REF_EVERY_S], [1.0, 1.0, 3.0, 3.0, 5.0, 5.0], [3])
        self.assertEqual(norm, [2 * REF_EVERY_S / 3.0])


class EntryPoint(unittest.TestCase):
    def test_smoke_is_quick(self):
        t0 = perf_counter()
        proc = _run("hybrid", 0)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertLess(perf_counter() - t0, 60.0)
        self.assertTrue(json.loads(proc.stdout.strip().splitlines()[-1])["correct"])

    def test_refuses_without_package_source(self):
        bare = OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(BENCHMARK_JSON, bare / "BENCHMARK.json")
            shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run("maps", 0, cwd=bare, smoke=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
