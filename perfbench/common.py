"""Shared helpers of the benchmark: paths, the pinned child environment,
fingerprint loading and tolerant output comparison.

This module imports nothing from mmopam, so ``run.py`` stays free of the
package it measures.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "mmopam" / "__init__.py"
OUT_DIR = ROOT / ".perfbench_out"
FINGERPRINTS = BENCH_DIR / "fingerprints"  # one <workload>.json each
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# Every process that runs package code gets one BLAS/OpenMP thread, so the
# single closed-loop client is the only source of parallelism (apart from the
# thread pool inside tables.verify_all, which the program starts itself).
# Operation time per sample of the reference computation (reference.py).
REF_EVERY_S = 0.1

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    """Environment for workload and CLI processes: source tree first, threads pinned."""
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def load_fingerprints(workload: str) -> dict:
    """Input pool and recorded outputs of one workload."""
    with open(FINGERPRINTS / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def canonical_bytes(obj) -> bytes:
    """Byte encoding used for the inputs digest; identical objects give identical bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def digest(obj) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


# --------------------------------------------------------------------------
# tolerant comparison


def compare_vectors(got, want, rtol: float, atol: float, what: str) -> str | None:
    """None when every entry matches, else a one-line description of the first miss.

    A NaN never matches.
    """
    if len(got) != len(want):
        return f"{what}: {len(got)} values, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if not abs(g - w) <= atol + rtol * abs(w):
            return f"{what}[{i}] = {g!r}, expected {w!r} (rtol {rtol:g}, atol {atol:g})"
    return None


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _last_digit_unit(token: str) -> float:
    """Value of one unit in the last printed digit of a numeric token."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.split(".", 1)[1]) if "." in mantissa else 0
    return 10.0 ** (int(exponent or 0) - decimals)


def compare_text(got: str, want: str, rtol: float, atol: float, what: str) -> str | None:
    """Compare program text output: words exactly, integers exactly, reals with tolerance.

    A real printed with few digits may differ from the recording by one unit in
    its last printed digit, since a change of rounding can flip that digit.
    """
    g_words, w_words = _NUMBER.split(got), _NUMBER.split(want)
    if g_words != w_words:
        for i, (a, b) in enumerate(zip(g_words, w_words)):
            if a != b:
                return f"{what}: text differs at segment {i}: {a[:60]!r} vs {b[:60]!r}"
        return f"{what}: {len(g_words)} text segments, expected {len(w_words)}"
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        if not any(c in b for c in ".eE"):
            if a != b:
                return f"{what}: integer {a} printed, expected {b}"
            continue
        tol = atol + max(rtol * abs(float(b)), 1.5 * _last_digit_unit(b))
        if not abs(float(a) - float(b)) <= tol:
            return f"{what}: {a} printed, expected {b}"
    return None


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)
