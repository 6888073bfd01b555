"""Bundled benchmark rows and the harnesses that re-derive them.

Two reference data sets are frozen here:

* ``SYNTHESIS_BENCHMARKS``: 16 target maps with the (alpha, beta, kappa,
  lambda) values that realize them under the fixed rational weight, printed
  to 4 decimals. Two sweeps are included, one through 1^s signatures and one
  through L^1 signatures, each varying only the Z < 0 offset.
* ``MU_WINDOW_BENCHMARKS``: 11 transformed maps with the predicted
  mu-window endpoints for their pure signature and the mu value actually
  used. One lower endpoint (row 8^1) is known to disagree with the bound
  formulas in the 4th decimal; the harness recomputes from the formulas, so
  that row reports the discrepancy rather than hiding it.
"""

from __future__ import annotations

from .errors import FrozenValue, MmopamError, Value
from .family import FIXED_RATIONAL, RhoSpec
from .pam import (
    PamCoefficients,
    Signature,
    TransformedPam,
    detect_signature,
    iterate_orbit,
    lao_bounds,
    sao_bounds,
    untransform,
)
from .synthesis import synthesize


class SynthesisBenchmarkRow(FrozenValue):
    _fields = ("signature", "a11", "a12", "a21", "a22", "alpha", "beta", "kappa", "lam")

    def __init__(self, signature: str, a11: float, a12: float, a21: float, a22: float,
                 alpha: float, beta: float, kappa: float, lam: float):
        vars(self).update(signature=signature, a11=a11, a12=a12, a21=a21, a22=a22,
                          alpha=alpha, beta=beta, kappa=kappa, lam=lam)

    @property
    def pam(self) -> PamCoefficients:
        return PamCoefficients(self.a11, self.a12, self.a21, self.a22)


SYNTHESIS_BENCHMARKS: tuple[SynthesisBenchmarkRow, ...] = (
    SynthesisBenchmarkRow("1^1", 0.3, 1.0, 0.9, -2.0, 0.8743, 0.0240, 27.2674, -64.5764),
    SynthesisBenchmarkRow("1^2", 0.3, 3.0, 0.9, -2.0, 0.8743, 0.0240, 28.2364, -73.1866),
    SynthesisBenchmarkRow("1^3", 0.3, 7.0, 0.9, -2.0, 0.8743, 0.0240, 30.1744, -90.4070),
    SynthesisBenchmarkRow("1^4", 0.3, 10.0, 0.9, -2.0, 0.8743, 0.0240, 31.6279, -103.3223),
    SynthesisBenchmarkRow("1^5", 0.3, 12.0, 0.9, -2.0, 0.8743, 0.0240, 32.5969, -111.9325),
    SynthesisBenchmarkRow("1^6", 0.3, 15.0, 0.9, -2.0, 0.8743, 0.0240, 34.0504, -124.8478),
    SynthesisBenchmarkRow("1^7", 0.3, 20.0, 0.9, -2.0, 0.8743, 0.0240, 36.4729, -146.3733),
    SynthesisBenchmarkRow("1^8", 0.3, 25.0, 0.9, -2.0, 0.8743, 0.0240, 38.8954, -167.8987),
    SynthesisBenchmarkRow("1^1b", 0.9, 3.0, 0.4, -3.0, -0.5065, 1.0238, 3.2091, -7.7202),
    SynthesisBenchmarkRow("2^1", 0.9, 1.5, 0.4, -3.0, -0.5065, 1.0238, 3.9766, -4.4118),
    SynthesisBenchmarkRow("3^1", 0.9, 1.0, 0.4, -3.0, -0.5065, 1.0238, 4.2325, -3.3088),
    SynthesisBenchmarkRow("4^1", 0.9, 0.7, 0.4, -3.0, -0.5065, 1.0238, 4.3860, -2.6471),
    SynthesisBenchmarkRow("5^1", 0.9, 0.5, 0.4, -3.0, -0.5065, 1.0238, 4.4883, -2.2059),
    SynthesisBenchmarkRow("6^1", 0.9, 0.4, 0.4, -3.0, -0.5065, 1.0238, 4.5395, -1.9853),
    SynthesisBenchmarkRow("7^1", 0.9, 0.3, 0.4, -3.0, -0.5065, 1.0238, 4.6162, -1.7647),
    SynthesisBenchmarkRow("8^1", 0.9, 0.25, 0.4, -3.0, -0.5065, 1.0238, 4.6418, -1.6544),
)


class MuWindowBenchmarkRow(FrozenValue):
    _fields = ("signature", "a", "b", "l", "mu_lo", "mu_hi", "mu_actual")

    def __init__(self, signature: str, a: float, b: float, l: float, mu_lo: float, mu_hi: float, mu_actual: float):
        vars(self).update(signature=signature, a=a, b=b, l=l, mu_lo=mu_lo, mu_hi=mu_hi, mu_actual=mu_actual)

    @property
    def pam(self) -> PamCoefficients:
        return untransform(TransformedPam(self.a, self.b, self.mu_actual, self.l))


MU_WINDOW_BENCHMARKS: tuple[MuWindowBenchmarkRow, ...] = (
    MuWindowBenchmarkRow("1^2", 0.3, 0.9, -5.0, 2.9262, 3.5055, 3.0),
    MuWindowBenchmarkRow("1^3", 0.3, 0.9, -9.0, 6.5313, 7.0921, 7.0),
    MuWindowBenchmarkRow("1^4", 0.3, 0.9, -11.0, 8.8076, 9.2376, 9.0),
    MuWindowBenchmarkRow("1^8", 0.3, 0.9, -2.28, 2.0932, 2.1197, 2.1),
    MuWindowBenchmarkRow("1^9", 0.3, 0.9, -2.68, 2.4955, 2.5205, 2.5),
    MuWindowBenchmarkRow("1^25", 0.5, 0.94, -15.25, 14.9889, 15.0064, 15.0),
    MuWindowBenchmarkRow("2^1", 0.9, 0.8, -7.2, 2.1520, 2.4732, 2.2),
    MuWindowBenchmarkRow("3^1", 0.9, 0.8, -6.5, 1.3778, 1.5678, 1.5),
    MuWindowBenchmarkRow("6^1", 0.9, 0.8, -5.6, 0.5704, 0.6410, 0.6),
    MuWindowBenchmarkRow("8^1", 0.9, 0.9, -6.5, 0.4675, 0.5075, 0.5),
    MuWindowBenchmarkRow("9^1", 0.9, 0.9, -9.6, 0.5710, 0.6344, 0.6),
)


class RowReport(Value):
    _fields = ("label", "passed", "details")

    def __init__(self, label: str, passed: bool, details: dict):
        self.label, self.passed, self.details = label, passed, details

    def to_json_obj(self) -> dict:
        return {"label": self.label, "passed": self.passed, **self.details}


class TableReport(Value):
    _fields = ("name", "rows")

    def __init__(self, name: str, rows: list[RowReport]):
        self.name, self.rows = name, rows

    @property
    def n_passed(self) -> int:
        return sum(r.passed for r in self.rows)

    @property
    def all_passed(self) -> bool:
        return self.n_passed == len(self.rows)

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "passed": self.n_passed,
            "total": len(self.rows),
            "rows": [r.to_json_obj() for r in self.rows],
        }

    def summary(self) -> str:
        lines = [f"{self.name}: {self.n_passed}/{len(self.rows)} rows pass"]
        for r in self.rows:
            status = "pass" if r.passed else "FAIL"
            extras = ", ".join(f"{k}={v}" for k, v in r.details.items())
            lines.append(f"  [{status}] {r.label}: {extras}")
        return "\n".join(lines)


# The reference rows are printed to 4 decimals: a synthesized parameter must match its
# row within SYNTHESIS_TOL, a recomputed mu-window endpoint within WINDOW_TOL.
SYNTHESIS_TOL = 1e-3
WINDOW_TOL = 1e-4


def verify_synthesis_benchmarks() -> TableReport:
    """Re-synthesize every benchmark target and compare printed parameters within SYNTHESIS_TOL."""
    rho = RhoSpec(FIXED_RATIONAL)

    def check(row: SynthesisBenchmarkRow) -> RowReport:
        try:
            got = synthesize(row.pam, rho)
        except MmopamError as exc:
            return RowReport(row.signature, False, {"error": str(exc)})
        devs = {
            "alpha": abs(got.alpha - row.alpha),
            "beta": abs(got.beta - row.beta),
            "kappa": abs(got.kappa - row.kappa),
            "lambda": abs(got.lam - row.lam),
        }
        worst = max(devs.values())
        return RowReport(
            row.signature,
            worst <= SYNTHESIS_TOL,
            {"max_abs_dev": f"{worst:.2e}", "computed": f"({got.alpha:.4f}, {got.beta:.4f}, {got.kappa:.4f}, {got.lam:.4f})"},
        )

    return TableReport("synthesis parameter match", [check(row) for row in SYNTHESIS_BENCHMARKS])


# verify_signature_benchmarks iterates each map from both sides of the jump.
SIGNATURE_Z0S = (-0.5, 0.5)


def verify_signature_benchmarks() -> TableReport:
    """Iterate each benchmark map from every SIGNATURE_Z0S start and compare the detected signature."""

    def check(row: SynthesisBenchmarkRow) -> RowReport:
        expected = Signature.from_string(row.signature.rstrip("b"))
        got = []
        for z0 in SIGNATURE_Z0S:
            try:
                got.append(detect_signature(iterate_orbit(row.pam, z0)))
            except MmopamError as exc:
                return RowReport(row.signature, False, {"error": str(exc), "from": z0})
        ok = all(g == expected for g in got)
        return RowReport(row.signature, ok, {"detected": str(got[0])})

    return TableReport("signature match", [check(row) for row in SYNTHESIS_BENCHMARKS])


def verify_mu_window_benchmarks() -> TableReport:
    """Recompute mu-window endpoints and check membership of the actual mu.

    Endpoint values are compared to the printed 4-decimal references within
    WINDOW_TOL; closure conventions differ between the printed windows and the
    bound statements, so only endpoint values and interior membership are compared.
    """

    def check(row: MuWindowBenchmarkRow) -> RowReport:
        tp = TransformedPam(row.a, row.b, row.mu_actual, row.l)
        sig = Signature.from_string(row.signature)
        (L, s) = sig.segments[0]
        lo, hi = sao_bounds(tp, s) if L == 1 else lao_bounds(tp, L)
        dev = max(abs(lo - row.mu_lo), abs(hi - row.mu_hi))
        inside = lo < row.mu_actual < hi
        return RowReport(
            row.signature,
            dev <= WINDOW_TOL and inside,
            {"endpoints": f"({lo:.4f}, {hi:.4f})", "max_abs_dev": f"{dev:.2e}", "mu_inside": inside},
        )

    return TableReport("mu-window match", [check(row) for row in MU_WINDOW_BENCHMARKS])


def verify_all() -> list[TableReport]:
    return [verify_synthesis_benchmarks(), verify_signature_benchmarks(), verify_mu_window_benchmarks()]
