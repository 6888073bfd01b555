"""Command-line front end.

Subcommands cover the whole toolkit: map iteration and classification
(`pam`), vector-field synthesis (`synth`), full and hybrid simulation
(`simulate`), benchmark verification (`verify-tables`), and the crossover
scan (`crossover`). A single JSON config document with sections
{"pam", "canonical", "sim"} can seed any command; explicit flags override
file values, and a section or key that no command reads is refused.

Exit codes: 0 success, 2 usage error, 3 domain/singularity error,
4 inconclusive (no classifiable pattern, e.g. inside the canard hole).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import plotting
from .errors import DomainError, MmopamError, NotPeriodic
from .family import CanonicalParams, RhoSpec, check_z0, compute_geometry, json_float
from .pam import (
    PamCoefficients,
    Signature,
    TransformedPam,
    detect_signature,
    iterate_orbit,
    lao_bounds,
    sao_bounds,
    transform,
    untransform,
)
from .segments import associated_pam
from .synthesis import synthesize
from .tables import verify_all

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_INCONCLUSIVE = 4

PAM_KEYS = ("a11", "a12", "a21", "a22")
CANONICAL_KEYS = ("alpha", "beta", "kappa", "lam")
SIM_KEYS = ("eps", "delta", "max_slow_time")
# the keys each config section may hold: the ones some command reads
CONFIG_KEYS = {
    "pam": PAM_KEYS,
    "canonical": (*CANONICAL_KEYS, "lambda", "rho", "z0"),
    "sim": (*SIM_KEYS, "initial_state"),
}


# --------------------------------------------------------------------------
# config plumbing


def _usage(msg: str) -> SystemExit:
    print(f"usage error: {msg}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _usage(f"cannot read config {path!r}: {exc}") from exc
    if not (isinstance(config, dict) and all(isinstance(config.get(k, {}), dict) for k in CONFIG_KEYS)):
        raise DomainError("a config must be a JSON object, and so must its pam, canonical and sim sections")
    unknown = [name for name in config if name not in CONFIG_KEYS]
    unknown += [f"{name}.{key}" for name, keys in CONFIG_KEYS.items() for key in config.get(name, {}) if key not in keys]
    if unknown:
        raise DomainError(f"unknown config keys: {', '.join(unknown)}")
    return config


def _merged(section: dict, args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    out = dict(section)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    return out


def _pam_from(args, config: dict) -> PamCoefficients:
    vals = _merged(config.get("pam", {}), args, PAM_KEYS)
    missing = [k for k in PAM_KEYS if k not in vals]
    if missing:
        raise _usage(f"missing map coefficients: {', '.join(missing)}")
    return PamCoefficients(*(json_float(vals, k) for k in PAM_KEYS))


def _rho_from(args, section: dict) -> RhoSpec:
    if getattr(args, "rho", None) is not None:
        if args.rho == "quadratic":
            if args.p is None or args.q is None:
                raise _usage("--rho quadratic requires --p and --q")
            return RhoSpec("quadratic", p=args.p, q=args.q)
        return RhoSpec("fixed_rational")
    if "rho" in section:
        return RhoSpec.from_json_obj(section["rho"])
    return RhoSpec("fixed_rational")


def _canonical_section(config: dict) -> dict:
    """The config's "canonical" section; a "z0" other than 0 raises DomainError."""
    section = dict(config.get("canonical", {}))
    check_z0(section)
    return section


def _canonical_from(args, config: dict) -> CanonicalParams:
    section = _canonical_section(config)
    if "lambda" in section:
        section["lam"] = section.pop("lambda")
    vals = _merged(section, args, CANONICAL_KEYS)
    rho = _rho_from(args, section)
    missing = [k for k in CANONICAL_KEYS if k not in vals]
    if missing:
        if getattr(args, "from_pam", False) or config.get("pam"):
            return synthesize(_pam_from(args, config), rho)
        raise _usage(f"missing vector-field parameters: {', '.join(missing)}")
    return CanonicalParams(*(json_float(vals, k) for k in CANONICAL_KEYS), rho)


def _sim_values(args, config: dict) -> dict:
    """The keys of the merged "sim" section that are present, as numbers; SimConfig holds the defaults."""
    vals = _merged(config.get("sim", {}), args, SIM_KEYS)
    out = {k: json_float(vals, k) for k in SIM_KEYS if k in vals}
    if "initial_state" in vals:
        state = vals["initial_state"]
        if not isinstance(state, list) or len(state) != 3:
            raise DomainError(f"initial_state must be a list of three numbers, got {state!r}")
        out["initial_state"] = tuple(json_float(state, i) for i in range(3))
    return out


def _write_z_csv(path: str, values: list[float]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "Z"])
        for n, z in enumerate(values):
            writer.writerow([n, repr(z)])


# --------------------------------------------------------------------------
# pam subcommands


def cmd_pam_iterate(args) -> int:
    config = _load_config(args.config)
    pam = _pam_from(args, config)
    orbit = iterate_orbit(pam, args.z0, max_iters=args.max_iters)
    if args.out_csv:
        _write_z_csv(args.out_csv, orbit.iterates)
    if args.out_svg:
        plotting.cobweb_plot(pam, orbit.iterates[-min(len(orbit.iterates), 200):], args.out_svg)
    if not orbit.converged:
        print("no periodic pattern detected")
        return EXIT_INCONCLUSIVE
    sig = detect_signature(orbit)
    print(f"period: {orbit.period}")
    print(f"transient: {orbit.transient_length}")
    print(f"signature: {sig}")
    return EXIT_OK


def cmd_pam_signature(args) -> int:
    config = _load_config(args.config)
    pam = _pam_from(args, config)
    orbit = iterate_orbit(pam, args.z0, max_iters=args.max_iters)
    print(detect_signature(orbit))
    return EXIT_OK


def cmd_pam_bounds(args) -> int:
    tp = TransformedPam(a=args.a, b=args.b, mu=args.mu, l=args.l)
    out: dict = {"a": args.a, "b": args.b, "l": args.l}
    if args.L is None and args.s is None:
        raise _usage("provide --L and/or --s")
    # the L^1 window is (mu2, mu1] and the 1^s window is [mu3, mu4), as in pam.atmost_atleast_bounds
    if args.L is not None:
        out["lao_window"] = _interval_obj("L", args.L, *lao_bounds(tp, args.L), False, True)
    if args.s is not None:
        out["sao_window"] = _interval_obj("s", args.s, *sao_bounds(tp, args.s), True, False)
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _interval_obj(key: str, count: int, lower: float, upper: float, lower_closed: bool, upper_closed: bool) -> dict:
    return {key: count, "lower": lower, "upper": upper, "lower_closed": lower_closed, "upper_closed": upper_closed}


def cmd_pam_transform(args) -> int:
    if args.inverse:
        for name in ("a", "b", "mu", "l"):
            if getattr(args, name) is None:
                raise _usage(f"--inverse requires --{name}")
        pam = untransform(TransformedPam(args.a, args.b, args.mu, args.l))
        print(json.dumps({"a11": pam.a11, "a12": pam.a12, "a21": pam.a21, "a22": pam.a22}))
    else:
        config = _load_config(args.config)
        tp = transform(_pam_from(args, config))
        print(json.dumps({"a": tp.a, "b": tp.b, "mu": tp.mu, "l": tp.l}))
    return EXIT_OK


# --------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    config = _load_config(args.config)
    target = _pam_from(args, config)
    rho = _rho_from(args, _canonical_section(config))
    params = synthesize(target, rho)
    text = params.to_json()
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.verify:
        geom = compute_geometry(params)
        got = associated_pam(params, geom)
        for name, g, t in zip(("a11", "a12", "a21", "a22"), got.as_tuple(), target.as_tuple()):
            print(f"residual {name}: {abs(g - t):.3e}", file=sys.stderr)
    return EXIT_OK


# --------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    from .simulate import SimConfig  # here and below: simulate and its solvers load for this command only

    config = _load_config(args.config)
    params = _canonical_from(args, config)
    sim = _sim_values(args, config)
    if args.mode == "hybrid":
        # the hybrid reads only delta, on its own domain delta >= 0; a full-system setting would go unused
        unused = [k for k in sim if k != "delta"] + _given(args, "crossings")
        if unused:
            raise DomainError(f"--mode hybrid takes no {', '.join(unused)}: only --mode full reads them")
        return _simulate_hybrid(args, params, sim.get("delta", SimConfig.delta))
    unused = _given(args, "z_init", "returns")
    if unused:
        raise DomainError(f"--mode full takes no {', '.join(unused)}: only --mode hybrid reads them")
    return _simulate_full(args, params, SimConfig(**sim))


def _given(args, *names: str) -> list[str]:
    """The names among ``names`` whose flag was given on the command line (their default is None)."""
    return [name for name in names if getattr(args, name) is not None]


def _simulate_hybrid(args, params: CanonicalParams, delta: float) -> int:
    from .simulate import hybrid_simulate

    z_init = -0.5 if args.z_init is None else args.z_init
    n_returns = 40 if args.returns is None else args.returns
    result = hybrid_simulate(params, delta, z_init, n_returns)
    if args.out_prefix:
        _write_z_csv(args.out_prefix + "_returns.csv", result.returns)
    for z in result.returns:
        print(repr(z))
    if result.signature is None:
        print("signature: none detected")
        return EXIT_INCONCLUSIVE
    print(f"signature: {result.signature}")
    if args.compare_pam:
        return _report_match(params, str(result.signature))
    return EXIT_OK


def _simulate_full(args, params: CanonicalParams, cfg) -> int:
    from .simulate import canard_hole_radius, classify_series, integrate_full

    geom = compute_geometry(params)
    n_crossings = 25 if args.crossings is None else args.crossings
    try:
        series = integrate_full(params, cfg, n_crossings=n_crossings)
    except NotPeriodic as exc:
        if args.out_prefix and exc.series is not None:
            _write_full_outputs(args.out_prefix, exc.series, cfg.delta)
        raise
    if args.out_prefix:
        _write_full_outputs(args.out_prefix, series, cfg.delta)
    hole = canard_hole_radius(cfg.eps, cfg.delta)
    Zs = [z / cfg.delta for *_, z in series.crossing_states]
    flagged = sum(abs(Z) < hole for Z in Zs)
    if flagged:
        print(f"canard-hole flagged crossings: {flagged}/{len(Zs)} (|Z| < {hole:.3g})", file=sys.stderr)
    try:
        sig = classify_series(series, geom)
    except NotPeriodic as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    print(f"signature: {sig}")
    if args.compare_pam:
        return _report_match(params, str(sig))
    return EXIT_OK


def _write_full_outputs(prefix: str, series, delta: float) -> None:
    """The series CSV, the time-series and x-z SVGs and the crossings JSON of one full run."""
    from .simulate import visual_rescale

    series.to_csv(prefix + "_series.csv")
    rescaled = visual_rescale(series, delta=delta)
    t, x, y, z = rescaled.t, rescaled.x, rescaled.y, rescaled.z
    plotting.line_plot([(t, x), (t, y), (t, z)], prefix + "_timeseries.svg", x_label="t", y_label="x, y, z")
    plotting.line_plot([(x, z)], prefix + "_xz.svg", x_label="x", y_label="z")
    crossings = [{"t": t, "x": x, "y": y, "z": z, "Z": z / delta} for t, x, y, z in series.crossing_states]
    with open(prefix + "_crossings.json", "w", encoding="utf-8") as fh:
        json.dump(crossings, fh, indent=2)


def _report_match(params: CanonicalParams, observed: str) -> int:
    geom = compute_geometry(params)
    pam = associated_pam(params, geom)
    try:
        predicted = str(detect_signature(iterate_orbit(pam, -0.5)))
    except MmopamError as exc:
        print(f"map prediction unavailable: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    match = predicted == observed
    print(f"map-predicted signature: {predicted}")
    print(f"match: {'true' if match else 'false'}")
    return EXIT_OK


# --------------------------------------------------------------------------
# verify-tables


def cmd_verify_tables(args) -> int:
    reports = verify_all()
    for rep in reports:
        print(rep.summary())
        print()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([rep.to_json_obj() for rep in reports], fh, indent=2)
    return EXIT_OK


# --------------------------------------------------------------------------
# crossover


def cmd_crossover(args) -> int:
    rho = RhoSpec("fixed_rational")
    probe = CanonicalParams(0.0, 0.0, 0.0, 0.0, rho)
    geom = compute_geometry(probe)
    grid = args.grid
    if grid < 2:
        raise _usage(f"--grid must be at least 2, got {grid}")
    # the scan maps every error to "(none)", so a start on which every point fails is refused here
    if not math.isfinite(args.z_init):
        raise DomainError(f"--z-init must be finite, got {args.z_init}")
    windows: list[tuple[float, float, str]] = []
    records = []
    for i in range(grid):
        t = i / (grid - 1)
        kappa = args.kappa1 + t * (args.kappa2 - args.kappa1)
        lam = args.lambda1 + t * (args.lambda2 - args.lambda1)
        params = CanonicalParams(args.alpha, args.beta, kappa, lam, rho)
        pam = associated_pam(params, geom)
        try:
            sig = str(detect_signature(iterate_orbit(pam, args.z_init)))
        except MmopamError:
            sig = "(none)"
        records.append((t, kappa, lam, sig, pam.a12))
        if windows and windows[-1][2] == sig:
            windows[-1] = (windows[-1][0], t, sig)
        else:
            windows.append((t, t, sig))
    print(f"scan: {grid} points, kappa {args.kappa1} -> {args.kappa2}, lambda {args.lambda1} -> {args.lambda2}")
    for lo, hi, sig in windows:
        k_lo = args.kappa1 + lo * (args.kappa2 - args.kappa1)
        k_hi = args.kappa1 + hi * (args.kappa2 - args.kappa1)
        print(f"  t in [{lo:.4f}, {hi:.4f}] (kappa {k_lo:.4f}..{k_hi:.4f}): {sig}")
    if args.out_svg:
        ts = [r[0] for r in records]
        periods = [0 if r[3] == "(none)" else Signature.from_string(r[3]).period for r in records]
        plotting.line_plot([(ts, periods)], args.out_svg, x_label="scan parameter", y_label="pattern period")
    if args.out_csv:
        with open(args.out_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "kappa", "lambda", "signature", "mu"])
            for t, kappa, lam, sig, mu in records:
                writer.writerow([f"{t:.6f}", repr(kappa), repr(lam), sig, repr(mu)])
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmopam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pam_flags(p):
        p.add_argument("--config", help="JSON config document")
        for name in ("--a11", "--a12", "--a21", "--a22"):
            p.add_argument(name, type=float)

    pam_parser = sub.add_parser("pam", help="piecewise affine map operations")
    pam_sub = pam_parser.add_subparsers(dest="pam_command", required=True)

    p = pam_sub.add_parser("iterate", help="iterate an orbit; optional CSV and cobweb SVG")
    add_pam_flags(p)
    p.add_argument("--z0", type=float, default=-0.5)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--out-csv")
    p.add_argument("--out-svg")
    p.set_defaults(func=cmd_pam_iterate)

    p = pam_sub.add_parser("signature", help="print the detected signature")
    add_pam_flags(p)
    p.add_argument("--z0", type=float, default=-0.5)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.set_defaults(func=cmd_pam_signature)

    p = pam_sub.add_parser("bounds", help="mu-windows for pure patterns, as JSON")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--l", type=float, required=True)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--L", type=int)
    p.add_argument("--s", type=int)
    p.set_defaults(func=cmd_pam_bounds)

    p = pam_sub.add_parser("transform", help="convert between coefficient forms")
    add_pam_flags(p)
    p.add_argument("--inverse", action="store_true")
    for name in ("--a", "--b", "--mu", "--l"):
        p.add_argument(name, type=float)
    p.set_defaults(func=cmd_pam_transform)

    p = sub.add_parser("synth", help="solve for vector-field parameters realizing a map")
    add_pam_flags(p)
    p.add_argument("--rho", choices=["fixed_rational", "quadratic"])
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="full stiff integration or hybrid reduced simulation")
    add_pam_flags(p)
    p.add_argument("--mode", choices=["full", "hybrid"], default="full")
    p.add_argument("--from-pam", action="store_true", help="derive vector-field parameters from map flags")
    for name in ("--alpha", "--beta", "--kappa", "--lam"):
        p.add_argument(name, type=float)
    p.add_argument("--rho", choices=["fixed_rational", "quadratic"])
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--max-slow-time", type=float, dest="max_slow_time")
    p.add_argument("--crossings", type=int, help="full mode: section crossings to integrate (default 25)")
    p.add_argument("--z-init", type=float, dest="z_init", help="hybrid mode: initial Z (default -0.5)")
    p.add_argument("--returns", type=int, help="hybrid mode: number of returns (default 40)")
    p.add_argument("--compare-pam", action="store_true")
    p.add_argument("--out-prefix")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-tables", help="re-derive all bundled benchmark rows")
    p.add_argument("--json", help="write the machine-readable report here")
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("crossover", help="scan (kappa, lambda) between two endpoints")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--kappa1", type=float, required=True)
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--kappa2", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--z-init", type=float, default=-0.5)
    p.add_argument("--out-svg")
    p.add_argument("--out-csv")
    p.set_defaults(func=cmd_crossover)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except NotPeriodic as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except MmopamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
