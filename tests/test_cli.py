import json
import os
import subprocess
import sys

import pytest

import mmopam
from mmopam.cli import main
from mmopam.pam import PamCoefficients
from mmopam.plotting import PALETTE, Axes, cobweb_plot


CROSSOVER_SEGMENT = [
    "--alpha", "-0.0610", "--beta", "0.2430",
    "--kappa1", "24.4916", "--lambda1", "-96.1819",
    "--kappa2", "24.5673", "--lambda2", "-81.8569",
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pam_signature(capsys):
    code, out, _ = run(capsys, "pam", "signature", "--a11", "0.3", "--a12", "7", "--a21", "0.9", "--a22", "-2")
    assert code == 0
    assert out.strip() == "1^3"


def test_pam_signature_missing_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pam", "signature", "--a11", "0.3"])
    assert exc.value.code == 2


def test_pam_bounds_reference_row(capsys):
    code, out, _ = run(capsys, "pam", "bounds", "--a", "0.9", "--b", "0.8", "--l", "-7.2", "--L", "2")
    assert code == 0
    win = json.loads(out)["lao_window"]
    assert round(win["lower"], 4) == 2.1520
    assert round(win["upper"], 4) == 2.4733


def test_pam_bounds_requires_L_or_s(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pam", "bounds", "--a", "0.5", "--b", "0.5", "--l", "-2"])
    assert exc.value.code == 2


def test_pam_bounds_domain_error_exit(capsys):
    code, _, err = run(capsys, "pam", "bounds", "--a", "1.5", "--b", "0.5", "--l", "-2", "--L", "2")
    assert code == 3
    assert "error" in err


def test_pam_transform(capsys):
    code, out, _ = run(capsys, "pam", "transform", "--a11", "0.3", "--a12", "7", "--a21", "0.9", "--a22", "-2")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"a": 0.3, "b": 0.9, "mu": 7.0, "l": -9.0}


def test_pam_transform_inverse(capsys):
    code, out, _ = run(capsys, "pam", "transform", "--inverse", "--a", "0.3", "--b", "0.9", "--mu", "7", "--l", "-9")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"a11": 0.3, "a12": 7.0, "a21": 0.9, "a22": -2.0}


def test_pam_iterate_writes_artifacts(capsys, tmp_path):
    csv_path = tmp_path / "orbit.csv"
    svg_path = tmp_path / "cobweb.svg"
    code, out, _ = run(
        capsys, "pam", "iterate",
        "--a11", "0.5", "--a12", "-1", "--a21", "0.5", "--a22", "-3",
        "--out-csv", str(csv_path), "--out-svg", str(svg_path),
    )
    assert code == 0
    assert "signature: 1^0" in out
    assert "period: 1" in out
    assert csv_path.read_text().startswith("n,Z")
    assert svg_path.read_text().startswith("<?xml")


def test_cobweb_draws_the_iterates_it_is_given(tmp_path):
    # the staircase runs through consecutive pairs of the list, here no orbit of the map: (z, z), then (z, w) and
    # (w, w) for each pair (z, w)
    svg_path = tmp_path / "cobweb.svg"
    cobweb_plot(PamCoefficients(0.3, 7.0, 0.9, -2.0), [-1.0, 2.0, 0.5], str(svg_path))
    staircase = [line for line in svg_path.read_text().splitlines() if f'stroke="{PALETTE[2]}"' in line]
    ax = Axes(-1.3, 2.3, -1.3, 2.3)  # [min(iterates, 0), max(iterates, 0)] padded by a tenth of its width
    corners = [(-1.0, -1.0), (-1.0, 2.0), (2.0, 2.0), (2.0, 0.5), (0.5, 0.5)]
    points = " ".join(f"{px:.2f},{py:.2f}" for px, py in (ax.to_px(x, y) for x, y in corners))
    assert len(staircase) == 1 and f'points="{points}"' in staircase[0]


def test_synth_matches_reference(capsys):
    code, out, _ = run(capsys, "synth", "--a11", "0.3", "--a12", "7", "--a21", "0.9", "--a22", "-2")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["alpha"] - 0.8743) < 1e-3
    assert abs(obj["kappa"] - 30.1744) < 1e-3
    assert abs(obj["lambda"] - -90.4070) < 1e-3


def test_synth_quadratic_rho(capsys):
    code, out, _ = run(
        capsys, "synth", "--a11", "0.3", "--a12", "7", "--a21", "0.9", "--a22", "-2",
        "--rho", "quadratic", "--p", "1", "--q", "1", "--verify",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["rho"] == {"quadratic": {"p": 1.0, "q": 1.0}}


def test_synth_invalid_target_exit(capsys):
    code, _, err = run(capsys, "synth", "--a11", "0", "--a12", "7", "--a21", "0.9", "--a22", "-2")
    assert code == 3


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"pam": {"a11": 0.3, "a12": 1.0, "a21": 0.9, "a22": -2.0}}))
    code, out, _ = run(capsys, "pam", "signature", "--config", str(cfg))
    assert code == 0
    assert out.strip() == "1^1"
    # flag overrides the file's a12
    code, out, _ = run(capsys, "pam", "signature", "--config", str(cfg), "--a12", "7")
    assert out.strip() == "1^3"


@pytest.mark.parametrize("command", ["iterate", "signature"])
def test_max_iters_flag_is_gone(capsys, command):
    # both commands iterate up to iterate_orbit's default of 100,000
    with pytest.raises(SystemExit) as exc:
        main(["pam", command, "--a11", "0.3", "--a12", "7", "--a21", "0.9", "--a22", "-2", "--max-iters", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-iters 10" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, content",
    [("missing.json", None), ("a-directory", "dir"), ("truncated.json", b'{"pam": {'), ("utf16.json", b"\xff\xfe")],
    ids=["missing", "directory", "invalid-json", "undecodable"],
)
def test_unreadable_config_is_a_usage_error(capsys, tmp_path, name, content):
    path = tmp_path / name
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        main(["pam", "signature", "--config", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage error: cannot read config")


@pytest.mark.parametrize("z0, code", [(0.0, 0), (0.05, 3)])
def test_config_canonical_z0_must_be_zero(capsys, tmp_path, z0, code):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "pam": {"a11": 0.3, "a12": 1.0, "a21": 0.9, "a22": -2.0},
        "canonical": {"rho": "fixed_rational", "z0": z0},
    }))
    got, out, err = run(capsys, "synth", "--config", str(cfg))
    assert got == code
    got, out, err = run(
        capsys, "simulate", "--mode", "hybrid", "--config", str(cfg), "--delta", "0", "--returns", "40",
    )
    assert got == code
    if code == 0:
        assert "signature: 1^1" in out
    else:
        assert "z0" in err


def test_simulate_hybrid_delta_zero(capsys, tmp_path):
    prefix = str(tmp_path / "run")
    code, out, _ = run(
        capsys, "simulate", "--mode", "hybrid",
        "--a11", "0.3", "--a12", "1", "--a21", "0.9", "--a22", "-2", "--from-pam",
        "--delta", "0", "--z-init", "-0.5", "--returns", "40",
        "--compare-pam", "--out-prefix", prefix,
    )
    assert code == 0
    assert "signature: 1^1" in out
    assert "match: true" in out
    returns_file = tmp_path / "run_returns.csv"
    assert returns_file.exists()


def test_simulate_full_too_few_crossings(capsys, tmp_path):
    """Exit 4 names the span integrated, the budget, and --out-prefix still gets the partial run."""
    prefix = str(tmp_path / "run")
    argv = ["simulate", "--mode", "full", "--from-pam", "--a11", "0.3", "--a12", "7", "--a21", "0.9", "--a22", "-2",
            "--eps", "1e-5", "--delta", "1e-2"]
    code, _, err = run(capsys, *argv, "--max-slow-time", "3.5", "--crossings", "10", "--out-prefix", prefix)
    assert code == 4
    assert "only 4 of 10 section crossings within 3.5 slow-time units" in err
    for suffix, n_curves, labels in (("_timeseries.svg", 3, ("t", "x, y, z")), ("_xz.svg", 1, ("x", "z"))):
        svg = (tmp_path / f"run{suffix}").read_text()
        assert svg.count("<polyline") == n_curves
        assert all(f">{label}</text>" in svg for label in labels)
    assert len(json.loads((tmp_path / "run_crossings.json").read_text())) == 4
    assert (tmp_path / "run_series.csv").read_text().splitlines()[-1].split(",")[0] == "3.5"
    code, _, err = run(capsys, *argv, "--max-slow-time", "21")
    assert code == 4
    assert "section crossings within 21 slow-time units" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["pam", "signature", "--a11", "0.3", "--a12", "1", "--a21", "0.9", "--a22", "nan"],
        ["synth", "--a11", "0.3", "--a12", "nan", "--a21", "0.9", "--a22", "-2"],
        ["pam", "bounds", "--a", "0.3", "--b", "0.9", "--l", "nan", "--L", "2"],
        ["pam", "bounds", "--a", "0.3", "--b", "0.9", "--l", "-9", "--mu", "inf", "--s", "2"],
        ["pam", "transform", "--inverse", "--a", "0.3", "--b", "0.9", "--mu=-inf", "--l", "-9"],
    ],
    ids=["signature-a22-nan", "synth-a12-nan", "bounds-l-nan", "bounds-mu-inf", "transform-mu-inf"],
)
def test_non_finite_map_coefficients_exit_3(capsys, argv):
    # before, signature iterated 100k times and exited 4, synth printed "kappa": NaN (invalid JSON)
    # and bounds printed windows; a non-finite coefficient is a domain error
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: map coefficients must be finite")


@pytest.mark.parametrize(
    "extra, name",
    [(["--crossings", "0"], "n_crossings"), (["--crossings", "-3"], "n_crossings")],
    ids=["crossings-0", "crossings-negative"],
)
def test_simulate_full_invalid_section_inputs_exit_3(capsys, extra, name):
    argv = ["simulate", "--mode", "full", "--from-pam", "--a11", "0.3", "--a12", "1", "--a21", "0.9", "--a22", "-2",
            "--eps", "1e-5", "--delta", "1e-2"]
    code, out, err = run(capsys, *argv, *extra)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {name} must be")


@pytest.mark.parametrize(
    "argv, message, config",
    [
        (["pam", "signature", "--a11", "0.3", "--a12", "1", "--a21", "0.9", "--a22", "-2", "--z0", "nan"], "Z0 must be finite", None),
        (["pam", "iterate", "--a11", "0.3", "--a12", "1", "--a21", "0.9", "--a22", "-2", "--z0", "inf"], "Z0 must be finite", None),
        (["crossover", *CROSSOVER_SEGMENT, "--grid", "3", "--z-init", "nan"], "--z-init must be finite", None),
        (["simulate", "--mode", "hybrid", "--alpha", "0.1", "--beta", "0.2", "--kappa", "1", "--lam", "nan", "--returns", "5"],
         "vector-field parameters must be finite", None),
        (["simulate", "--mode", "full", "--alpha", "inf", "--beta", "0.2", "--kappa", "1", "--lam", "1"],
         "vector-field parameters must be finite", None),
        (["simulate", "--mode", "full"], "initial_state must be None or three finite numbers",
         {"canonical": {"alpha": 0.87, "beta": 0.02, "kappa": 30.0, "lambda": -90.0},
          "sim": {"initial_state": [float("nan"), 0.0, 0.0]}}),
    ],
    ids=["signature-z0-nan", "iterate-z0-inf", "crossover-z-init-nan", "hybrid-lam-nan", "full-alpha-inf",
         "config-initial-state-nan"],
)
def test_non_finite_start_and_tolerances_exit_3(capsys, tmp_path, argv, message, config):
    # a nan start never recurs and a nan parameter gives nan everywhere: both are refused before any work
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_crossover_grid_below_two_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["crossover", *CROSSOVER_SEGMENT, "--grid", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--grid must be at least 2" in captured.err


def test_verify_tables(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-tables", "--json", str(report_path))
    assert code == 0
    assert "signature match: 16/16" in out
    report = json.loads(report_path.read_text())
    assert len(report) == 3
    assert report[1]["passed"] == 16


def test_crossover_degenerate_endpoints(capsys):
    # identical endpoints: a single signature across the whole scan
    code, out, _ = run(
        capsys, "crossover",
        "--alpha", "-0.0610", "--beta", "0.2430",
        "--kappa1", "24.4916", "--lambda1", "-96.1819",
        "--kappa2", "24.4916", "--lambda2", "-96.1819",
        "--grid", "5",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip().startswith("t in")]
    assert len(lines) == 1
    assert lines[0].rstrip().endswith("2^1")


def test_crossover_finds_composite(capsys, tmp_path):
    svg = tmp_path / "scan.svg"
    csv_out = tmp_path / "scan.csv"
    code, out, _ = run(
        capsys, "crossover",
        "--alpha", "-0.0610", "--beta", "0.2430",
        "--kappa1", "24.4916", "--lambda1", "-96.1819",
        "--kappa2", "24.5673", "--lambda2", "-81.8569",
        "--grid", "21", "--out-svg", str(svg), "--out-csv", str(csv_out),
    )
    assert code == 0
    assert "2^1 3^1" in out
    assert svg.exists() and csv_out.exists()


def test_crossover_csv_columns_are_numbers(capsys, tmp_path):
    csv_out = tmp_path / "scan.csv"
    code, _, _ = run(
        capsys, "crossover",
        "--alpha", "-0.0610", "--beta", "0.2430",
        "--kappa1", "24.4916", "--lambda1", "-96.1819",
        "--kappa2", "24.5673", "--lambda2", "-81.8569",
        "--grid", "3", "--out-csv", str(csv_out),
    )
    assert code == 0
    rows = [line.split(",") for line in csv_out.read_text().splitlines()[1:]]
    assert len(rows) == 3
    for t, kappa, lam, _, mu in rows:
        for text in (t, kappa, lam, mu):
            float(text)


ROW_1_3 = ["--a11", "0.3", "--a12", "7", "--a21", "0.9", "--a22", "-2"]

IMPORT_PROBE = """
import contextlib, io, json, sys

def loaded():
    # the modules of each package named in sys.argv[1] that are loaded now
    return {pkg: sorted(m for m in sys.modules if m.split(".")[0] == pkg) for pkg in json.loads(sys.argv[1])}

import mmopam
after_import = loaded()
from mmopam.cli import main
after_import_cli = loaded()

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)

for argv in json.loads(sys.argv[2]):
    assert run(argv) == 0, argv
after_maps = loaded()
assert run(json.loads(sys.argv[3])) == 4  # 3 crossings are too few to classify, but the system was integrated
after_full = loaded()
assert run(json.loads(sys.argv[4])) == 4  # 3 returns are too few to classify, but the legs were solved
print(json.dumps([after_import, after_import_cli, after_maps, after_full, loaded()]))
"""


def test_map_level_commands_never_import_scipy(tmp_path):
    # nor do the full-system integration and the hybrid: both run on the package's own solvers,
    # and no command loads numpy
    map_level = [
        ["pam", "signature", *ROW_1_3],
        ["pam", "iterate", *ROW_1_3, "--out-svg", str(tmp_path / "cobweb.svg")],
        ["pam", "bounds", "--a", "0.9", "--b", "0.8", "--l", "-7.2", "--L", "2"],
        ["synth", *ROW_1_3, "--verify"],
        ["verify-tables"],
        ["crossover", *CROSSOVER_SEGMENT, "--grid", "5"],
    ]
    full = [
        "simulate", "--mode", "full", "--from-pam", *ROW_1_3,
        "--eps", "1e-5", "--delta", "1e-2", "--max-slow-time", "3", "--crossings", "3",
    ]
    hybrid = ["simulate", "--mode", "hybrid", "--from-pam", *ROW_1_3, "--z-init", "-0.5", "--returns", "3"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mmopam.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(["numpy", "scipy"]),
         json.dumps(map_level), json.dumps(full), json.dumps(hybrid)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_import_cli, after_maps, after_full, after_hybrid = json.loads(proc.stdout)
    none = {"numpy": [], "scipy": []}
    assert after_import == none
    assert after_import_cli == none
    assert after_maps == none
    assert after_full == none
    assert after_hybrid == none


LOAD_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv == "bare":
    pass
elif argv is None:
    import mmopam
else:
    from mmopam.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert not argv or main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""

MAP_LEVEL = [
    ["pam", "signature", *ROW_1_3],
    ["pam", "bounds", "--a", "0.9", "--b", "0.8", "--l", "-7.2", "--L", "2", "--s", "2"],
    ["pam", "transform", *ROW_1_3],
    ["pam", "iterate", *ROW_1_3, "--out-csv", "{tmp}/orbit.csv", "--out-svg", "{tmp}/cobweb.svg"],
    ["synth", *ROW_1_3, "--verify", "--out", "{tmp}/params.json"],
    ["verify-tables"],
    ["crossover", *CROSSOVER_SEGMENT, "--grid", "5", "--out-csv", "{tmp}/scan.csv", "--out-svg", "{tmp}/scan.svg"],
]


def _modules_loaded(argv) -> set[str]:
    """The modules in sys.modules after a fresh interpreter runs LOAD_PROBE with ``argv``."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mmopam.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, json.dumps(argv)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.fixture(scope="module")
def bare_modules():
    """What the probe's interpreter loads before the package, site hooks included."""
    return _modules_loaded("bare")


@pytest.mark.parametrize(
    "argv", [None, [], *MAP_LEVEL], ids=["import-mmopam", "import-cli", *(" ".join(a[:2]) for a in MAP_LEVEL)]
)
def test_each_process_loads_only_what_its_command_runs(tmp_path, argv, bare_modules):
    # one fresh process per row: the package loads a module on the first use of one of its names,
    # the CLI inside the command that calls it
    if argv:
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    loaded = _modules_loaded(argv)
    # the package's value classes are plain classes: no row pays for dataclasses or the inspect it imports
    assert not (loaded - bare_modules) & {"dataclasses", "inspect"}
    ours = {m for m in loaded if m.split(".")[0] == "mmopam"}
    if argv is None:
        assert ours == {"mmopam"}
    elif not argv:
        assert ours == {"mmopam", "mmopam.cli", "mmopam.errors", "mmopam.pam"}
    else:
        assert not ours & {"mmopam.simulate", "mmopam.radau", "mmopam.dop853"}
        if argv[0] == "pam":
            assert not loaded & {"mmopam.family", "fractions"}


def test_package_namespace():
    from importlib import import_module

    assert len(mmopam.__all__) == len(set(mmopam.__all__)) == 48
    for module, names in mmopam._EXPORTS.items():
        home = import_module(f"mmopam.{module}")
        for name in names:
            obj = getattr(mmopam, name)
            assert obj is vars(home)[name], name
            assert getattr(obj, "__module__", home.__name__) == home.__name__, name  # defined there, not re-exported
    assert set(mmopam.__all__) <= set(dir(mmopam))
    with pytest.raises(AttributeError, match=r"^module 'mmopam' has no attribute 'no_such_name'$"):
        mmopam.no_such_name
    star: dict = {}
    exec("from mmopam import *", star)
    assert set(star) - {"__builtins__"} == set(mmopam.__all__)


HYBRID_1_1 = ["simulate", "--mode", "hybrid", "--a11", "0.3", "--a12", "1", "--a21", "0.9", "--a22", "-2", "--from-pam"]


def test_simulate_hybrid_reads_delta_from_config(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sim": {"delta": 0.05}}))
    from_config = run(capsys, *HYBRID_1_1, "--config", str(cfg), "--returns", "5")
    from_flag = run(capsys, *HYBRID_1_1, "--delta", "0.05", "--returns", "5")
    default = run(capsys, *HYBRID_1_1, "--returns", "5")
    assert from_config == from_flag
    assert from_config[1] != default[1]


@pytest.mark.parametrize(
    "argv, sim, unused",
    [
        ([], {"eps": 5.0, "initial_state": [1e9, 0, 0], "max_slow_time": -1}, "eps, max_slow_time, initial_state"),
        (["--max-slow-time", "3", "--eps", "7"], None, "eps, max_slow_time"),
        (["--max-slow-time", "3"], {"delta": 0.05}, "max_slow_time"),
        (["--crossings", "5"], None, "crossings"),
    ],
    ids=["config", "flags", "flags-and-config", "crossings"],
)
def test_simulate_hybrid_rejects_full_mode_settings(capsys, tmp_path, argv, sim, unused):
    # the hybrid reads only delta from the sim section; the rest would be silently ignored
    if sim is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sim": sim}))
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run(capsys, *HYBRID_1_1, *argv, "--returns", "5")
    assert code == 3
    assert out == ""
    assert err == f"error: --mode hybrid takes no {unused}: only --mode full reads them\n"


@pytest.mark.parametrize(
    "argv, unused",
    [(["--z-init", "3"], "z_init"), (["--returns", "2"], "returns"), (["--z-init", "3", "--returns", "2"], "z_init, returns")],
    ids=["z-init", "returns", "both"],
)
def test_simulate_full_rejects_hybrid_mode_settings(capsys, monkeypatch, argv, unused):
    # the full run reads neither; the rejection comes before any integration
    def integrate_full(*args, **kwargs):
        raise AssertionError("integrated before rejecting")

    monkeypatch.setattr("mmopam.simulate.integrate_full", integrate_full)
    full = ["simulate", "--mode", "full", "--a11", "0.3", "--a12", "1", "--a21", "0.9", "--a22", "-2", "--from-pam"]
    code, out, err = run(capsys, *full, *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: --mode full takes no {unused}: only --mode hybrid reads them\n"


def test_simulate_hybrid_pole_exits_3(capsys):
    code, out, err = run(capsys, *HYBRID_1_1, "--delta", "10", "--returns", "5")
    assert code == 3
    assert out == ""
    assert err.startswith("error: the reduced flow from Z = ") and err.endswith(" passes through infinity\n")


def _stats_line(solver: str, st) -> str:
    return (f"{solver}: SolverStats(steps={st.steps}, rejected={st.rejected}, nfev={st.nfev}, njev={st.njev}, "
            f"nlu={st.nlu}, newton_failures={st.newton_failures})")


def test_simulate_full_prints_radau_stats(capsys):
    # one stderr line with the run's Radau SolverStats, then one with its jumps' DOP853 counters; stdout is what
    # it was without them
    code, out, err = run(capsys, "simulate", "--mode", "full", "--from-pam", "--a11", "0.3", "--a12", "1",
                         "--a21", "0.9", "--a22", "-2", "--eps", "1e-6", "--delta", "1e-2", "--crossings", "12",
                         "--compare-pam")
    assert code == 0
    assert out == "signature: 1^1\nmap-predicted signature: 1^1\nmatch: true\n"
    params = mmopam.synthesize(mmopam.PamCoefficients(0.3, 1.0, 0.9, -2.0), mmopam.RhoSpec("fixed_rational"))
    series = mmopam.integrate_full(params, mmopam.SimConfig(eps=1e-6, delta=1e-2), n_crossings=12)
    assert series.solver_stats.steps > 0
    assert series.jump_stats.steps > 0
    assert err.splitlines()[:2] == [_stats_line("radau", series.solver_stats), _stats_line("dop853", series.jump_stats)]
    assert sum(line.startswith(("radau: ", "dop853: ")) for line in err.splitlines()) == 2


def test_simulate_hybrid_prints_dop853_stats(capsys):
    code, out, err = run(capsys, *HYBRID_1_1, "--returns", "40", "--compare-pam")
    assert code == 0
    assert out.endswith("signature: 1^1\nmap-predicted signature: 1^1\nmatch: true\n")
    params = mmopam.synthesize(mmopam.PamCoefficients(0.3, 1.0, 0.9, -2.0), mmopam.RhoSpec("fixed_rational"))
    stats = mmopam.hybrid_simulate(params, mmopam.SimConfig.delta, -0.5, 40).solver_stats
    assert stats.steps > 0
    assert err == _stats_line("dop853", stats) + "\n"


PAM_1_3 = {"a11": 0.3, "a12": 7, "a21": 0.9, "a22": -2}
VF_1_3 = {"alpha": 0.87, "beta": 0.02, "kappa": 30.0, "lambda": -90.0}
SIGNATURE, SYNTH, FULL = ["pam", "signature"], ["synth"], ["simulate", "--mode", "full", "--max-slow-time", "0.1"]


@pytest.mark.parametrize(
    "argv, config",
    [
        (SIGNATURE, {"pam": {**PAM_1_3, "a11": "0.3x"}}),
        (SIGNATURE, {"pam": {**PAM_1_3, "a11": None}}),
        (SIGNATURE, {"pam": {**PAM_1_3, "a11": [0.3]}}),
        (SIGNATURE, {"pam": [0.3, 7, 0.9, -2]}),
        (SIGNATURE, [PAM_1_3]),
        (SYNTH, {"pam": PAM_1_3, "canonical": {"rho": {"quadratic": {"p": 1.0}}}}),
        (SYNTH, {"pam": PAM_1_3, "canonical": {"rho": {"quadratic": {"p": "a", "q": 1}}}}),
        (SYNTH, {"pam": PAM_1_3, "canonical": {"rho": {"quadratic": 1.0}}}),
        (FULL, {"canonical": {**VF_1_3, "alpha": "a"}}),
        (FULL, {"canonical": VF_1_3, "sim": {"delta": "small"}}),
        (FULL, {"canonical": VF_1_3, "sim": {"eps": None}}),
        (FULL, {"canonical": VF_1_3, "sim": {"initial_state": [1.3, 0.0]}}),
        (FULL, {"canonical": VF_1_3, "sim": {"initial_state": [1.3, "y", 0.0]}}),
    ],
)
def test_malformed_config_values_exit_3(capsys, tmp_path, argv, config):
    # a missing key or a value that float() rejects is a domain error, not a traceback
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 3, err
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, config, unknown",
    [
        (HYBRID_1_1, {"sim": {"epsilon": 5.0, "max-slow-time": -1}}, "sim.epsilon, sim.max-slow-time"),
        (FULL, {"canonical": VF_1_3, "sim": {"rel_tol": 1e-9}}, "sim.rel_tol"),
        (SIGNATURE, {"pam": {**PAM_1_3, "a33": 1.0}}, "pam.a33"),
        (FULL, {"canonical": {**VF_1_3, "lamda": -90.0}}, "canonical.lamda"),
        (FULL, {"canonical": VF_1_3, "simulation": {"eps": 1e-6}}, "simulation"),
    ],
    ids=["hybrid-sim-epsilon", "full-sim-rel-tol", "signature-pam-a33", "canonical-lamda", "top-level-simulation"],
)
def test_config_rejects_unknown_keys(capsys, monkeypatch, tmp_path, argv, config, unknown):
    # a misspelt key would otherwise fall back to the default unnoticed; the rejection comes before any integration
    def integrate(*args, **kwargs):
        raise AssertionError("integrated before rejecting")

    monkeypatch.setattr("mmopam.simulate.integrate_full", integrate)
    monkeypatch.setattr("mmopam.simulate.hybrid_simulate", integrate)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 3
    assert out == ""
    assert err == f"error: unknown config keys: {unknown}\n"


@pytest.mark.parametrize("argv", [HYBRID_1_1, [*HYBRID_1_1, "--lam", "-90"]], ids=["config", "lam-flag"])
def test_config_rejects_both_lambda_spellings(capsys, monkeypatch, tmp_path, argv):
    # two values for one parameter: neither wins silently, and nothing is synthesized or integrated
    def fail(*args, **kwargs):
        raise AssertionError("ran before rejecting")

    monkeypatch.setattr("mmopam.synthesis.synthesize", fail)
    monkeypatch.setattr("mmopam.simulate.hybrid_simulate", fail)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"canonical": {**VF_1_3, "lam": 1.0}}))
    code, out, err = run(capsys, *argv, "--config", str(cfg), "--returns", "5")
    assert code == 3
    assert out == ""
    assert err == "error: the canonical section gives lambda twice, as lam and as lambda\n"


def test_lam_flag_overrides_either_spelling(capsys, tmp_path):
    outs = []
    for key in ("lam", "lambda"):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({"canonical": {**{k: v for k, v in VF_1_3.items() if k != "lambda"}, key: 1.0}}))
        outs.append(run(capsys, "simulate", "--mode", "hybrid", "--config", str(cfg), "--lam", "-90", "--returns", "5"))
    direct = ["--alpha", "0.87", "--beta", "0.02", "--kappa", "30", "--lam", "-90"]
    assert outs[0] == outs[1] == run(capsys, "simulate", "--mode", "hybrid", *direct, "--returns", "5")


SYNTH_1_3 = ["synth", "--a11", "0.3", "--a12", "7", "--a21", "0.9", "--a22", "-2"]


@pytest.mark.parametrize("command", [SYNTH_1_3, HYBRID_1_1], ids=["synth", "simulate"])
@pytest.mark.parametrize(
    "flags, config",
    [
        (["--p", "2", "--q", "0"], None),
        (["--q", "0"], None),
        (["--rho", "fixed_rational", "--p", "2"], None),
        (["--p", "7", "--q", "0"], {"canonical": {"rho": {"quadratic": {"p": 5, "q": 0}}}}),
    ],
    ids=["no-rho", "q-only", "fixed-rational", "config-quadratic"],
)
def test_p_q_require_rho_quadratic(capsys, monkeypatch, tmp_path, command, flags, config):
    # without --rho quadratic nothing reads --p and --q, so they are refused, not ignored
    monkeypatch.setattr("mmopam.synthesis.synthesize", lambda *a: pytest.fail("synthesized before rejecting"))
    argv = [*command, *flags]
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "usage error: --p and --q require --rho quadratic\n"


@pytest.mark.parametrize("command", [SYNTH_1_3, HYBRID_1_1], ids=["synth", "simulate"])
def test_config_rejects_unknown_rho_keys(capsys, monkeypatch, tmp_path, command):
    monkeypatch.setattr("mmopam.synthesis.synthesize", lambda *a: pytest.fail("synthesized before rejecting"))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"canonical": {"rho": {"quadratic": {"p": 5, "q": 0, "r": 9}}}}))
    code, out, err = run(capsys, *command, "--config", str(cfg))
    assert code == 3
    assert out == ""
    assert err == "error: unknown rho keys: quadratic.r\n"


INVERSE = ["pam", "transform", "--inverse", "--a", "0.3", "--b", "0.9", "--mu", "7", "--l", "-9"]
FORWARD = ["pam", "transform", "--a11", "0.3", "--a12", "7", "--a21", "0.9", "--a22", "-2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*INVERSE, "--a11", "5"], "pam transform --inverse takes no --a11"),
        ([*INVERSE, "--config", "{cfg}", "--a22", "1"], "pam transform --inverse takes no --config, --a22"),
        ([*FORWARD, "--mu", "3"], "pam transform takes no --mu"),
        (["pam", "transform", "--config", "{cfg}", "--b", "0.9", "--l", "-9"], "pam transform takes no --b, --l"),
    ],
    ids=["inverse-a11", "inverse-config", "forward-mu", "forward-config-b-l"],
)
def test_pam_transform_rejects_the_other_directions_inputs(capsys, tmp_path, argv, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"pam": {"a11": 0.3, "a12": 7, "a21": 0.9, "a22": -2}}))
    code, out, err = run(capsys, *(a.replace("{cfg}", str(cfg)) for a in argv))
    assert code == 3
    assert out == ""
    assert err == f"error: {message}: only the other direction reads them\n"


@pytest.mark.parametrize(
    "argv, path",
    [
        ([*SYNTH_1_3, "--out", "{missing}/params.json"], "params.json"),
        (["pam", "iterate", *ROW_1_3, "--out-csv", "{missing}/orbit.csv"], "orbit.csv"),
        (["pam", "iterate", *ROW_1_3, "--out-svg", "{missing}/cobweb.svg"], "cobweb.svg"),
        (["crossover", *CROSSOVER_SEGMENT, "--grid", "3", "--out-csv", "{missing}/scan.csv"], "scan.csv"),
        (["crossover", *CROSSOVER_SEGMENT, "--grid", "3", "--out-svg", "{missing}/scan.svg"], "scan.svg"),
        (["verify-tables", "--json", "{missing}/report.json"], "report.json"),
        ([*HYBRID_1_1, "--returns", "5", "--out-prefix", "{missing}/run"], "run_returns.csv"),
    ],
    ids=["synth-out", "iterate-out-csv", "iterate-out-svg", "crossover-out-csv", "crossover-out-svg", "json", "out-prefix"],
)
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, argv, path):
    # an output path in a directory that does not exist: one line and exit 2, as for an unreadable config
    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as exc:
        main([a.replace("{missing}", str(missing)) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"usage error: cannot write output: [Errno 2] No such file or directory: '{missing / path}'\n"
