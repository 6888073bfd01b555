import json

import pytest

from mmopam.cli import main


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
