import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degenlap
from degenlap.cli import main


def run_cli(args):
    return main(list(args))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_weights_fixture_constant(tmp_path):
    out = tmp_path / "w"
    rc = run_cli(["weights", "--fixture", "constant", "--p", "2",
                  "--balls", "64", "--budget", "128", "--points", "16",
                  "--radii", "5", "--output-dir", str(out)])
    assert rc == 0
    rep = read_json(out / "weights-report.json")
    assert rep["schema"] == "degenlap/1"
    assert rep["weights_report"]["ap"]["estimates"]["ap"]["value"] == 1.0
    assert (out / "resolved-config.json").exists()
    assert (out / "worst-balls.csv").read_text().splitlines()[0].startswith("estimate,")


def test_weights_inline_unbounded(tmp_path):
    out = tmp_path / "w2"
    rc = run_cli(["weights", "--weight", "pow:-3", "--p", "2", "--dimension", "2",
                  "--balls", "96", "--budget", "512", "--points", "16",
                  "--radii", "6", "--output-dir", str(out)])
    assert rc == 0   # numerical flags are not process failures
    rep = read_json(out / "weights-report.json")
    assert rep["weights_report"]["ap"]["estimates"]["ap"]["value"] == "unbounded-suspected"


def test_weights_config_file_with_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "subcommand": "weights", "weight": "pow:0.5", "dimension": 1,
        "p": 2.0, "balls": 64, "budget": 128, "points": 8, "radii": 5,
        "output_dir": str(tmp_path / "from-file")}))
    out = tmp_path / "override"
    rc = run_cli(["weights", "--config", str(cfg), "--output-dir", str(out)])
    assert rc == 0
    resolved = read_json(out / "resolved-config.json")["config"]
    assert resolved["output_dir"] == str(out)   # flags win
    assert resolved["weight"] == "pow:0.5"


@pytest.mark.parametrize("mask", [[], ["--mask", "disc"]], ids=["fixture-mask", "disc"])
def test_solve_and_diagnose_roundtrip(tmp_path, mask):
    sol = tmp_path / "s"
    rc = run_cli(["solve", "--fixture", "axis-degenerate-planar",
                  "--psi", "fixture-solution", "--resolution", "65",
                  "--output-dir", str(sol)])
    assert rc == 0
    rep = read_json(sol / "solve-report.json")["solve_report"]
    assert rep["converged"] is True
    dia = tmp_path / "d"
    rc = run_cli(["diagnose", "--fixture", "axis-degenerate-planar",
                  "--solution", str(sol / "solution.csv"), "--resolution", "65",
                  *mask, "--probes", "3", "--budget", "256",
                  "--output-dir", str(dia)])
    assert rc == 0
    rows = (dia / "continuity.csv").read_text().splitlines()
    assert rows[0] == "x1,x2,mk,gamma,alpha,no_decay,class"
    assert len(rows) > 1


@pytest.mark.parametrize("mask, resolved", [([], "disc"), (["--mask", "box"], "box"),
                                            (["--mask", "disc"], "disc")],
                         ids=["unset", "box", "disc"])
def test_solve_fixture_keeps_explicit_mask(tmp_path, mask, resolved):
    # the fixture's disc is only a default: an explicit mask wins
    out = tmp_path / "m"
    rc = run_cli(["solve", "--fixture", "axis-degenerate-planar", "--resolution", "17",
                  *mask, "--output-dir", str(out)])
    assert rc == 0
    cfg = read_json(out / "resolved-config.json")["config"]
    assert cfg["mask"] == resolved
    assert cfg["bounds"] == [[-1.0, 1.0]] * 2


def test_solve_3d_memory_gate(tmp_path, capsys):
    out = tmp_path / "gate"
    rc = run_cli(["solve", "--fixture", "zhong-log", "--psi", "zhong-odd",
                  "--resolution", "64", "--output-dir", str(out)])
    assert rc == 2
    assert "limit 48" in capsys.readouterr().err
    assert not (out / "solve-report.json").exists()


def test_solve_pgm_output(tmp_path):
    out = tmp_path / "pgm"
    rc = run_cli(["solve", "--psi", "poly:x2-y2", "--resolution", "17",
                  "--pgm", "--output-dir", str(out)])
    assert rc == 0
    data = (out / "solution.pgm").read_bytes()
    assert data.startswith(b"P5\n17 17\n255\n")
    assert len(data) == len(b"P5\n17 17\n255\n") + 17 * 17


def test_distortion_subcommand(tmp_path):
    out = tmp_path / "dist"
    rc = run_cli(["distortion", "--samples", "24", "--output-dir", str(out)])
    assert rc == 0
    rep = read_json(out / "distortion-report.json")["distortion"]
    assert rep["ellipticity_violations"] == 0
    assert rep["sandwich_violations"] == 0
    lines = (out / "distortion-points.csv").read_text().splitlines()
    assert len(lines) == 25


def test_distortion_even_residual_resolution(tmp_path, capsys):
    # an even node count puts a cell center on the map's singular point
    rc = run_cli(["distortion", "--samples", "8", "--residual-resolution", "16",
                  "--output-dir", str(tmp_path / "dist")])
    assert rc == 2
    assert "odd resolution" in capsys.readouterr().err


def test_distortion_residual_resolution_limit(tmp_path, capsys):
    out = tmp_path / "dist"
    rc = run_cli(["distortion", "--samples", "8", "--residual-resolution", "99",
                  "--output-dir", str(out)])
    assert rc == 2
    assert "limit 97" in capsys.readouterr().err
    assert not (out / "distortion-report.json").exists()


def test_catalog_subcommand(tmp_path):
    out = tmp_path / "cat"
    rc = run_cli(["catalog", "--fixture", "constant", "--output-dir", str(out)])
    assert rc == 0
    rep = read_json(out / "catalog-report.json")
    assert rep["fixtures"][0]["fixture"] == "constant"
    assert rep["fixtures"][0]["passed"]


def test_exit_code_config_errors(tmp_path):
    assert run_cli(["weights", "--p", "2",
                    "--output-dir", str(tmp_path / "x")]) == 2
    assert run_cli(["solve", "--psi", "nonsense:1",
                    "--output-dir", str(tmp_path / "y")]) == 2
    assert run_cli(["catalog", "--fixture", "bogus",
                    "--output-dir", str(tmp_path / "z")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["weights", "--config", str(bad),
                    "--output-dir", str(tmp_path / "w")]) == 2
    missing = tmp_path / "missing.json"
    assert run_cli(["weights", "--config", str(missing),
                    "--output-dir", str(tmp_path / "v")]) == 2


@pytest.mark.parametrize("sizes", [["--balls", "4", "--points", "16"],
                                   ["--balls", "64", "--points", "4"]],
                         ids=["balls", "points"])
def test_weights_family_below_stage_floor(tmp_path, capsys, sizes):
    rc = run_cli(["weights", "--weight", "pow:-1", "--budget", "64", "--radii", "5",
                  *sizes, "--output-dir", str(tmp_path / "small")])
    assert rc == 2
    assert ">= 8" in capsys.readouterr().err


@pytest.mark.parametrize("sizes, message", [
    (["--radii", "0"], "radii must be >= 1"),
    (["--radii", "-3"], "radii must be >= 1"),
    (["--budget", "8"], "budget must be >= 16"),
    (["--budget", "15"], "budget must be >= 16"),
], ids=["radii-0", "radii-negative", "budget-8", "budget-15"])
def test_weights_radii_and_budget_validated(tmp_path, capsys, sizes, message):
    rc = run_cli(["weights", "--weight", "pow:-1", "--balls", "8", "--points", "8",
                  *sizes, "--output-dir", str(tmp_path / "bad")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_exit_code_grid_mismatch(tmp_path):
    sol = tmp_path / "s"
    assert run_cli(["solve", "--psi", "poly:x2-y2", "--resolution", "17",
                    "--output-dir", str(sol)]) == 0
    # diagnosing at a different resolution must fail with exit 2
    rc = run_cli(["diagnose", "--fixture", "axis-degenerate-planar",
                  "--solution", str(sol / "solution.csv"), "--resolution", "33",
                  "--mask", "disc", "--probes", "3",
                  "--output-dir", str(tmp_path / "d")])
    assert rc == 2


def test_console_script_installed():
    # the child imports the same package as this process, also when only
    # pytest's `pythonpath` setting puts it on sys.path
    src = str(Path(degenlap.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "degenlap.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "degenlap" in proc.stdout


def test_determinism_weights(tmp_path):
    out = tmp_path / "det"
    args = ["weights", "--weight", "pow:0.5", "--dimension", "1", "--p", "2",
            "--balls", "64", "--budget", "256", "--points", "8", "--radii", "5",
            "--seed", "11", "--output-dir", str(out)]
    assert run_cli(args) == 0
    snap = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli(args) == 0
    for p in out.iterdir():
        assert snap[p.name] == p.read_bytes()
