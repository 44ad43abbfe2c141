import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degenlap
from degenlap import catalog, cli, diagnostics
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
                  "--psi", "fixture-solution", "--resolution", "65", *mask,
                  "--output-dir", str(sol)])
    assert rc == 0
    rep = read_json(sol / "solve-report.json")["solve_report"]
    assert rep["converged"] is True
    dia = tmp_path / "d"
    rc = run_cli(["diagnose", "--fixture", "axis-degenerate-planar",
                  "--solution", str(sol / "solution.csv"), "--probes", "3", "--budget", "256",
                  "--output-dir", str(dia)])
    assert rc == 0
    rows = (dia / "continuity.csv").read_text().splitlines()
    assert rows[0] == "x1,x2,mk,gamma,alpha,no_decay,class"
    assert len(rows) > 1


def test_diagnose_probes_inside_off_centre_bounds(tmp_path):
    # the probe lattice spans the middle 80 % of the grid's box, wherever it lies
    (tmp_path / "cfg.json").write_text(json.dumps({"bounds": [[0.2, 1.0], [0.2, 1.0]]}))
    grid = ["--resolution", "33", "--config", str(tmp_path / "cfg.json")]
    sol, dia = tmp_path / "s", tmp_path / "d"
    assert run_cli(["solve", "--fixture", "constant", *grid, "--output-dir", str(sol)]) == 0
    assert run_cli(["diagnose", "--fixture", "constant", "--probes", "3", "--budget", "64",
                    "--solution", str(sol / "solution.csv"), "--output-dir", str(dia)]) == 0
    rows = [line.split(",") for line in (dia / "continuity.csv").read_text().splitlines()[1:]]
    coords = sorted({float(row[0]) for row in rows})
    assert coords == pytest.approx([0.28, 0.6, 0.92], abs=1e-12)


def test_diagnose_disc_inside_box(tmp_path):
    # the grid is the solution's: a disc of radius 0.5 solved in [-1, 1]^2 is
    # probed across the box its live nodes span, [-0.5625, 0.5625]^2 at 33
    # nodes, not across [-1, 1]^2, where the outer probes' balls hold no node
    (tmp_path / "cfg.json").write_text(json.dumps({"mask_params": {"radius": 0.5}}))
    sol, dia = tmp_path / "s", tmp_path / "d"
    assert run_cli(["solve", "--mask", "disc", "--resolution", "33",
                    "--config", str(tmp_path / "cfg.json"), "--output-dir", str(sol)]) == 0
    assert run_cli(["diagnose", "--fixture", "constant", "--probes", "3", "--budget", "64",
                    "--solution", str(sol / "solution.csv"), "--output-dir", str(dia)]) == 0
    rows = [line.split(",") for line in (dia / "continuity.csv").read_text().splitlines()[1:]]
    assert len(rows) == 9
    assert sorted({float(row[0]) for row in rows}) == pytest.approx([-0.45, 0.0, 0.45],
                                                                    abs=1e-12)


def test_solve_fixture_keeps_explicit_mask_params(tmp_path):
    # the fixture's radius fills mask_params only when they are unset
    (tmp_path / "cfg.json").write_text(json.dumps({"mask_params": {"radius": 0.5}}))
    sol = tmp_path / "s"
    assert run_cli(["solve", "--fixture", "axis-degenerate-planar", "--mask", "disc",
                    "--resolution", "17", "--config", str(tmp_path / "cfg.json"),
                    "--output-dir", str(sol)]) == 0
    assert read_json(sol / "resolved-config.json")["config"]["mask_params"] == {"radius": 0.5}
    rows = (sol / "solution.csv").read_text().splitlines()[1:]
    # the disc of radius 0.5 and its collar, one spacing 0.125 wide
    assert max(abs(float(x)) for row in rows for x in row.split(",")[:2]) == 0.625
    assert run_cli(["diagnose", "--solution", str(sol / "solution.csv"), "--probes", "3",
                    "--budget", "64", "--output-dir", str(tmp_path / "d")]) == 0


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


@pytest.mark.parametrize("res", [3, 5])
def test_distortion_residual_table(tmp_path, res):
    # the smallest odd resolutions that the refusals let through run the
    # weak-residual table to the end
    out = tmp_path / "dist"
    assert run_cli(["distortion", "--samples", "8", "--residual-resolution", str(res),
                    "--output-dir", str(out)]) == 0
    table = read_json(out / "distortion-report.json")["distortion"]["residuals"]
    assert len(table["extrapolated"]) == 3 * 2     # coordinates x bumps


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


@pytest.mark.parametrize("sub", ["weights", "diagnose", "distortion", "catalog"])
def test_negative_seed_rejected(tmp_path, capsys, sub):
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"seed": -1}))
    for args in (["--seed", "-1"], ["--config", str(cfg)]):
        assert run_cli([sub, *args, "--output-dir", str(tmp_path / "out")]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
    # a config file's seed is not truncated to an integer
    for seed in (-0.5, 2.5, True, "3"):
        cfg.write_text(json.dumps({"seed": seed}))
        assert run_cli([sub, "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert "seed must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_exit_code_grid_mismatch(tmp_path, capsys):
    sol = tmp_path / "s"
    assert run_cli(["solve", "--psi", "poly:x2-y2", "--resolution", "17",
                    "--output-dir", str(sol)]) == 0
    # diagnosing a 2-d solution with a 3-d fixture must fail with exit 2
    rc = run_cli(["diagnose", "--fixture", "zhong-log",
                  "--solution", str(sol / "solution.csv"), "--probes", "3",
                  "--output-dir", str(tmp_path / "d")])
    assert rc == 2
    assert "the solution is 2-dimensional, fixture 'zhong-log' 3-dimensional" in (
        capsys.readouterr().err)
    assert not (tmp_path / "d").exists()


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


def test_determinism_solve_multigrid(tmp_path):
    # 28^3 = 21952 free unknowns, above MULTIGRID_MIN_UNKNOWNS, and one p = 2
    # Newton step at CG_RTOL: the step is preconditioned by the V-cycle
    out = tmp_path / "det"
    args = ["solve", "--dimension", "3", "--resolution", "30", "--init", "zero",
            "--output-dir", str(out)]
    assert run_cli(args) == 0
    levels = read_json(out / "solve-report.json")["solve_report"]["levels"]
    assert levels[0]["preconditioner"] == ["multigrid"]
    snap = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli(args) == 0
    for p in out.iterdir():
        assert snap[p.name] == p.read_bytes()


# Each subcommand's settings: the keys of its resolved-config.json besides
# "subcommand".  Only weights and solve read a geometry and a dimension.
DECLARED = {
    "weights": {"seed", "output_dir", "geometry", "dimension", "fixture", "weight", "p",
                "t", "q", "balls", "budget", "points", "radii", "window", "bounds"},
    "solve": {"output_dir", "geometry", "dimension", "fixture", "p", "resolution", "mask", "mask_params", "bounds", "psi", "delta_final", "tolerance",
              "max_iterations", "init", "pgm"},
    "diagnose": {"seed", "output_dir", "fixture", "solution", "probes",
                 "contraction_constant", "budget", "pgm"},
    "distortion": {"seed", "output_dir", "epsilon", "samples", "residual_resolution",
                   "tubes", "bump_count"},
    "catalog": {"seed", "output_dir", "fixture", "budget_scale"},
}


def test_declared_settings():
    assert {sub: set(keys) for sub, keys in cli._SETTINGS.items()} == DECLARED
    assert sum(len(keys) for keys in DECLARED.values()) == 49


@pytest.mark.parametrize("sub", list(DECLARED))
def test_resolved_config_has_declared_keys(tmp_path, sub):
    sol = tmp_path / "s"
    argv = {
        "weights": ["--weight", "pow:0.5", "--balls", "64", "--budget", "128",
                    "--points", "16", "--radii", "5"],
        "solve": ["--resolution", "9", "--output-dir", str(sol)],
        "diagnose": ["--solution", str(sol / "solution.csv"), "--probes", "2",
                     "--budget", "64"],
        "distortion": ["--samples", "8"],
        "catalog": ["--fixture", "constant"],
    }
    if sub == "diagnose":
        assert run_cli(["solve", "--fixture", "axis-degenerate-planar",
                        *argv["solve"]]) == 0
    out = tmp_path / "out"
    assert run_cli([sub, *argv[sub], "--output-dir", str(out)]) == 0
    cfg = read_json(out / "resolved-config.json")["config"]
    assert set(cfg) == DECLARED[sub] | {"subcommand"}
    if sub in ("weights", "solve"):
        # unset, they resolve to the defaults, which the run records
        assert (cfg["geometry"], cfg["dimension"]) == ("euclidean", 2)


@pytest.mark.parametrize("sub, fixture, geometry", [
    ("solve", "zhong-log", ("euclidean", 3)),
    ("solve", "axis-degenerate-planar", ("euclidean", 2)),
    ("weights", "zhong-log", ("euclidean", 3)),
])
def test_fixture_geometry_recorded(tmp_path, sub, fixture, geometry):
    sizes = {"solve": ["--resolution", "9"],
             "weights": ["--balls", "8", "--budget", "64", "--points", "8", "--radii", "2"]}
    out = tmp_path / "out"
    assert run_cli([sub, "--fixture", fixture, *sizes[sub], "--output-dir", str(out)]) == 0
    cfg = read_json(out / "resolved-config.json")["config"]
    assert (cfg["geometry"], cfg["dimension"]) == geometry
    # the recorded values agree with the fixture, so the resolved config runs again
    again = tmp_path / "again"
    cfg.pop("output_dir")
    (tmp_path / "resolved.json").write_text(json.dumps(cfg))
    assert run_cli([sub, "--config", str(tmp_path / "resolved.json"),
                    "--output-dir", str(again)]) == 0


def test_heisenberg_dimension_defaults_to_3(tmp_path):
    out = tmp_path / "h"
    assert run_cli(["solve", "--geometry", "heisenberg1", "--resolution", "7",
                    "--output-dir", str(out)]) == 0
    cfg = read_json(out / "resolved-config.json")["config"]
    assert (cfg["geometry"], cfg["dimension"]) == ("heisenberg1", 3)


@pytest.mark.parametrize("argv, config, message", [
    (["solve", "--fixture", "zhong-log", "--dimension", "2"], None, "fixes dimension 3"),
    (["solve", "--fixture", "zhong-log", "--geometry", "heisenberg1"], None,
     "fixes geometry 'euclidean'"),
    (["weights", "--fixture", "constant", "--dimension", "3"], None, "fixes dimension 2"),
    (["weights", "--fixture", "constant", "--weight", "pow:1"], None,
     "fixes the weight and the bounds"),
    (["weights", "--fixture", "constant"], {"bounds": [[-2, 2], [-2, 2]]},
     "fixes the weight and the bounds"),
], ids=["solve-dimension", "solve-geometry", "weights-dimension", "weights-weight",
        "weights-bounds"])
def test_fixture_contradiction_refused(tmp_path, capsys, argv, config, message):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    assert run_cli([*argv, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"mask": "annulus", "mask_params": {"inner": 0.3, "outer": 0.31}},
    {"mask": "disc", "mask_params": {"radius": 0.1}, "bounds": [[0.3, 1.3], [0.3, 1.3]]},
], ids=["thin-annulus", "disc-off-bounds"])
def test_mask_without_interior_node_refused(tmp_path, capsys, config):
    # at resolution 9 neither mask keeps a node to solve for
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli(["solve", "--resolution", "9", "--config", str(tmp_path / "cfg.json"),
                    "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "no interior node at resolution 9" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, config", [
    # |x|^-5 is infinite at the origin, a node of the odd grid
    (["--psi", "radial-pow:-5"], None),
    # x^2 - y^2 overflows on these bounds
    ([], {"bounds": [[0, 1e300], [0, 1e300]]}),
], ids=["radial-pow-origin", "huge-bounds"])
def test_nonfinite_boundary_data_refused(tmp_path, capsys, argv, config):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    assert run_cli(["solve", "--resolution", "9", *argv, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "is not finite on the live nodes" in err
    assert not out.exists()


@pytest.mark.parametrize("sub, key, value", [
    ("catalog", "geometry", "heisenberg1"),
    ("catalog", "dimension", "7"),
    ("distortion", "dimension", "2"),
    ("distortion", "geometry", "euclidean"),
    ("diagnose", "dimension", "2"),
    ("diagnose", "geometry", "euclidean"),
    ("solve", "seed", "0"),
    # a solution file gives diagnose its grid
    ("diagnose", "resolution", "17"),
    ("diagnose", "mask", "disc"),
    ("diagnose", "mask_params", "{}"),
    ("diagnose", "bounds", "[[1,-1],[1,-1]]"),
])
def test_unread_settings_refused(tmp_path, capsys, sub, key, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli([sub, f"--{key}", value, "--output-dir", str(out)])
    assert exc.value.code == 2
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    assert run_cli([sub, "--config", str(tmp_path / "cfg.json"),
                    "--output-dir", str(out)]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def solved(tmp_path, *argv, bounds) -> str:
    """The solution.csv of a solve on `bounds` with the flags argv."""
    (tmp_path / "solve.json").write_text(json.dumps({"bounds": bounds}))
    out = tmp_path / "solved"
    assert run_cli(["solve", *argv, "--config", str(tmp_path / "solve.json"),
                    "--output-dir", str(out)]) == 0
    return str(out / "solution.csv")


def written(tmp_path, text: str) -> str:
    (tmp_path / "written.csv").write_text(text)
    return str(tmp_path / "written.csv")


# a short weights run, should a bad spec get past the checks
SMALL_WEIGHTS = ["--balls", "8", "--points", "8", "--radii", "2", "--budget", "64"]


@pytest.mark.parametrize("argv, config, message", [
    (["solve", "--p", "1"], None, "p must be > 1"),
    (["solve", "--tolerance", "0"], None, "tolerance must be > 0"),
    (["solve", "--tolerance", "inf"], None, "tolerance must be > 0 and finite, got inf"),
    (["solve", "--delta-final", "-1"], None, "delta_final must be > 0 and finite, got -1.0"),
    (["solve", "--delta-final", "0"], None, "delta_final must be > 0 and finite, got 0.0"),
    (["solve", "--delta-final", "nan"], None, "delta_final must be > 0 and finite, got nan"),
    (["catalog", "--fixture", "constant", "--budget-scale", "nan"], None,
     "budget_scale must be > 0 and finite, got nan"),
    (["catalog", "--fixture", "constant", "--budget-scale", "inf"], None,
     "budget_scale must be > 0 and finite, got inf"),
    (["catalog", "--fixture", "constant", "--budget-scale", "0"], None,
     "budget_scale must be > 0 and finite, got 0.0"),
    (["catalog", "--fixture", "constant", "--budget-scale", "-1"], None,
     "budget_scale must be > 0 and finite, got -1.0"),
    (["weights", "--weight", "pow:-1", "--p", "1"], None, "p must be > 1"),
    (["weights", "--weight", "pow:-1", "--t", "1"], None, "t must be > 1"),
    (["weights", "--weight", "pow:-1", "--q", "2"], None, "q must be > p"),
    (["distortion", "--samples", "-3"], None, "samples must be >= 1"),
    (["diagnose", "--probes", "-2"], None, "probes must be >= 1"),
    (["diagnose", "--budget", "8"], None, "budget must be >= 16"),
    (["diagnose", "--contraction-constant", "-1"], None, "contraction_constant must be >= 0"),
    (["catalog", "--fixture", "bogus"], None, "unknown fixture 'bogus'"),
    (["solve", "--psi", "radial-pow:abc"], None, "bad psi spec 'radial-pow:abc'"),
    (["solve", "--psi", "affine:1,2"], None, "affine psi needs 3 coefficients"),
    # an even node count puts a cell center on the map's singular point
    (["distortion", "--samples", "8", "--residual-resolution", "16"], None, "odd resolution"),
    (["distortion", "--samples", "8", "--residual-resolution", "1"], None, "odd resolution"),
    (["distortion", "--samples", "8", "--residual-resolution", "-3"], None, "odd resolution"),
    (["weights", "--weight", "pow:-1"], {"window": [0.1]}, "window must be [r_min, r_max]"),
    (["weights", "--weight", "pow:-1"], {"window": "ab"}, "window must be [r_min, r_max]"),
    (["weights", "--weight", "pow:-1"], {"window": [0.1, None]},
     "window must be [r_min, r_max]"),
    (["weights", "--weight", "pow:-1"], {"bounds": [[1, 0], [0, 1]]}, "lo < hi, got"),
    (["weights", "--weight", "pow:-1"], {"bounds": [[0, 1]]}, "bounds must be 2 [lo, hi] pairs"),
    (["weights", "--weight", "pow:-1"], {"bounds": "ab"}, "bounds must be 2 [lo, hi] pairs"),
    (["solve"], {"bounds": [[0, 1], [0, 1], [0, 1]]}, "bounds must be 2 [lo, hi] pairs"),
    (["solve"], {"bounds": [[-1, 1], [0, 1]]}, "equal side lengths"),
    (["distortion", "--samples", "8", "--residual-resolution", "5"], {"tubes": "ab"},
     "tubes must be a list of widths >= 0"),
    (["distortion", "--samples", "8", "--residual-resolution", "5"], {"tubes": [0.1, -1]},
     "tubes width must be >= 0"),
    (["distortion", "--samples", "8", "--residual-resolution", "5"], {"bump_count": "x"},
     "bump_count must be an integer"),
    (["distortion", "--samples", "8", "--residual-resolution", "5"], {"bump_count": 1.5},
     "bump_count must be an integer"),
    (["solve", "--mask", "disc"], {"mask_params": [1]}, "mask_params of mask 'disc'"),
    (["solve", "--mask", "disc"], {"mask_params": {"radius": "x"}},
     "mask_params radius must be a number"),
    (["solve", "--mask", "disc"], {"mask_params": {"inner": 0.5}}, "keys among ['radius']"),
    (["solve", "--mask", "annulus"], {"mask_params": {"inner": 0.5, "outer": 0.25}},
     "inner must be < outer"),
    # a config file's value has its flag's JSON kind, among its choices and in its range
    (["solve"], {"resolution": 9.7}, "resolution must be an integer, got 9.7"),
    (["weights", "--weight", "pow:-1"], {"balls": 8.9}, "balls must be an integer, got 8.9"),
    (["solve"], {"init": "bogus"}, "unknown init 'bogus'"),
    (["solve"], {"p": "abc"}, "p must be a number, got 'abc'"),
    (["solve"], {"psi": 5}, "psi must be a string, got 5"),
    (["solve"], {"pgm": "no"}, "pgm must be true or false, got 'no'"),
    (["solve"], {"tolerance": "1e-3"}, "tolerance must be a number, got '1e-3'"),
    (["solve"], {"max_iterations": -3}, "max_iterations must be >= 1, got -3"),
    (["solve"], {"p": 10 ** 400}, "p must be > 1 and finite, got inf"),
    (["solve", "--mask", "disc"], {"mask_params": {"radius": "0.5"}},
     "mask_params radius must be a number"),
    (["distortion", "--samples", "8", "--residual-resolution", "5"], {"tubes": ["0.1"]},
     "tubes width must be a number"),
    (["distortion", "--samples", "8", "--residual-resolution", "5"], {"bump_count": "3"},
     "bump_count must be an integer"),
    (["solve", "--max-iterations=-3"], None, "max_iterations must be >= 1, got -3"),
    # a flag's choice is checked by the same declaration as a file's
    (["solve", "--init", "bogus"], None, "unknown init 'bogus'"),
    (["solve", "--p", "inf", "--resolution", "9"], None, "p must be > 1 and finite, got inf"),
    (["weights", "--weight", "pow:-1", "--t", "inf"], None, "t must be > 1 and finite, got inf"),
    # the default psi and exp-cos read a second coordinate
    (["solve", "--dimension", "1"], None, "reads a second coordinate"),
    (["solve", "--dimension", "1", "--psi", "exp-cos"], None, "reads a second coordinate"),
    # 14^4 3^4 stencil entries outgrow 48^3 3^3
    (["solve", "--dimension", "4", "--resolution", "14"], None, "limit 13"),
    # and so do 577^2 3^2
    (["solve", "--resolution", "577"], None, "limit 576"),
    # spec parameters are finite
    (["weights", "--weight", "pow:inf", *SMALL_WEIGHTS], None, "pow parameter must be finite"),
    (["weights", "--weight", "const:nan", *SMALL_WEIGHTS], None, "const parameter must be finite"),
    (["weights", "--weight", "log:inf", *SMALL_WEIGHTS], None, "log parameter must be finite"),
    (["solve", "--psi", "radial-pow:nan", "--resolution", "9"], None,
     "radial-pow exponent must be finite"),
    (["solve", "--psi", "affine:1,nan,0", "--resolution", "9"], None,
     "affine coefficient must be finite"),
    # a solution whose box leaves the fixture's domain
    (["diagnose", "--fixture", "constant", "--solution", lambda tmp: solved(
        tmp, "--resolution", "17", bounds=[[0.5, 2.5], [0.5, 2.5]])], None,
     "the solution's grid must lie inside the domain [[-1.0, 1.0], [-1.0, 1.0]] of fixture "
     "'constant', got the box [[0.5, 2.5], [0.5, 2.5]]"),
    # a solution whose four rows span a grid beyond a solve's, 577^2 nodes
    (["diagnose", "--fixture", "constant", "--solution", lambda tmp: written(
        tmp, "x1,x2,value,boundary\n-1,-1,0,1\n%r,-1,0,1\n-1,%r,0,1\n1,1,0,1\n"
        % ((-1 + 2 / 576,) * 2))], None, "2-d resolution 577 is above the limit 576"),
    # a weight, or its power t, that overflows on the samples
    (["weights", "--weight", "pow:1e6", *SMALL_WEIGHTS], None, "weight evaluated to inf"),
    (["weights", "--weight", "pow:-1", "--t", "1e300", *SMALL_WEIGHTS], None,
     "weight evaluated to inf"),
    # an epsilon whose Jacobians round to J_f < 0
    (["distortion", "--epsilon", "1e6"], None, "epsilon 1000000.0, tubes [0.2, 0.15, 0.1]: J_f"),
    (["distortion", "--epsilon", "1e-300"], None, "epsilon 1e-300, tubes [0.2, 0.15, 0.1]: J_f"),
    # a test function whose support holds the singular point
    (["distortion"], {"tubes": [0], "residual_resolution": 9}, "use a tube"),
    # a cell volume h^n beyond the float range
    (["solve", "--psi", "affine:0,0,1", "--resolution", "9"],
     {"bounds": [[0, 1e300], [0, 1e300]]}, "cell volume h^2 = inf"),
    # (delta^2 + |Xu|^2)^(p/2) overflows at the boundary data
    (["solve", "--p", "1e6", "--resolution", "9"], None,
     "p 1000000.0, psi 'poly:x2-y2': the regularized energy or its gradient at the initial "
     "iterate is not finite at p = 1000000.0"),
], ids=["solve-p", "solve-tolerance", "solve-tolerance-inf", "solve-delta-final-negative",
        "solve-delta-final-0", "solve-delta-final-nan", "catalog-budget-scale-nan",
        "catalog-budget-scale-inf", "catalog-budget-scale-0", "catalog-budget-scale-negative",
        "weights-p", "weights-t", "weights-q",
        "distortion-samples", "diagnose-probes", "diagnose-budget", "diagnose-contraction",
        "catalog-fixture", "solve-psi-number", "solve-psi-affine", "distortion-residual-even",
        "distortion-residual-1", "distortion-residual-negative", "weights-window-short",
        "weights-window-text", "weights-window-null", "weights-bounds-reversed",
        "weights-bounds-short", "weights-bounds-text", "solve-bounds-3d", "solve-bounds-uneven",
        "distortion-tubes-text", "distortion-tubes-negative",
        "distortion-bumps-text", "distortion-bumps-fraction", "solve-mask-params-list",
        "solve-mask-radius-text", "solve-mask-params-key", "solve-annulus-reversed",
        "file-resolution-fraction", "file-balls-fraction", "file-init-bogus", "file-p-text",
        "file-psi-number", "file-pgm-text", "file-tolerance-text", "file-max-iterations",
        "file-p-huge", "file-mask-radius-text", "file-tubes-text", "file-bumps-text",
        "solve-max-iterations", "solve-init-flag", "solve-p-inf", "weights-t-inf",
        "solve-1d-default-psi", "solve-1d-exp-cos", "solve-4d-resolution", "solve-2d-resolution",
        "weights-pow-inf", "weights-const-nan", "weights-log-inf", "solve-radial-pow-nan",
        "solve-affine-nan", "diagnose-bounds-off-domain", "diagnose-grid-above-limit",
        "weights-pow-huge",
        "weights-t-huge", "distortion-epsilon-huge", "distortion-epsilon-tiny",
        "distortion-tube-0", "solve-cell-volume-huge", "solve-p-huge"])
def test_out_of_range_setting_refused(tmp_path, capsys, argv, config, message):
    argv = [arg(tmp_path) if callable(arg) else arg for arg in argv]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    assert run_cli([*argv, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("scale, refused", [("8", False), ("8.5", True), ("1e6", True)])
def test_catalog_budget_scale_limit(tmp_path, capsys, monkeypatch, scale, refused):
    # the estimators' cost grows with the square of the scale: one above the
    # measured limit is refused before any fixture runs or output exists
    ran = []
    monkeypatch.setattr(catalog, "_verify_fixtures", lambda name, **kw: ran.append(kw) or {})
    out = tmp_path / "out"
    argv = ["catalog", "--fixture", "constant", "--budget-scale", scale, "--output-dir", str(out)]
    assert run_cli(argv) == (2 if refused else 0)
    err = capsys.readouterr().err
    assert ("config error: budget_scale" in err and "is above the limit 8" in err) == refused
    assert out.exists() != refused
    assert ran == ([] if refused else [{"budget_scale": 8.0, "seed": 0}])


@pytest.mark.parametrize("fixture, target", [("constant", "ap_constant"),
                                             ("zhong-log", "_zhong_solve_probe")],
                         ids=["check", "probe-worker"])
def test_catalog_failed_check_leaves_no_output(tmp_path, monkeypatch, fixture, target):
    # every fixture runs, and the probe's worker is joined, before the output
    # directory is made: a check that raises, in this process or in the
    # worker, leaves no directory behind, not one with only the config
    def raising(*args, **kwargs):
        raise ZeroDivisionError("a check failed")

    monkeypatch.setattr(catalog, target, raising)
    out = tmp_path / "out"
    with pytest.raises(ZeroDivisionError, match="a check failed"):
        run_cli(["catalog", "--fixture", fixture, "--budget-scale", "0.25",
                 "--output-dir", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("kind, bound, limit, above, message", [
    (int, "<= 97", 97, 99, "residual_resolution 99 is above the limit 97"),
    (float, "> 0, <= 8", 8.0, 8.5, "budget_scale 8.5 is above the limit 8"),
], ids=["int", "float"])
def test_parse_upper_limit(kind, bound, limit, above, message):
    # the limit itself is admitted; a value above it is refused, and the
    # lower bound keeps its own message
    key = message.split()[0]
    assert cli._parse(key, limit, kind, bound) == limit
    with pytest.raises(cli.ConfigError) as info:
        cli._parse(key, above, kind, bound)
    assert str(info.value) == message
    sub = "distortion" if kind is int else "catalog"
    assert cli._SETTINGS[sub][key].bound == bound
    if kind is float:
        with pytest.raises(cli.ConfigError, match=r"must be > 0 and finite, got -1\.0"):
            cli._parse(key, -1.0, kind, bound)


def test_diagnose_failed_continuity_map_leaves_no_output(tmp_path, monkeypatch):
    # the continuity map runs before the output directory is made
    sol = tmp_path / "s"
    assert run_cli(["solve", "--fixture", "constant", "--resolution", "17",
                    "--output-dir", str(sol)]) == 0

    def raising(*args, **kwargs):
        raise ZeroDivisionError("the continuity map failed")

    monkeypatch.setattr(diagnostics, "continuity_map", raising)
    out = tmp_path / "out"
    with pytest.raises(ZeroDivisionError, match="the continuity map failed"):
        run_cli(["diagnose", "--fixture", "constant", "--probes", "3", "--budget", "64",
                 "--solution", str(sol / "solution.csv"), "--output-dir", str(out)])
    assert not out.exists()


def test_diagnose_builds_one_discretization(tmp_path, monkeypatch):
    # every probe's Holder fit reads one gradient field of the solution
    sol = tmp_path / "s"
    assert run_cli(["solve", "--fixture", "constant", "--resolution", "17",
                    "--output-dir", str(sol)]) == 0
    built = []
    real = cli.E._Discretization.__init__
    monkeypatch.setattr(cli.E._Discretization, "__init__",
                        lambda self, *args: built.append(args) or real(self, *args))
    assert run_cli(["diagnose", "--fixture", "constant", "--probes", "3", "--budget", "64",
                    "--solution", str(sol / "solution.csv"), "--output-dir", str(tmp_path / "d")]) == 0
    assert len(built) == 1


def test_fixture_names_are_the_catalogs():
    # the CLI holds the names, so that parsing a command loads no fixture
    assert cli._FIXTURE == tuple(catalog.fixture_names())

