import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import degenlap
from degenlap.cli import main as run_cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(degenlap.__path__))

# Routines that only tests called, removed together with their report types.
REMOVED = {
    "weights": ["power_class_check", "PowerClassReport", "subset_mass_check",
                "SubsetMassReport", "ball_mass"],
    "energy": ["vector_inequalities_check", "VectorInequalityReport", "poincare_ratio"],
    "diagnostics": ["mean_value_check", "MeanValueResult", "precise_representative",
                    "PreciseValue"],
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"degenlap.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_gone(name):
    module = importlib.import_module(f"degenlap.{name}")
    for gone in REMOVED[name]:
        assert gone not in module.__all__
        assert not hasattr(module, gone)


# The modules the CLI loads on first use only (its runners import them), and a
# fresh interpreter that runs the CLI with the given arguments (none: only
# imports it) and prints its exit code and which of them, and which scipy
# modules, it loaded.
ON_FIRST_USE = ("degenlap.weights", "degenlap.diagnostics", "degenlap.distortion",
                "degenlap.catalog")
_LOAD_PROBE = f"""
import json, sys
from degenlap.cli import main
rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([rc, sorted(m for m in sys.modules
                             if m.split(".")[0] == "scipy" or m in {ON_FIRST_USE!r})]))
"""


def _loaded(args):
    src = str(Path(degenlap.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _LOAD_PROBE, *map(str, args)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    return set(modules)


def test_cli_import_skips_scipy_special(tmp_path):
    # only large solves need scipy: importing the CLI, the subcommands that
    # never solve and a small solve load none of it, scipy.special included.
    # A run loads the estimators, the diagnostics, the distortion maps and the
    # fixtures only when it reads them, so a solve without a fixture none.
    assert run_cli(["solve", "--fixture", "axis-degenerate-planar", "--resolution", "9",
                    "--output-dir", str(tmp_path / "s")]) == 0
    fixtures = {"degenlap.catalog", "degenlap.weights", "degenlap.distortion"}
    runs = [
        ([], set()),
        (["solve", "--p", "3", "--resolution", "9"], set()),
        (["solve", "--geometry", "heisenberg1", "--dimension", "3", "--resolution", "9",
          "--psi", "exp-cos"], set()),
        (["solve", "--fixture", "axis-degenerate-planar", "--resolution", "9"], fixtures),
        (["solve", "--psi", "zhong-odd", "--resolution", "9"], fixtures),
        (["weights", "--weight", "pow:-1", "--balls", "8", "--points", "8", "--radii", "2",
          "--budget", "64"], {"degenlap.weights"}),
        (["diagnose", "--solution", tmp_path / "s" / "solution.csv", "--probes", "2",
          "--budget", "64"], fixtures | {"degenlap.diagnostics"}),
        (["distortion", "--samples", "8"], {"degenlap.distortion"}),
        (["catalog", "--fixture", "constant", "--budget-scale", "0.25"], fixtures),
    ]
    for i, (args, modules) in enumerate(runs):
        out = ["--output-dir", tmp_path / f"out{i}"] if args else []
        assert _loaded([*args, *out]) == modules, args


@pytest.mark.parametrize("args, large, multigrid", [
    (["--p", "3", "--resolution", "17"], False, False),
    # 143^2 = 20449 free unknowns, at least MULTIGRID_MIN_UNKNOWNS: CSR
    # products, and the steps of a p = 3 solve are too loose for multigrid
    (["--p", "3", "--resolution", "145"], True, False),
    # a p = 2 step asks CG for CG_RTOL
    (["--p", "2", "--resolution", "145", "--init", "zero"], True, True),
], ids=["jacobi", "jacobi-csr", "multigrid"])
def test_solve_loads_sparse_linalg_only_for_multigrid(tmp_path, args, large, multigrid):
    # a system below MULTIGRID_MIN_UNKNOWNS is solved without scipy, and no
    # solve loads scipy's linear algebra: the V-cycle's coarsest level is a
    # dense inverse
    loaded = _loaded(["solve", *args, "--output-dir", tmp_path])
    report = json.loads((tmp_path / "solve-report.json").read_text())["solve_report"]
    preconditioners = {pc for level in report["levels"] for pc in level["preconditioner"]}
    assert preconditioners == {"multigrid" if multigrid else "jacobi"}
    if not large:
        assert loaded == set()
    assert ("scipy.sparse" in loaded) == large
    assert not loaded & {"scipy.sparse.linalg", "scipy.linalg"}
