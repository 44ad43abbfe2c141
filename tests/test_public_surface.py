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


# Runs the CLI with the given arguments (none: only imports it) in a fresh
# interpreter and prints its exit code and the scipy modules it loaded.
_SCIPY_PROBE = """
import json, sys
from degenlap.cli import main
rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _scipy_loaded(args):
    src = str(Path(degenlap.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *map(str, args)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    return set(modules)


def test_cli_import_skips_scipy_special(tmp_path):
    # only large solves need scipy: importing the CLI, the subcommands that
    # never solve and a small solve load none of it, scipy.special included
    assert run_cli(["solve", "--fixture", "axis-degenerate-planar", "--resolution", "9",
                    "--output-dir", str(tmp_path / "s")]) == 0
    runs = [
        [],
        ["solve", "--p", "3", "--resolution", "9"],
        ["weights", "--weight", "pow:-1", "--balls", "8", "--points", "8", "--radii", "2",
         "--budget", "64"],
        ["diagnose", "--solution", tmp_path / "s" / "solution.csv", "--resolution", "9",
         "--probes", "2", "--budget", "64"],
        ["distortion", "--samples", "8"],
    ]
    for i, args in enumerate(runs):
        out = ["--output-dir", tmp_path / f"out{i}"] if args else []
        assert _scipy_loaded([*args, *out]) == set(), args


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
    loaded = _scipy_loaded(["solve", *args, "--output-dir", tmp_path])
    report = json.loads((tmp_path / "solve-report.json").read_text())["solve_report"]
    preconditioners = {pc for level in report["levels"] for pc in level["preconditioner"]}
    assert preconditioners == {"multigrid" if multigrid else "jacobi"}
    if not large:
        assert loaded == set()
    assert ("scipy.sparse" in loaded) == large
    assert not loaded & {"scipy.sparse.linalg", "scipy.linalg"}
