import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import degenlap

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


def test_cli_import_skips_scipy_special():
    # scipy.special is a large import that nothing in the package needs
    src = str(Path(degenlap.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, degenlap.cli; print('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
