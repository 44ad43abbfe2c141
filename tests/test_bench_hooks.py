"""The benchmark tracer (bench/child.py) wraps library functions by name,
private helpers included; a renamed or re-signatured hook turns its per-layer
metrics into null without failing the benchmark.  These tests run the child
the way bench/run.py does and check that every hook is found and counts."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_traced_child(tmp_path, argv, entry):
    result = tmp_path / "bench-child.json"
    spec = {"argv": argv + ["--output-dir", str(tmp_path / "out")], "entry": entry,
            "trace": True, "result": str(result)}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), json.dumps(spec)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


@pytest.mark.parametrize("argv, entry, counters", [
    (["weights", "--weight", "pow:-1", "--balls", "8", "--points", "8", "--radii", "2",
      "--budget", "64"], "degenlap.weights:ap_constant", ["weights.samples_drawn"]),
    (["solve", "--p", "3", "--resolution", "9"], "degenlap.energy:solve_dirichlet",
     ["energy.cg.iters", "energy.linesearch_trials"]),
], ids=["weights", "solve"])
def test_bench_child_hooks_alive(tmp_path, argv, entry, counters):
    child = run_traced_child(tmp_path, argv, entry)
    assert child["exit_code"] == 0
    assert child["missing"] == []
    for name in counters:
        assert child["counts"].get(name, 0) > 0, name
