"""Benchmark of the `degenlap` CLI: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each CLI invocation runs in a fresh
interpreter (bench/child.py) with one BLAS thread, writing into
`.bench_run/`.  A run repeats its workload until `--seconds` would be
exceeded (at least twice), checks every repetition's outputs against the
workload's oracles (bench/workloads.py), checks that every repetition wrote
byte-identical reports, and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json:
`wall_s` and `cpu_s` sum each invocation's fastest repetition, the others are
medians over the repetitions.  With `--trace 1` the run alternates untraced
and traced repetitions and reports the per-layer metrics of the traced ones,
plus the tracing overhead.  A record of the run, with the machine and
library versions, goes to `.bench_run/records/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Outcome

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
RUN_LIMIT_S = 170.0          # every run ends well inside 180 s
BLAS_THREADS = "1"           # the Newton trajectory depends on CG's reduction order
LAYERS = ("cli", "geometry", "weights", "energy", "grids", "io", "diagnostics",
          "distortion", "catalog")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("DEGENLAP_THREADS", None)
    return env


def run_invocation(inv, outdir: Path, trace: bool, timeout: float) -> dict:
    """Run one CLI invocation; wall, CPU and peak RSS come from the parent."""
    outdir.mkdir(parents=True)
    result_path = outdir / "bench-child.json"
    spec = {"argv": inv.argv + ["--output-dir", str(outdir)], "entry": inv.entry,
            "trace": trace, "result": str(result_path)}
    with open(outdir / "bench-child.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
                                cwd=ROOT, env=child_env(), stdout=log, stderr=log)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = json.loads(result_path.read_text()) if result_path.exists() else {}
    first_call = child.get("first_call")
    return {
        "label": inv.label, "exit_code": proc.returncode, "wall_s": end - start,
        "setup_s": None if first_call is None else first_call - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,          # ru_maxrss is in KiB on Linux
        "bytes_written": sum(p.stat().st_size for p in outdir.iterdir()
                             if not p.name.startswith("bench-child")),
        "child": child,
    }


def report_hashes(outdirs: dict) -> dict:
    hashes = {}
    for label, outdir in sorted(outdirs.items()):
        for path in sorted(outdir.iterdir()):
            if path.name.endswith("-report.json") or path.suffix == ".csv":
                hashes[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def run_rep(workload, seed: int, rep_dir: Path, trace: bool, deadline: float) -> dict:
    invocations, outdirs, outcomes = [], {}, []
    for inv in workload.ordered(seed):
        outdirs[inv.label] = rep_dir / inv.label
        timeout = max(deadline - time.monotonic(), 1.0)
        res = run_invocation(inv, outdirs[inv.label], trace, timeout)
        invocations.append(res)
        if res["exit_code"] != 0:
            outcomes.append(Outcome(f"{inv.label}/exit", False, f"exit code {res['exit_code']}"))
    if not outcomes:
        try:
            outcomes = workload.check(outdirs)
        except (OSError, KeyError, ValueError) as exc:
            outcomes = [Outcome("outputs", False, f"unreadable outputs: {exc!r}")]
    return {"trace": trace, "invocations": invocations, "outcomes": outcomes,
            "hashes": report_hashes(outdirs)}


def end_to_end(rep: dict) -> dict:
    inv = rep["invocations"]
    setups = [i["setup_s"] for i in inv]
    attempted = len(rep["outcomes"])
    return {
        "wall_s": sum(i["wall_s"] for i in inv),
        "setup_s": None if None in setups else sum(setups),
        "cpu_s": sum(i["cpu_s"] for i in inv),
        "peak_rss_mb": max(i["peak_rss_mb"] for i in inv),
        "pass_ratio": (attempted - sum(not o.passed for o in rep["outcomes"])) / attempted,
    }


# Metrics computed from hooks other than the span they are named after.
HOOK_DEPENDENCIES = {
    "weights.samples_drawn": ("weights._draw_in_ball", "weights._sample_near_singularity"),
    "weights.samples_kept_ratio": ("weights._draw_in_ball", "weights._sample_near_singularity",
                                   "weights.gather_ball_samples"),
    "energy.energy_evals": ("energy.energy_gradient",),
    "energy.linesearch_trials_per_step": ("energy.energy_gradient", "energy.solve_dirichlet"),
    "energy.newton_steps": ("energy.solve_dirichlet",),
    "energy.delta_levels": ("energy.solve_dirichlet",),
    "energy.cg.iters_per_step": ("energy.cg",),
    "io.write_s": ("io.write_json", "io.write_csv", "io.write_pgm"),
    "weights.unbounded_flags": ("weights.ap_constant", "weights.a1_constant",
                                "weights.rh_constant", "weights.balance_check"),
}


def per_layer(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition.  A layer's self time is
    its spans' durations minus the time their child spans cover; the cli
    layer is each invocation's wall time minus its top-level spans."""
    calls, inclusive, counts = {}, {}, {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    missing = set()
    metrics = {f"cli.{inv.label}.s": 0.0 for w in WORKLOADS.values() for inv in w.invocations}
    for inv in rep["invocations"]:
        child = inv["child"]
        metrics[f"cli.{inv['label']}.s"] = inv["wall_s"]
        if not child:
            continue
        missing.update(child["missing"])
        names, spans = child["names"], child["spans"]
        covered = [0.0] * len(spans)
        top = 0.0
        for name_id, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
            else:
                top += end - start
        self_time["cli"] += inv["wall_s"] - top
        for (name_id, start, end, parent), cover in zip(spans, covered):
            name = names[name_id]
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            self_time[name.split(".", 1)[0]] += end - start - cover
        for key, value in child["counts"].items():
            counts[key] = counts.get(key, 0) + value
        counts["io.bytes_written"] = counts.get("io.bytes_written", 0) + inv["bytes_written"]

    def ratio(num, den):
        return num / den if den else 0.0

    for name in ("geometry.sample_ball", "geometry.metric_distance",
                 "weights.gather_ball_samples", "weights.maximal_function",
                 "energy.solve_dirichlet", "energy.cg", "diagnostics.holder_exponent",
                 "diagnostics.oscillation"):
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name in ("geometry.sample_ball", "geometry.metric_distance", "geometry.heisenberg1",
                 "weights.ap_constant", "weights.a1_constant", "weights.rh_constant",
                 "weights.balance_check", "weights.gather_ball_samples",
                 "weights.maximal_function", "energy.solve_dirichlet", "energy.cg",
                 "energy.hessian", "grids.to_csv", "diagnostics.holder_exponent",
                 "diagnostics.oscillation", "distortion.jacobian",
                 "distortion.distortion_scalars", "distortion.column_identity_check"):
        metrics[f"{name}.s"] = inclusive.get(name, 0.0)
    for fixture in ("constant", "axis-degenerate-planar", "zhong-log",
                    "finite-distortion-radial"):
        name = f"catalog.verify_fixture.{fixture}"
        metrics[f"{name}.s"] = inclusive.get(name, 0.0)
    drawn = counts.get("weights.samples_drawn", 0)
    steps = counts.get("energy.newton_steps", 0)
    metrics.update({
        "weights.samples_drawn": drawn,
        "weights.samples_kept_ratio": ratio(counts.get("weights.samples_kept", 0), drawn),
        "weights.unbounded_flags": counts.get("weights.unbounded_flags", 0),
        "energy.newton_steps": steps,
        "energy.delta_levels": counts.get("energy.delta_levels", 0),
        "energy.cg.iters": counts.get("energy.cg.iters", 0),
        "energy.cg.nonconverged": counts.get("energy.cg.nonconverged", 0),
        "energy.cg.iters_per_step": ratio(counts.get("energy.cg.iters", 0),
                                          calls.get("energy.cg", 0)),
        "energy.energy_evals": calls.get("energy.energy_gradient", 0),
        "energy.linesearch_trials_per_step": ratio(
            counts.get("energy.linesearch_trials", 0), steps),
        "io.write_s": sum(inclusive.get(n, 0.0)
                          for n in ("io.write_json", "io.write_csv", "io.write_pgm")),
        "io.bytes_written": counts.get("io.bytes_written", 0),
    })
    for layer, seconds in self_time.items():
        metrics[f"self.{layer}.s"] = seconds
    for name in metrics:
        needs = HOOK_DEPENDENCIES.get(name, ())
        if any(name.startswith(hook + ".") for hook in missing) or missing.intersection(needs):
            metrics[name] = None       # the hook is gone: missing, not zero
    return metrics


def machine_record() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, "blas_threads": int(BLAS_THREADS),
            "commit": commit, "src_sha256": src.hexdigest()}


def run_workload(workload, seed: int, seconds: int, trace: bool, started: float) -> dict:
    run_dir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    deadline = started + RUN_LIMIT_S
    # untimed warm-up: byte-compiles the package and fills the page cache
    subprocess.run([sys.executable, "-c", "import degenlap.cli"], cwd=ROOT, env=child_env(),
                   check=True, timeout=60)
    reps, longest = [], 0.0
    kinds = [False, True] if trace else [False]
    while True:
        pair_start = time.monotonic()
        for traced in kinds:
            reps.append(run_rep(workload, seed, run_dir / f"rep{len(reps)}", traced, deadline))
        longest = max(longest, time.monotonic() - pair_start)
        elapsed = time.monotonic() - started
        enough = len(reps) >= 2 and elapsed + longest > seconds
        if enough or elapsed + longest > RUN_LIMIT_S - 10:
            break

    outcomes = [o for rep in reps for o in rep["outcomes"]]
    unexpected = sorted({o.operation for o in outcomes
                         if not o.passed and o.operation not in workload.known_failures})
    deterministic = all(rep["hashes"] == reps[0]["hashes"] for rep in reps)
    setup_ok = all(i["setup_s"] is not None for rep in reps if not rep["trace"]
                   for i in rep["invocations"])
    untraced = [end_to_end(rep) for rep in reps if not rep["trace"]]
    if trace:
        traced = [per_layer(rep) for rep in reps if rep["trace"]]
        metrics = {name: _median([m[name] for m in traced]) for name in traced[0]}
        traced_wall = _median([sum(i["wall_s"] for i in rep["invocations"])
                               for rep in reps if rep["trace"]])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - _median([m["wall_s"] for m in untraced])
    else:
        metrics = {name: _median([m[name] for m in untraced]) for name in untraced[0]}
        for name in ("wall_s", "cpu_s"):
            metrics[name] = fastest([rep for rep in reps if not rep["trace"]], name)
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not unexpected and deterministic and setup_ok,
        "unexpected_failures": unexpected, "deterministic": deterministic,
        "attempted": len(outcomes), "failed": sum(not o.passed for o in outcomes),
        "metrics": metrics,
        "reps": [{"trace": rep["trace"], "hashes": rep["hashes"],
                  "outcomes": [vars(o) for o in rep["outcomes"]],
                  "invocations": [{k: v for k, v in i.items() if k != "child"}
                                  for i in rep["invocations"]]}
                 for rep in reps],
        "environment": {**machine_record(), **reps[0]["invocations"][0]["child"].get(
            "versions", {})},
    }


def fastest(reps: list[dict], name: str) -> float:
    """Sum over the workload's invocations of each one's least `name` across
    the repetitions.  Other tenants of a shared host only ever slow an
    invocation down, in bursts shorter than one invocation, so its fastest
    repetition is a steadier estimate of its own cost than the median of the
    three to five repetitions that fit in one run."""
    best: dict = {}
    for rep in reps:
        for inv in rep["invocations"]:
            best[inv["label"]] = min(best.get(inv["label"], inv[name]), inv[name])
    return sum(best.values())


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def benchmark_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def print_summary(record: dict, declared: list[dict]) -> dict:
    per_rep = record["attempted"] // len(record["reps"])
    failed = record["failed"] // len(record["reps"])
    env = record["environment"]
    print(f"== {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"reps={len(record['reps'])} correct={record['correct']} "
          f"deterministic={record['deterministic']}")
    print(f"   fail_ratio {failed}/{per_rep} per repetition"
          + (f"; unexpected failures: {record['unexpected_failures']}"
             if record["unexpected_failures"] else ""))
    for outcome in record["reps"][0]["outcomes"]:
        if not outcome["passed"]:
            print(f"   failed: {outcome['operation']} {outcome['detail']}")
    print(f"   python {env.get('python')} numpy {env.get('numpy')} scipy {env.get('scipy')} "
          f"blas_threads={env['blas_threads']} nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"commit={env['commit']}")
    digest = hashlib.sha256(json.dumps(record["reps"][0]["hashes"], sort_keys=True)
                            .encode()).hexdigest()
    print(f"   report hash {digest}")
    out = {}
    for metric in declared:
        if metric["name"] not in record["metrics"]:
            raise KeyError(f"metric {metric['name']} is declared but not measured")
        value = record["metrics"][metric["name"]]
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"   {metric['name']:<48} {shown:>14} {metric['unit']}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "degenlap" / "cli.py").is_file():
        print(f"bench: no degenlap sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    declared = benchmark_metrics(bool(args.trace))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = None
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                              time.monotonic())
        records = OUT / "records"
        records.mkdir(parents=True, exist_ok=True)
        (records / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8")
        result = {"correct": record["correct"], "attempted": record["attempted"],
                  "failed": record["failed"], "metrics": print_summary(record, declared)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
