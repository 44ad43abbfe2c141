"""The benchmark's workloads: the CLI commands each one runs and the oracles
that decide which of its operations failed.

Every workload runs `degenlap` exactly as a user would type it, at the
program's default seed (0).  The estimator verdicts of the weight layer
depend on that seed (see README.md), so the workload inputs are pinned to it
and the benchmark's own `--seed` only orders the invocations of a workload.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Invocation:
    label: str          # names the invocation in spans and metrics
    argv: list[str]     # arguments after `degenlap`
    entry: str          # "module:function" whose first call ends set-up


@dataclass(frozen=True)
class Outcome:
    operation: str
    passed: bool
    detail: str = ""


def _load(path: Path, key: str):
    return json.loads(path.read_text(encoding="utf-8"))[key]


# final_energy of each solve, measured at the commit that introduced the
# benchmark with one BLAS thread; a solve fails beyond 1e-10 relative.
REFERENCE_ENERGY = {
    "solve-box65": 19.816576489251055,
    "solve-disc129": 10.302268504050208,
    "solve-heis21": 25.246056297973535,
}
ENERGY_RTOL = 1e-10


def check_solves(outdirs: dict[str, Path]) -> list[Outcome]:
    outcomes = []
    for label, ref in REFERENCE_ENERGY.items():
        report = _load(outdirs[label] / "solve-report.json", "solve_report")
        energy = report["final_energy"]
        rel = abs(energy - ref) / abs(ref)
        ok = bool(report["converged"]) and rel <= ENERGY_RTOL
        outcomes.append(Outcome(label, ok, f"converged={report['converged']} "
                                           f"final_energy={energy!r} rel_err={rel:.3g}"))
    return outcomes


# Hard checks that fail at the commit that introduced the benchmark: both are
# "unbounded-suspected" false positives on weights whose closed form is finite.
KNOWN_CATALOG_FAILURES = frozenset({
    "axis-degenerate-planar/rh2-finite",
    "zhong-log/rh3-finite",
})


def check_catalog(outdirs: dict[str, Path]) -> list[Outcome]:
    fixtures = _load(outdirs["catalog"] / "catalog-report.json", "fixtures")
    outcomes = []
    for fix in fixtures:
        for check in fix["checks"]:
            name = f"{fix['fixture']}/{check['check']}"
            if check["passed"] is not None:
                outcomes.append(Outcome(name, bool(check["passed"]),
                                        f"estimate {check['estimate']}" if "estimate" in check
                                        else ""))
            elif "converged" in check:
                outcomes.append(Outcome(f"{name}/converged", bool(check["converged"])))
    return outcomes


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    check: Callable[[dict[str, Path]], list[Outcome]]
    known_failures: frozenset = frozenset()

    def ordered(self, seed: int) -> list[Invocation]:
        order = list(self.invocations)
        random.Random(seed).shuffle(order)
        return order


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="solve-plap",
            invocations=(
                Invocation("solve-box65", ["solve", "--p", "3", "--resolution", "65"],
                           "degenlap.energy:solve_dirichlet"),
                Invocation("solve-disc129", ["solve", "--p", "3", "--resolution", "129",
                                             "--mask", "disc"],
                           "degenlap.energy:solve_dirichlet"),
                Invocation("solve-heis21", ["solve", "--geometry", "heisenberg1",
                                            "--dimension", "3", "--p", "3",
                                            "--resolution", "21", "--psi", "exp-cos"],
                           "degenlap.energy:solve_dirichlet"),
            ),
            check=check_solves,
        ),
        Workload(
            name="catalog",
            invocations=(
                Invocation("catalog", ["catalog"], "degenlap.catalog:verify_fixture"),
            ),
            check=check_catalog,
            known_failures=KNOWN_CATALOG_FAILURES,
        ),
    )
}
