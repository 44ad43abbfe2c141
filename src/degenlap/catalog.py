"""Closed-form fixtures bundling weights, coefficient fields, explicit
solutions and distortion maps with their machine-checkable claims.

Available fixtures:

* "constant"                -- k = 1, A = Id, harmonic polynomial solution.
* "axis-degenerate-planar"  -- planar p = 2 problem with k = |x1|^{-1/q},
  A = diag(k^{-1}, k) and the explicit bounded solution that is
  discontinuous exactly on the axis {x1 = 0}.
* "zhong-log"               -- 3-d log-degenerate coefficient field with
  k = |log|x||^{1+eps}; the associated equation admits a solution
  discontinuous at the origin, not available in closed form.  Its 3-d
  solve probe runs in a forked worker process (`_ProbeWorker`), beside the
  estimator checks, and records exactly what an in-process run records.
* "finite-distortion-radial" -- f(x) = (x/|x|) exp(|x|^eps) with closed-form
  inner/outer distortion.
"""
from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._rand import child_rng
from .geometry import Box, MetricSpace, euclidean
from .weights import (
    Singularity,
    Weight,
    a1_constant,
    ap_constant,
    axis_power_weight,
    constant_weight,
    log_weight,
    power_weight,
    rh_constant,
)
from .energy import MatrixField
from .distortion import MappingSpec, radial_exp_map

__all__ = ["Fixture", "FixtureNotFoundError", "fixture", "fixture_names", "verify_fixture"]


class FixtureNotFoundError(KeyError):
    pass


@dataclass
class Fixture:
    name: str
    p: float
    space: MetricSpace
    weight: Weight                       # the scalar degeneracy k
    matrix: MatrixField | None
    domain: Box
    q: float | None = None
    epsilon: float | None = None
    domain_radius: float | None = None
    solution: Callable[[np.ndarray], np.ndarray] | None = None
    mapping: MappingSpec | None = None
    discontinuity: str | None = None
    claimed: dict = field(default_factory=dict)


def _axis_solution(q: float):
    """u(x, y) = sign(x) exp(|x|^{1/q'}) sin(y/q'), 1/q + 1/q' = 1."""
    qprime = q / (q - 1.0)

    def u(pts):
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        return np.sign(x) * np.exp(np.abs(x) ** (1.0 / qprime)) * np.sin(y / qprime)

    return u


def _axis_matrix(k: Weight) -> MatrixField:
    kinv = k.pow(-1.0)
    return MatrixField.diagonal(
        "diag(k^-1, k)",
        [lambda pts: kinv(pts), lambda pts: k(pts)],
        envelope=(kinv, k, 2.0),
    )


def _zhong_tau(epsilon: float):
    def tau(pts):
        pts = np.atleast_2d(pts)
        r = np.linalg.norm(pts, axis=1)
        logs = np.abs(np.log(np.maximum(np.minimum(r, math.exp(-1.0)), 1e-300)))
        polar = 2.0 * np.abs(pts[:, -1]) > r
        return np.where(polar, 1.0, logs ** (-(1.0 + epsilon)))

    return tau


def fixture_names() -> list[str]:
    return ["constant", "axis-degenerate-planar", "zhong-log", "finite-distortion-radial"]


def fixture(name: str, epsilon: float = 0.1, q: float = 3.0) -> Fixture:
    """Catalog lookup; unknown names raise FixtureNotFoundError."""
    if name == "constant":
        k = constant_weight(1.0)
        return Fixture(
            name=name, p=2.0, space=euclidean(2), weight=k,
            matrix=MatrixField.identity(2),
            domain=Box([[-1.0, 1.0], [-1.0, 1.0]]),
            solution=lambda pts: np.atleast_2d(pts)[:, 0] ** 2 - np.atleast_2d(pts)[:, 1] ** 2,
            claimed={"ap_constant": 1.0, "classes": ("A_p for every p",),
                     "continuity": "everywhere (uniform ellipticity)"},
        )
    if name == "axis-degenerate-planar":
        k = axis_power_weight(-1.0 / q, axis=0)
        return Fixture(
            name=name, p=2.0, q=q, space=euclidean(2), weight=k,
            matrix=_axis_matrix(k),
            domain=Box([[-1.0, 1.0], [-1.0, 1.0]]),
            domain_radius=1.0,
            solution=_axis_solution(q),
            discontinuity="hyperplane x1 = 0",
            claimed={"classes": ("A_1", "RH_2"),
                     "continuity": "precisely off the axis {x1 = 0}"},
        )
    if name == "zhong-log":
        k = log_weight(1.0 + epsilon, 3)
        tau = _zhong_tau(epsilon)
        kinv = k.pow(-1.0)
        matrix = MatrixField.isotropic(
            f"tau(eps={epsilon:g})*Id", tau, 3, envelope=(kinv, k, 2.0))
        r = math.exp(-1.0)
        return Fixture(
            name=name, p=2.0, epsilon=epsilon, space=euclidean(3), weight=k,
            matrix=matrix,
            domain=Box([[-r, r], [-r, r], [-r, r]]),
            domain_radius=r,
            discontinuity="origin",
            claimed={"classes": ("A_1", "A_2", "RH_3"),
                     "continuity": "off the origin; a discontinuous-at-0 solution exists"},
        )
    if name == "finite-distortion-radial":
        n = 3
        mapping = radial_exp_map(epsilon, n)
        inner = power_weight(-epsilon * (n - 1.0), n).fn
        k_inner = Weight(
            name=f"K_I(eps={epsilon:g})",
            fn=lambda pts: epsilon ** (-(n - 1.0)) * inner(pts),
            singularity=Singularity("point", point=np.zeros(n)),
        )
        return Fixture(
            name=name, p=float(n), epsilon=epsilon, space=euclidean(n),
            weight=k_inner, matrix=None,
            domain=Box([[-1.0, 1.0]] * n),
            domain_radius=1.0,
            mapping=mapping,
            discontinuity="origin",
            claimed={"outer": "eps^-1 |x|^-eps", "inner": "(eps^-1 |x|^-eps)^(n-1)",
                     "classes": ("A_{n'}", "RH_n"), "valid": epsilon < 1.0 / (n - 1.0)},
        )
    raise FixtureNotFoundError(name)


def _sample_in_domain(fix: Fixture, count: int, seed: int) -> np.ndarray:
    rng = child_rng(seed, "fixture-pts")
    pts = fix.domain.sample(4 * count, rng)
    if fix.domain_radius is not None:
        pts = pts[np.linalg.norm(pts, axis=1) <= fix.domain_radius]
    # keep points clear of the degeneracy locus for pointwise algebra checks
    if fix.weight.singularity is not None:
        d = fix.weight.singularity.distance(fix.space, pts)
        pts = pts[d > 1e-3]
    return pts[:count]


def verify_fixture(name: str, budget_scale: float = 1.0, seed: int = 0, *,
                   probe: _ProbeWorker | None = None) -> dict:
    """Run the cross-module checks backing the fixture's claims and aggregate
    pass/fail with evidence.  Informational probes carry passed = None.

    zhong-log's solve probe runs in a forked worker process, and its record
    is identical to that of an in-process run.  `probe` is that worker when
    the caller started it earlier, so that it runs beside other checks (as
    `_verify_fixtures` does); otherwise this call starts and joins its own."""
    if name == "zhong-log" and probe is None:
        with _ProbeWorker(budget_scale) as probe:
            return verify_fixture(name, budget_scale, seed, probe=probe)
    fix = fixture(name)
    checks: list[dict] = []

    def record(check: str, passed, **details):
        checks.append({"check": check, "passed": passed, **details})

    # floors for small budget scales, meant to keep small families from
    # misreading finite constants as unbounded; unverified: at budget_scale
    # 0.25 over seeds 0-10, 2 estimates flag with the floors and 3 without
    balls = max(int(512 * budget_scale), 384)
    budget = max(int(2048 * budget_scale), 1024)
    window = (2e-3, 0.5)

    if fix.matrix is not None and fix.matrix.envelope is not None:
        pts = _sample_in_domain(fix, max(int(20000 * budget_scale), 1000), seed)
        viol = fix.matrix.check_envelope(pts)
        record("ellipticity-envelope", viol == 0, violations=viol, points=len(pts))

    if name == "constant":
        rep = ap_constant(fix.weight, fix.p, fix.space, fix.domain, window,
                          balls=balls // 2, budget=budget // 2, seed=seed)
        record("ap-constant-equals-1", rep.ap_estimate.value == 1.0,
               estimate=rep.ap_estimate.value)

    if name == "axis-degenerate-planar":
        a1 = a1_constant(fix.weight, fix.space, fix.domain, window,
                         points=max(int(128 * budget_scale), 32), radii=10,
                         budget=budget, seed=seed)
        record("a1-finite", not a1.a1_estimate.unbounded_suspected,
               estimate=a1.a1_estimate.value, stages=list(a1.a1_estimate.stages))
        rh = rh_constant(fix.weight, 2.0, fix.space, fix.domain, window,
                         balls=balls, budget=budget, seed=seed)
        record("rh2-finite", not rh.rh_estimate.unbounded_suspected,
               estimate=rh.rh_estimate.value, stages=list(rh.rh_estimate.stages))
        # the formal solution has finite energy density off the axis
        pts = _sample_in_domain(fix, 2000, seed)
        u = fix.solution
        eps_fd = 1e-6
        e1 = np.array([eps_fd, 0.0])
        e2 = np.array([0.0, eps_fd])
        ux = (u(pts + e1) - u(pts - e1)) / (2 * eps_fd)
        uy = (u(pts + e2) - u(pts - e2)) / (2 * eps_fd)
        kv = fix.weight(pts)
        density = ux ** 2 / kv + uy ** 2 * kv
        record("formal-solution-energy-density-finite", bool(np.all(np.isfinite(density))),
               max_density=float(density.max()))

    if name == "zhong-log":
        a2 = ap_constant(fix.weight, 2.0, fix.space, fix.domain, window,
                         balls=balls, budget=budget, seed=seed)
        record("a2-finite", not a2.ap_estimate.unbounded_suspected,
               estimate=a2.ap_estimate.value, stages=list(a2.ap_estimate.stages))
        rh = rh_constant(fix.weight, 3.0, fix.space, fix.domain, window,
                         balls=balls, budget=budget, seed=seed)
        record("rh3-finite", not rh.rh_estimate.unbounded_suspected,
               estimate=rh.rh_estimate.value, stages=list(rh.rh_estimate.stages))
        record("solve-probe-origin-oscillation", None, **probe.result())

    if name == "finite-distortion-radial":
        from .distortion import (column_identity_check, distortion_scalars, jacobian)

        eps, n = fix.epsilon, fix.space.n
        pts = _sample_in_domain(fix, 500, seed)
        sc = distortion_scalars(jacobian(fix.mapping, pts))
        ko = np.linalg.norm(pts, axis=1) ** (-eps) / eps
        ki = ko ** (n - 1)
        worst = float(max(np.max(np.abs(sc.outer - ko) / ko), np.max(np.abs(sc.inner - ki) / ki)))
        record("distortion-formulas", worst < 1e-8, max_rel_err=worst)
        record("identity-residual", column_identity_check(fix.mapping, pts[:100]) < 1e-8)
        gate_ok = eps < 1.0 / (n - 1.0)
        record("epsilon-gate", None, valid=gate_ok, epsilon=eps, threshold=1.0 / (n - 1.0))
        if gate_ok:
            nprime = n / (n - 1.0)
            apk = ap_constant(fix.weight, nprime, fix.space, fix.domain, window,
                              balls=balls, budget=budget, seed=seed)
            record("inner-distortion-ap-finite", not apk.ap_estimate.unbounded_suspected,
                   estimate=apk.ap_estimate.value)
            rhk = rh_constant(fix.weight, float(n), fix.space, fix.domain, window,
                              balls=balls, budget=budget, seed=seed)
            record("inner-distortion-rh-finite", not rhk.rh_estimate.unbounded_suspected,
                   estimate=rhk.rh_estimate.value)

    hard = [c for c in checks if c["passed"] is not None]
    return {
        "fixture": name,
        "passed": all(c["passed"] for c in hard),
        "checks": checks,
    }


def _verify_fixtures(names: Sequence[str], budget_scale: float, seed: int) -> list[dict]:
    """`verify_fixture` of each name, in the order given.  zhong-log's probe
    worker starts before the first fixture and zhong-log's own checks run
    last, so the probe overlaps every other check; none of them depends on
    the order in which they run."""
    worker = _ProbeWorker(budget_scale) if "zhong-log" in names else contextlib.nullcontext()
    with worker as probe:
        reports = {name: verify_fixture(name, budget_scale, seed, probe=probe)
                   for name in sorted(names, key=lambda n: n == "zhong-log")}
    return [reports[name] for name in names]


class _ProbeWorker:
    """zhong-log's solve probe, computed in a forked worker process while the
    caller goes on; `result` joins it.  The worker writes the pickled probe
    dict, or the pickled exception it raised, to a pipe, and always leaves
    by os._exit.  Where os.fork is missing or raises OSError, `result`
    computes the probe in process instead.  Leaving the `with` block kills a
    worker not yet joined (the caller raised) and reaps it, so no process
    outlives the block."""

    def __init__(self, budget_scale: float):
        self.budget_scale = budget_scale
        self.pid = self.pipe = None
        if not hasattr(os, "fork"):
            return
        sys.stdout.flush()  # else the worker would inherit, and write, the buffered text
        sys.stderr.flush()
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            return
        if pid == 0:
            os.close(read)
            _probe_worker_main(write, budget_scale)
        self.pid = pid
        os.close(write)
        self.pipe = os.fdopen(read, "rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self.pipe is not None:
            self.pipe.close()

    def result(self) -> dict:
        """The probe dict; the worker's exception is raised here, and a worker
        that exits non-zero or dies by a signal raises RuntimeError."""
        if self.pid is None:
            return _zhong_solve_probe(fixture("zhong-log"), self.budget_scale)
        data = self.pipe.read()
        pid = self.pid
        _, status = os.waitpid(pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            raise RuntimeError(f"the zhong-log solve probe's worker (pid {pid}) was killed "
                               f"by signal {-code} ({signal.Signals(-code).name})")
        if code != 0:
            raise RuntimeError(f"the zhong-log solve probe's worker (pid {pid}) exited "
                               f"with status {code}")
        outcome = pickle.loads(data)  # written by this program's own worker
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


def _probe_worker_main(fd: int, budget_scale: float):
    """The forked worker's whole life: compute the probe, write its pickled
    dict or exception to the pipe `fd`, and leave by os._exit (status 1 when
    the outcome could not be written), running no exit handler of the
    parent's."""
    status = 1
    try:
        with os.fdopen(fd, "wb") as pipe:
            try:
                outcome = _zhong_solve_probe(fixture("zhong-log"), budget_scale)
            except BaseException as exc:  # raised again in the parent by `result`
                outcome = exc
            pickle.dump(outcome, pipe)
        sys.stdout.flush()
        sys.stderr.flush()
        status = 0
    finally:
        os._exit(status)


def _zhong_odd(pts: np.ndarray) -> np.ndarray:
    """x_n / |x|, the odd boundary data of the zhong-log solve probe."""
    pts = np.atleast_2d(pts)
    return pts[:, -1] / np.maximum(np.linalg.norm(pts, axis=1), 1e-9)


def _zhong_solve_probe(fix: Fixture, budget_scale: float) -> dict:
    """Solve the log-degenerate equation with odd boundary data and report
    the oscillation profile at the origin.  At feasible resolutions the
    degeneracy is only logarithmic, so this is recorded as evidence, not
    asserted."""
    from .grids import GridDomain, GridFunction
    from .energy import SolverConfig, solve_dirichlet
    from .diagnostics import _holder_fits, dyadic_radii

    res = 33 if budget_scale < 1.0 else 49
    r = fix.domain_radius
    dom = GridDomain.disc(r, (res, res, res))
    psi = GridFunction.from_callable(dom, _zhong_odd)
    u, rep = solve_dirichlet(fix.matrix, 2.0, psi, config=SolverConfig(p=2.0))
    radii = dyadic_radii(0.9 * r, dom.h, min_factor=3.0)
    fit_origin, fit_off = _holder_fits(u, fix.space, [np.zeros(3), [0.0, 0.0, 0.55 * r]], radii)
    return {
        "resolution": res,
        "converged": rep.converged,
        "alpha_at_origin": fit_origin.alpha,
        "no_decay_at_origin": fit_origin.no_decay,
        "alpha_off_origin": fit_off.alpha,
        "origin_oscillations": list(fit_origin.oscillations),
    }
