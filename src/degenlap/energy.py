"""Discrete p-energy, weak form, vector inequalities and the Dirichlet solver.

Discretization: node-based unknowns, cell-centered gradients (average of the
2^(n-1) edge differences per axis), midpoint quadrature, coefficients
evaluated at cell centers.  With this choice the weak form is the exact
gradient of the energy, so the discrete Dirichlet problem is a genuine
convex minimization.

The degenerate factor <A Xu, Xu>^{(p-2)/2} is regularized to
(delta^2 + <A Xu, Xu>)^{(p-2)/2}; the solver runs damped Newton with an
Armijo line search under a delta-continuation schedule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._rand import child_rng
from .geometry import Ball, MetricSpace, euclidean, metric_distance
from .grids import BOUNDARY, INTERIOR, GridDomain, GridFunction
from .weights import Weight

__all__ = [
    "MatrixField",
    "SolverConfig",
    "SolveReport",
    "CellField",
    "InvalidTestFunctionError",
    "InvalidCoefficientsError",
    "horizontal_gradient",
    "p_energy",
    "weak_form",
    "vector_inequalities_check",
    "VectorInequalityReport",
    "monotonicity_gap",
    "solve_dirichlet",
    "poincare_ratio",
    "default_delta",
]


class InvalidTestFunctionError(ValueError):
    """Test function does not vanish on Dirichlet boundary nodes."""


class InvalidCoefficientsError(ValueError):
    """Coefficient field violates its declared ellipticity envelope."""


def eval_shifted(fn, pts: np.ndarray, h: float, interior_point: np.ndarray):
    """Evaluate `fn` at `pts`, nudging every point where it is non-finite (a
    point on its singular set) by h/100 toward `interior_point`.  Returns the
    values and the number of nudged points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.asarray(fn(pts), dtype=float)
    bad = ~np.all(np.isfinite(out.reshape(len(out), -1)), axis=1)
    if np.any(bad):
        shift = interior_point - pts[bad]
        norms = np.linalg.norm(shift, axis=1, keepdims=True)
        shift = np.where(norms > 0, shift / np.maximum(norms, 1e-300), 0.0)
        shift[np.all(shift == 0.0, axis=1)] = np.eye(pts.shape[1])[0]
        out[bad] = fn(pts[bad] + (h / 100.0) * shift)
    return out, int(np.count_nonzero(bad))


@dataclass
class MatrixField:
    """Symmetric coefficient field A(x) with its ellipticity envelope.

    `fn` maps (N, n) points to (N, m, m) symmetric matrices; m = n for
    Euclidean backends and m = 2 for the Heisenberg horizontal frame.
    `envelope` is the optional triple (w, v, p) asserting
    w(x)^{2/p} |xi|^2 <= <A(x) xi, xi> <= v(x)^{2/p} |xi|^2.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    m: int
    envelope: tuple[Weight, Weight, float] | None = None
    shifted_evaluations: int = field(default=0, compare=False)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.asarray(self.fn(pts), dtype=float)
        return out.reshape(len(pts), self.m, self.m)

    def evaluate_shifted(self, pts: np.ndarray, h: float, interior_point: np.ndarray) -> np.ndarray:
        """Evaluate, nudging any point that hits a singularity of the
        coefficients by h/100 toward the domain interior; counts the nudges
        in `shifted_evaluations`."""
        out, nudged = eval_shifted(self, pts, h, interior_point)
        self.shifted_evaluations += nudged
        return out

    @classmethod
    def identity(cls, m: int) -> "MatrixField":
        eye = np.eye(m)
        return cls(name="identity", fn=lambda pts: np.broadcast_to(eye, (len(pts), m, m)).copy(), m=m)

    @classmethod
    def isotropic(cls, name: str, scalar_fn, m: int, envelope=None) -> "MatrixField":
        eye = np.eye(m)

        def fn(pts):
            s = np.asarray(scalar_fn(pts), dtype=float)
            return s[:, None, None] * eye

        return cls(name=name, fn=fn, m=m, envelope=envelope)

    @classmethod
    def diagonal(cls, name: str, diag_fns, envelope=None) -> "MatrixField":
        m = len(diag_fns)

        def fn(pts):
            out = np.zeros((len(pts), m, m))
            for i, g in enumerate(diag_fns):
                out[:, i, i] = np.asarray(g(pts), dtype=float)
            return out

        return cls(name=name, fn=fn, m=m, envelope=envelope)

    def check_envelope(self, pts: np.ndarray, directions: int = 8, seed: int = 0,
                       rel_slack: float = 1e-9) -> int:
        """Count sampled (x, xi) pairs violating the ellipticity sandwich."""
        if self.envelope is None:
            raise ValueError("matrix field has no declared envelope")
        w, v, p = self.envelope
        pts = np.atleast_2d(pts)
        a = self(pts)
        asym = np.abs(a - np.swapaxes(a, 1, 2)).max()
        if asym > 0:
            raise InvalidCoefficientsError(f"matrix field not symmetric (max asym {asym})")
        rng = child_rng(seed, "envelope")
        xi = rng.normal(size=(directions, self.m))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        quad = np.einsum("kij,di,dj->kd", a, xi, xi)
        lo = np.asarray(w(pts), dtype=float) ** (2.0 / p)
        hi = np.asarray(v(pts), dtype=float) ** (2.0 / p)
        bad = (quad < lo[:, None] * (1 - rel_slack) - 1e-300) | (
            quad > hi[:, None] * (1 + rel_slack) + 1e-300)
        return int(np.count_nonzero(bad))


@dataclass(frozen=True)
class CellField:
    """Per-cell vector field on the included cells of a grid."""

    values: np.ndarray     # (K, m)
    centers: np.ndarray    # (K, n)
    cell_volume: float
    domain: GridDomain


def _corner_signs(n: int) -> np.ndarray:
    """(n, 2^n) array: sign of each corner in the axis-a cell difference."""
    signs = np.empty((n, 2 ** n))
    for c in range(2 ** n):
        for a in range(n):
            signs[a, c] = 1.0 if (c >> (n - 1 - a)) & 1 else -1.0
    return signs


def _stencil_matrix(space: MetricSpace, domain: GridDomain, centers: np.ndarray) -> np.ndarray:
    """(K, m, 2^n) coefficients turning cell corner values into the
    horizontal gradient at the cell center."""
    n = domain.n
    signs = _corner_signs(n) / (domain.h * 2 ** (n - 1))  # (n, 2^n)
    if space.kind == "euclidean":
        return np.broadcast_to(signs, (len(centers), n, 2 ** n))
    # Heisenberg horizontal frame: X1 = dx - (y/2) dt, X2 = dy + (x/2) dt
    x_c, y_c = centers[:, 0], centers[:, 1]
    b = np.empty((len(centers), 2, 2 ** n))
    b[:, 0, :] = signs[0][None, :] - 0.5 * y_c[:, None] * signs[2][None, :]
    b[:, 1, :] = signs[1][None, :] + 0.5 * x_c[:, None] * signs[2][None, :]
    return b


def horizontal_gradient(space: MetricSpace, u: GridFunction) -> CellField:
    """Cell-centered horizontal gradient Xu over the included cells."""
    disc = _Discretization(space, u.domain)
    return CellField(values=disc.gradients(u.values), centers=disc.centers,
                     cell_volume=disc.cell_volume, domain=u.domain)


def default_delta(p: float) -> float:
    return 1e-8 if p >= 2 else 1e-6


def p_energy(
    u: GridFunction,
    a_field: MatrixField,
    p: float,
    delta: float = 0.0,
    space: MetricSpace | None = None,
) -> float:
    """Sum over cells of h^n (delta^2 + <A Xu, Xu>)^(p/2)."""
    disc = _Discretization(space or euclidean(u.domain.n), u.domain, a_field)
    g = disc.gradients(u.values)
    q = np.einsum("kij,ki,kj->k", disc.a, g, g)
    return float(disc.cell_volume * np.sum((delta * delta + q) ** (p / 2.0)))


def _weak_form_cells(gu: np.ndarray, gphi: np.ndarray, a: np.ndarray, p: float,
                     delta: float, cell_volume: float) -> float:
    q = np.einsum("kij,ki,kj->k", a, gu, gu)
    s = delta * delta + q
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(s > 0.0, s ** ((p - 2.0) / 2.0), 0.0)
    cross = np.einsum("kij,ki,kj->k", a, gu, gphi)
    return float(cell_volume * np.sum(factor * cross))


def weak_form(
    u: GridFunction,
    phi: GridFunction,
    a_field: MatrixField,
    p: float,
    delta: float = 0.0,
    space: MetricSpace | None = None,
) -> float:
    """Regularized weak form: integral of
    (delta^2 + <A Xu, Xu>)^{(p-2)/2} <A Xu, Xphi>.

    Equals (1/p) times the directional derivative of `p_energy` at u in the
    direction phi.  phi must vanish on boundary nodes.
    """
    if np.any(phi.values[phi.domain.mask == BOUNDARY] != 0.0):
        raise InvalidTestFunctionError("test function must vanish on boundary nodes")
    disc = _Discretization(space or euclidean(u.domain.n), u.domain, a_field)
    return _weak_form_cells(disc.gradients(u.values), disc.gradients(phi.values), disc.a,
                            p, delta, disc.cell_volume)


def monotonicity_gap(
    u1: GridFunction,
    u2: GridFunction,
    a_field: MatrixField,
    p: float,
    delta: float = 0.0,
    space: MetricSpace | None = None,
) -> float:
    """a0^p(u1, u1-u2) - a0^p(u2, u1-u2); nonnegative by monotonicity of the
    regularized operator (no boundary restriction on u1 - u2 is needed, the
    pointwise vector inequality holds cell by cell)."""
    disc = _Discretization(space or euclidean(u1.domain.n), u1.domain, a_field)
    g1 = disc.gradients(u1.values)
    g2 = disc.gradients(u2.values)
    diff = g1 - g2
    t1 = _weak_form_cells(g1, diff, disc.a, p, delta, disc.cell_volume)
    t2 = _weak_form_cells(g2, diff, disc.a, p, delta, disc.cell_volume)
    return t1 - t2


# --- vector inequalities ------------------------------------------------------

@dataclass(frozen=True)
class VectorInequalityReport:
    p: float
    entries: tuple[dict, ...]

    @property
    def total_violations(self) -> int:
        return sum(e["violations"] for e in self.entries)

    def to_dict(self):
        return {"p": self.p, "entries": list(self.entries),
                "total_violations": self.total_violations}


def _phi_p(x: np.ndarray, p: float) -> np.ndarray:
    """|x|^{p-2} x with the zero-vector convention phi_p(0) = 0."""
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(norm > 0, norm ** (p - 2.0) * x, 0.0)
    return out


def vector_inequalities_check(
    p: float,
    samples: int,
    seed: int,
    dims: tuple[int, ...] = (1, 2, 3, 5),
    rel_slack: float = 1e-10,
    batch: int = 250_000,
) -> VectorInequalityReport:
    """Brute-force check of the four monotonicity/coercivity vector
    inequalities on random pairs with magnitudes log-uniform in [1e-6, 1e6].

    For the 1 < p <= 2 difference bound the smallest working constant c_p is
    fitted and recorded alongside the violation count against 2^{2-p}.
    """
    if not p > 1:
        raise ValueError("requires p > 1")
    entries = []
    for m in dims:
        counts = {"difference_bound_p_ge_2": 0, "difference_bound_p_le_2": 0,
                  "coercivity_p_ge_2": 0, "coercivity_p_le_2": 0}
        fitted_cp = 0.0
        done = 0
        bi = 0
        while done < samples:
            nb = min(batch, samples - done)
            rng = child_rng(seed, "vecineq", m, bi)
            bi += 1
            xi = rng.normal(size=(nb, m))
            xi /= np.linalg.norm(xi, axis=1, keepdims=True)
            eta = rng.normal(size=(nb, m))
            eta /= np.linalg.norm(eta, axis=1, keepdims=True)
            xi *= np.exp(rng.uniform(np.log(1e-6), np.log(1e6), (nb, 1)))
            eta *= np.exp(rng.uniform(np.log(1e-6), np.log(1e6), (nb, 1)))

            fxi, feta = _phi_p(xi, p), _phi_p(eta, p)
            dphi = np.linalg.norm(fxi - feta, axis=1)
            dv = np.linalg.norm(xi - eta, axis=1)
            nxi = np.linalg.norm(xi, axis=1)
            neta = np.linalg.norm(eta, axis=1)
            inner = np.einsum("ij,ij->i", fxi - feta, xi - eta)

            if p >= 2.0:
                rhs = (p - 1.0) * (nxi ** (p - 2.0) + neta ** (p - 2.0)) * dv
                counts["difference_bound_p_ge_2"] += int(np.count_nonzero(
                    dphi > rhs * (1 + rel_slack) + 1e-300))
                rhs = 2.0 ** (2.0 - p) * dv ** p
                counts["coercivity_p_ge_2"] += int(np.count_nonzero(
                    inner < rhs * (1 - rel_slack) - 1e-300))
            if 1.0 < p <= 2.0:
                core = dv ** (p - 1.0)
                with np.errstate(invalid="ignore", divide="ignore"):
                    ratio = np.where(core > 0, dphi / core, 0.0)
                fitted_cp = max(fitted_cp, float(np.max(ratio)))
                counts["difference_bound_p_le_2"] += int(np.count_nonzero(
                    dphi > 2.0 ** (2.0 - p) * core * (1 + rel_slack) + 1e-300))
                rhs = dv ** p - neta ** (p - 1.0) * dv
                scale = np.maximum(np.abs(inner), np.abs(rhs))
                counts["coercivity_p_le_2"] += int(np.count_nonzero(
                    inner < rhs - rel_slack * scale - 1e-300))
            done += nb
        for name, viol in counts.items():
            applicable = (("ge_2" in name) and p >= 2.0) or (("le_2" in name) and 1.0 < p <= 2.0)
            if not applicable:
                continue
            entry = {"inequality": name, "m": m, "samples": samples, "violations": viol}
            if name == "difference_bound_p_le_2":
                entry["fitted_constant"] = fitted_cp
                entry["reference_constant"] = 2.0 ** (2.0 - p)
            entries.append(entry)
    return VectorInequalityReport(p=p, entries=tuple(entries))


# --- Dirichlet solver ---------------------------------------------------------

@dataclass
class SolverConfig:
    """Damped-Newton configuration for the regularized p-energy."""

    p: float
    delta_final: float | None = None
    delta_init: float = 1e-2
    tolerance: float = 1e-10
    max_iterations: int = 400
    newton_per_level: int = 40
    cg_rtol: float = 1e-10
    init: str = "psi"          # "psi" or "zero"

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError("requires p > 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.delta_final is None:
            self.delta_final = default_delta(self.p)

    def schedule(self) -> list[float]:
        if self.p == 2.0:
            return [self.delta_final]
        out = []
        d = self.delta_init
        while d > self.delta_final:
            out.append(d)
            d *= 0.5
        out.append(self.delta_final)
        return out


@dataclass
class SolveReport:
    iterations: int
    final_energy: float
    final_grad_norm: float
    weak_residual_sup: float
    converged: bool
    delta_schedule: list[float]
    energy_history: list[float]
    grad_scale: float
    init: str
    shifted_evaluations: int = 0
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "final_energy": self.final_energy,
            "final_grad_norm": self.final_grad_norm,
            "weak_residual_sup": self.weak_residual_sup,
            "converged": self.converged,
            "delta_schedule": list(self.delta_schedule),
            "energy_history": list(self.energy_history),
            "grad_scale": self.grad_scale,
            "init": self.init,
            "shifted_evaluations": self.shifted_evaluations,
            "notes": self.notes,
        }


class _Discretization:
    """Cell data for one (space, domain) pair: corner node indices, cell
    centers and the stencil B turning corner values into the horizontal
    gradient, plus the cell coefficients A when a field is given.  The
    products A B and B^T A B are built on first use, so callers that only
    need gradients or energies never allocate the (K, 2^n, 2^n) Hessian
    blocks."""

    def __init__(self, space: MetricSpace, domain: GridDomain, a_field: MatrixField | None = None):
        if space.kind == "heisenberg1" and domain.n != 3:
            raise ValueError("heisenberg1 requires a 3-d grid")
        self.cell_volume = domain.h ** domain.n
        included = domain.included_cells().ravel()
        self.corner_idx = np.stack(
            [c[included] for c in domain.corner_index_arrays()], axis=-1
        )  # (K, 2^n)
        self.centers = domain.cell_centers().reshape(-1, domain.n)[included]
        self.b = _stencil_matrix(space, domain, self.centers)
        if a_field is not None:
            self.a = a_field.evaluate_shifted(self.centers, domain.h, domain.bounds.mean(axis=1))
        mask_flat = domain.mask.ravel()
        self.n_nodes = mask_flat.size
        self.free = np.flatnonzero(mask_flat == INTERIOR)
        self.free_pos = -np.ones(self.n_nodes, dtype=np.int64)
        self.free_pos[self.free] = np.arange(len(self.free))

    @cached_property
    def ab(self) -> np.ndarray:
        return np.einsum("kij,kjc->kic", self.a, self.b)  # A B

    @cached_property
    def btab(self) -> np.ndarray:
        return np.einsum("kmc,kmd->kcd", self.b, self.ab)  # B^T A B

    def gradients(self, values: np.ndarray) -> np.ndarray:
        corners = values.ravel()[self.corner_idx]  # (K, 2^n)
        return np.einsum("kmc,kc->km", self.b, corners)

    def energy_gradient(self, values: np.ndarray, p: float, delta: float):
        corners = values.ravel()[self.corner_idx]
        g = np.einsum("kmc,kc->km", self.b, corners)
        ag = np.einsum("kic,kc->ki", self.ab, corners)  # A Xu per cell
        quad = np.einsum("km,km->k", g, ag)
        s = delta * delta + quad
        energy = self.cell_volume * float(np.sum(s ** (p / 2.0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            w1 = np.where(s > 0, s ** ((p - 2.0) / 2.0), 0.0)
        v = np.einsum("kmc,km->kc", self.b, ag)  # B^T A g per cell
        cell_grad = (self.cell_volume * p) * w1[:, None] * v
        grad = np.zeros(self.n_nodes)
        np.add.at(grad, self.corner_idx.ravel(), cell_grad.ravel())
        return energy, grad, (s, ag, v)

    def hessian(self, values: np.ndarray, p: float, delta: float, cache=None) -> sp.csr_matrix:
        if cache is None:
            _, _, cache = self.energy_gradient(values, p, delta)
        s, ag, v = cache
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(s > 0, s ** ((p - 2.0) / 2.0), 0.0)
            beta = np.where(s > 0, (p - 2.0) * s ** ((p - 4.0) / 2.0), 0.0)
        blocks = (self.cell_volume * p) * (
            alpha[:, None, None] * self.btab
            + beta[:, None, None] * v[:, :, None] * v[:, None, :]
        )
        k, c = self.corner_idx.shape
        rows = np.repeat(self.corner_idx, c, axis=1).ravel()
        cols = np.tile(self.corner_idx, (1, c)).ravel()
        vals = blocks.ravel()
        rfree = self.free_pos[rows]
        cfree = self.free_pos[cols]
        keep = (rfree >= 0) & (cfree >= 0)
        mat = sp.coo_matrix(
            (vals[keep], (rfree[keep], cfree[keep])),
            shape=(len(self.free), len(self.free)),
        )
        return mat.tocsr()


def solve_dirichlet(
    a_field: MatrixField,
    p: float,
    psi: GridFunction,
    domain: GridDomain | None = None,
    config: SolverConfig | None = None,
    space: MetricSpace | None = None,
) -> tuple[GridFunction, SolveReport]:
    """Minimize the regularized p-energy over grid functions equal to psi on
    the boundary nodes.

    Damped Newton on the strictly convex regularized functional, with an
    Armijo line search guaranteeing energy descent and delta-continuation
    down to config.delta_final.  Returns the minimizer and a report whose
    weak-residual sup is max_i |a0^p(u, e_i)| over the interior nodal basis.
    """
    domain = domain or psi.domain
    config = config or SolverConfig(p=p)
    if config.p != p:
        raise ValueError("config.p must match p")
    space = space or euclidean(domain.n)
    shifted_before = a_field.shifted_evaluations
    disc = _Discretization(space, domain, a_field)
    asym = np.abs(disc.a - np.swapaxes(disc.a, 1, 2)).max() if len(disc.a) else 0.0
    if asym > 0:
        raise InvalidCoefficientsError(f"coefficient matrices not symmetric (max {asym})")

    values = psi.values.copy()
    values[domain.mask == 0] = 0.0
    if config.init == "zero":
        values.ravel()[disc.free] = 0.0
    elif config.init != "psi":
        raise ValueError(f"unknown init mode {config.init!r}")

    schedule = config.schedule()
    energy_history: list[float] = []
    grad_scale = None
    iters = 0
    converged = False
    final_grad_norm = math.inf
    energy = math.inf

    for delta in schedule:
        for _ in range(config.newton_per_level):
            energy, grad, cache = disc.energy_gradient(values, p, delta)
            gfree = grad[disc.free]
            gnorm = float(np.max(np.abs(gfree))) if len(gfree) else 0.0
            if grad_scale is None:
                grad_scale = max(gnorm, 1e-300)
            energy_history.append(energy)
            if gnorm <= config.tolerance * grad_scale:
                break
            if iters >= config.max_iterations:
                break
            hess = disc.hessian(values, p, delta, cache)
            diag = hess.diagonal()
            diag[diag <= 0] = 1.0
            precond = spla.LinearOperator(hess.shape, matvec=lambda x, d=diag: x / d)
            step, _info = spla.cg(hess, -gfree, rtol=config.cg_rtol, atol=0.0,
                                  maxiter=10 * len(gfree), M=precond)
            slope = float(np.dot(gfree, step))
            if slope >= 0:
                step = -gfree
                slope = float(np.dot(gfree, step))
            s = 1.0
            accepted = False
            for _ls in range(42):
                trial = values.copy()
                trial.ravel()[disc.free] += s * step
                e_trial, _, _ = disc.energy_gradient(trial, p, delta)
                if e_trial <= energy + 1e-4 * s * slope:
                    values = trial
                    accepted = True
                    break
                s *= 0.5
            iters += 1
            if not accepted:
                break
        if iters >= config.max_iterations:
            break

    energy, grad, _ = disc.energy_gradient(values, p, schedule[-1])
    gfree = grad[disc.free]
    final_grad_norm = float(np.max(np.abs(gfree))) if len(gfree) else 0.0
    converged = final_grad_norm <= 10.0 * config.tolerance * (grad_scale or 1.0)
    energy_history.append(energy)

    u = GridFunction(domain, values)
    report = SolveReport(
        iterations=iters,
        final_energy=energy,
        final_grad_norm=final_grad_norm,
        weak_residual_sup=final_grad_norm / p,
        converged=converged,
        delta_schedule=schedule,
        energy_history=energy_history,
        grad_scale=float(grad_scale or 0.0),
        init=config.init,
        shifted_evaluations=a_field.shifted_evaluations - shifted_before,
    )
    return u, report


def poincare_ratio(
    w: Weight,
    v: Weight,
    p: float,
    q: float,
    f: GridFunction,
    ball: Ball,
    space: MetricSpace | None = None,
) -> float:
    """(v-weighted q-mean oscillation of f around its v-mean on B) divided by
    (r times the w-weighted p-mean of |Xf| on B); 0 when f is constant."""
    dom = f.domain
    space = space or euclidean(dom.n)
    coords = dom.node_coords().reshape(-1, dom.n)
    live = dom.mask.ravel() > 0
    center = np.broadcast_to(ball.center, coords.shape)
    in_ball = (np.asarray(metric_distance(space, coords, center)) < ball.radius) & live
    if np.count_nonzero(in_ball) < 2:
        raise ValueError("ball contains fewer than 2 grid nodes")
    interior_point = dom.bounds.mean(axis=1)
    vals = f.values.ravel()[in_ball]
    vw, _ = eval_shifted(v, coords[in_ball], dom.h, interior_point)
    f_mean = float(np.sum(vals * vw) / np.sum(vw))
    lhs = float((np.sum(np.abs(vals - f_mean) ** q * vw) / np.sum(vw)) ** (1.0 / q))
    scale = float(np.max(np.abs(vals - vals.mean()))) if len(vals) else 0.0
    if lhs <= 1e-14 * max(scale, 1.0):
        return 0.0
    g = horizontal_gradient(space, f)
    centers = g.centers
    cball = np.asarray(metric_distance(space, centers,
                                       np.broadcast_to(ball.center, centers.shape))) < ball.radius
    if not np.any(cball):
        raise ValueError("ball contains no quadrature cells")
    gw, _ = eval_shifted(w, centers[cball], dom.h, interior_point)
    gn = np.linalg.norm(g.values[cball], axis=1)
    rhs = ball.radius * float((np.sum(gn ** p * gw) / np.sum(gw)) ** (1.0 / p))
    return lhs / rhs
