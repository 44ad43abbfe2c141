"""Discrete p-energy, weak form, monotonicity gap and the Dirichlet solver.

Discretization: node-based unknowns, cell-centered gradients (average of the
2^(n-1) edge differences per axis), midpoint quadrature, coefficients
evaluated at cell centers.  With this choice the weak form is the exact
gradient of the energy, so the discrete Dirichlet problem is a genuine
convex minimization.

The degenerate factor <A Xu, Xu>^{(p-2)/2} is regularized to
(delta^2 + <A Xu, Xu>)^{(p-2)/2}; the solver runs damped Newton with an
Armijo line search under a delta-continuation schedule.

The continuation is inexact.  A delta level only seeds the next one, and the
regularized gradient moves by O(delta) between levels, so every level but
the last stops once the max-norm of the free gradient is below
max(tolerance, delta) times the first residual; the last level uses
`tolerance`.  Each target has an absolute floor, a small multiple of the
rounding scale of the gradient evaluation, so a boundary datum that already
solves the discrete problem is accepted at once.  Each Newton step solves
its linear system with Jacobi-preconditioned CG to the relative tolerance
clamp(0.1 * target / |gradient|, CG_RTOL, 0.1), the forcing term of
Eisenstat & Walker, "Choosing the forcing terms in an inexact Newton
method", SIAM J. Sci. Comput. 17 (1996): far from the target CG stops early,
and it is never asked for more than `CG_RTOL`.  Near the minimizer a step's
predicted energy drop falls below the rounding of the energy itself, where
the Armijo test only sees noise; a step whose predicted drop is that small
is accepted when it lowers the max-norm of the gradient instead.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import MetricSpace, euclidean
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
    "monotonicity_gap",
    "solve_dirichlet",
    "default_delta",
]


class InvalidTestFunctionError(ValueError):
    """Test function does not vanish on Dirichlet boundary nodes."""


class InvalidCoefficientsError(ValueError):
    """Coefficient field violates its declared ellipticity envelope."""


def _sandwich_violations(mats: np.ndarray, lo, hi) -> int:
    """Number of symmetric matrices M in the stack for which
        lo |xi|^2 <= <M xi, xi> <= hi |xi|^2  (relative slack 1e-9)
    fails for some xi; exact, as the extremes of the form over unit xi are
    the extreme eigenvalues of M (Rayleigh-Ritz).  lo, hi: scalars or (K,)."""
    eigs = np.linalg.eigvalsh(mats)
    bad = (eigs[..., 0] < lo * (1 - 1e-9)) | (eigs[..., -1] > hi * (1 + 1e-9))
    return int(np.count_nonzero(bad))


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
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = self(pts)
        bad = ~np.all(np.isfinite(out.reshape(len(out), -1)), axis=1)
        if np.any(bad):
            shift = interior_point - pts[bad]
            norms = np.linalg.norm(shift, axis=1, keepdims=True)
            shift = np.where(norms > 0, shift / np.maximum(norms, 1e-300), 0.0)
            shift[np.all(shift == 0.0, axis=1)] = np.eye(pts.shape[1])[0]
            out[bad] = self(pts[bad] + (h / 100.0) * shift)
        self.shifted_evaluations += int(np.count_nonzero(bad))
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

    def check_envelope(self, pts: np.ndarray) -> int:
        """Number of points x at which the declared sandwich
            w(x)^{2/p} |xi|^2 <= <A(x) xi, xi> <= v(x)^{2/p} |xi|^2
        fails for some direction xi, decided exactly from the extreme
        eigenvalues of A(x) (`_sandwich_violations`).  A point where A or the
        envelope is not finite (on the singular set of the coefficients) is
        refused with InvalidCoefficientsError, which names the first one."""
        if self.envelope is None:
            raise ValueError("matrix field has no declared envelope")
        w, v, p = self.envelope
        pts = np.atleast_2d(pts)
        a = self(pts)
        lo = np.asarray(w(pts), dtype=float) ** (2.0 / p)
        hi = np.asarray(v(pts), dtype=float) ** (2.0 / p)
        finite = (np.all(np.isfinite(a.reshape(len(a), -1)), axis=1)
                  & np.isfinite(lo) & np.isfinite(hi))
        if not finite.all():
            i = int(np.argmin(finite))
            raise InvalidCoefficientsError(
                f"coefficients or envelope not finite at {pts[i].tolist()} "
                f"(A = {a[i].tolist()}, envelope {lo[i]}, {hi[i]})")
        asym = np.abs(a - np.swapaxes(a, 1, 2)).max()
        if asym > 0:
            raise InvalidCoefficientsError(f"matrix field not symmetric (max asym {asym})")
        return _sandwich_violations(a, lo, hi)


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


# --- Dirichlet solver ---------------------------------------------------------

# Rounding margin: no residual target is set below this multiple of
# `_Discretization.gradient_roundoff` (a fresh evaluation of data that solve
# the discrete problem sits at 0.3-0.5 of it), and the line search treats an
# energy drop below this multiple of eps * |E| as invisible.
_ROUNDOFF_FACTOR = 10.0
# The delta-continuation starts at DELTA_INIT and halves down to delta_final.
DELTA_INIT = 1e-2
# A delta level stops after at most NEWTON_PER_LEVEL Newton steps.
NEWTON_PER_LEVEL = 40
# The floor of the CG forcing term: a Newton step asks CG for the relative
# residual clamp(0.1 * target / |gradient|, CG_RTOL, 0.1).  A p = 2 solve has
# one level, and its first step uses CG_RTOL itself.
CG_RTOL = 1e-10


@dataclass
class SolverConfig:
    """Damped-Newton configuration for the regularized p-energy.

    `tolerance` is the stopping tolerance of the last delta level, relative
    to the first residual; earlier levels stop at max(tolerance, delta).
    """

    p: float
    delta_final: float | None = None
    tolerance: float = 1e-10
    max_iterations: int = 400
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
        d = DELTA_INIT
        while d > self.delta_final:
            out.append(d)
            d *= 0.5
        out.append(self.delta_final)
        return out


@dataclass
class SolveReport:
    """Outcome of `solve_dirichlet`.  `levels` has one entry per delta level
    visited: its delta, Newton steps, CG iterations, the CG relative
    tolerance and exit status of each step (`cg_rtol`, `cg_info`),
    line-search trials, and why the level stopped (`tolerance`,
    `newton_per_level`, `max_iterations` or `line_search_failed`)."""

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
    levels: list[dict] = field(default_factory=list)
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
            "levels": list(self.levels),
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

    def gradient_roundoff(self, values: np.ndarray, p: float, cache) -> float:
        """Rounding scale of the free components of `energy_gradient`: machine
        epsilon times the largest, over free nodes, of the node's cell
        contributions summed in absolute value, term by term down to the
        corner values.  No residual below a small multiple of it can be
        certified in floating point."""
        s = cache[0]
        corners = np.abs(values.ravel()[self.corner_idx])
        mag = np.einsum("kmc,km->kc", np.abs(self.b),
                        np.einsum("kic,kc->ki", np.abs(self.ab), corners))
        with np.errstate(divide="ignore", invalid="ignore"):
            w1 = np.where(s > 0, s ** ((p - 2.0) / 2.0), 0.0)
        node = np.bincount(self.corner_idx.ravel(),
                           ((self.cell_volume * p) * w1[:, None] * mag).ravel(),
                           minlength=self.n_nodes)
        free = node[self.free]
        return float(np.finfo(float).eps * free.max()) if len(free) else 0.0

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
    Armijo line search guaranteeing energy descent down to the energy's
    rounding, and inexact delta-continuation down to config.delta_final (see
    the module docstring).  Returns the minimizer and a report whose
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
    levels: list[dict] = []
    grad_scale = None
    iters = 0

    def target_of(level_tol, values, cache) -> float:
        floor = _ROUNDOFF_FACTOR * disc.gradient_roundoff(values, p, cache)
        return max(level_tol * (grad_scale or 1.0), floor)

    for li, delta in enumerate(schedule):
        level_tol = config.tolerance if li == len(schedule) - 1 else max(config.tolerance, delta)
        level = {"delta": delta, "newton_steps": 0, "cg_iterations": 0, "cg_rtol": [],
                 "cg_info": [], "line_search_trials": 0, "stop": "newton_per_level"}
        levels.append(level)

        def count_cg(_xk, level=level):
            level["cg_iterations"] += 1

        for _ in range(NEWTON_PER_LEVEL):
            energy, grad, cache = disc.energy_gradient(values, p, delta)
            gfree = grad[disc.free]
            gnorm = float(np.max(np.abs(gfree))) if len(gfree) else 0.0
            if grad_scale is None:
                grad_scale = max(gnorm, 1e-300)
            energy_history.append(energy)
            target = target_of(level_tol, values, cache)
            if gnorm <= target:
                level["stop"] = "tolerance"
                break
            if iters >= config.max_iterations:
                level["stop"] = "max_iterations"
                break
            hess = disc.hessian(values, p, delta, cache)
            diag = hess.diagonal()
            diag[diag <= 0] = 1.0
            precond = spla.LinearOperator(hess.shape, matvec=lambda x, d=diag: x / d)
            # forcing term: solve only as far as the Newton target needs
            rtol = min(max(0.1 * target / gnorm, CG_RTOL), 0.1)
            step, info = spla.cg(hess, -gfree, rtol=rtol, atol=0.0,
                                 maxiter=10 * len(gfree), M=precond, callback=count_cg)
            level["cg_rtol"].append(rtol)
            level["cg_info"].append(int(info))
            slope = float(np.dot(gfree, step))
            if slope >= 0:
                step = -gfree
                slope = float(np.dot(gfree, step))
            energy_noise = _ROUNDOFF_FACTOR * np.finfo(float).eps * abs(energy)
            s = 1.0
            accepted = False
            for _ls in range(42):
                trial = values.copy()
                trial.ravel()[disc.free] += s * step
                e_trial, g_trial, _ = disc.energy_gradient(trial, p, delta)
                level["line_search_trials"] += 1
                # a drop below the energy's rounding cannot be seen by the
                # Armijo test; there a smaller gradient accepts the step
                if e_trial <= energy + 1e-4 * s * slope or (
                        -s * slope <= energy_noise
                        and np.max(np.abs(g_trial[disc.free])) < gnorm):
                    values = trial
                    accepted = True
                    break
                s *= 0.5
            iters += 1
            level["newton_steps"] += 1
            if not accepted:
                level["stop"] = "line_search_failed"
                break
        if iters >= config.max_iterations:
            break

    energy, grad, cache = disc.energy_gradient(values, p, schedule[-1])
    gfree = grad[disc.free]
    final_grad_norm = float(np.max(np.abs(gfree))) if len(gfree) else 0.0
    converged = final_grad_norm <= 10.0 * target_of(config.tolerance, values, cache)
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
        levels=levels,
    )
    return u, report
