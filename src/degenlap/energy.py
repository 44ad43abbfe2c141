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
`tolerance`.  Where the gradient misses that relative target, the target is
raised to an absolute floor, a small multiple of the rounding scale of the
gradient evaluation, taken at most once per evaluation; so a boundary datum
that already solves the discrete problem is accepted at once.  Each Newton
step solves its linear system with preconditioned CG (`_cg`, scipy's `cg`
operation for operation) to the relative tolerance clamp(0.1 * target /
|gradient|, CG_RTOL, 0.1), the forcing term of Eisenstat & Walker, "Choosing
the forcing terms in an inexact Newton method", SIAM J. Sci. Comput. 17
(1996): far from the target CG stops early, and it is never asked for more
than `CG_RTOL`.
The Hessian is summed cell by cell into a 3^n-point stencil on the free
nodes, one row per offset.  A system with at least `MULTIGRID_MIN_UNKNOWNS`
free unknowns reads it out into CSR, whose product is the faster one from
there up; a smaller one lays it out on the grid's flat node index (the
diagonal format of Saad, "Iterative Methods for Sparse Linear Systems", 2nd
ed., 2003, sec. 3.4) as `_StencilHessian`, whose numpy product has the bits
of scipy's CSR product.  A large system whose step asks CG for at most
`MULTIGRID_MAX_RTOL` is preconditioned by a geometric multigrid V-cycle (`_VCycle`; Trottenberg,
Oosterlee & Schueller, "Multigrid", 2001), any other system by Jacobi.  The
V-cycle's finest coarse space is trilinear interpolation P beside its
checkerboard copy S P, held with P's entries once, and every coarse operator
is held as three blocks, its off-diagonal block once.  So a smaller system
loads no scipy, and a larger one only `scipy.sparse`, imported for a CSR
matrix: the V-cycle solves its coarsest level with a dense inverse.  Beyond
numpy, this module loads only `geometry` and `grids`, so a solve loads none
of the estimators (`weights`).
Near the minimizer a step's predicted energy drop falls below the rounding
of the energy itself, where the Armijo test only sees noise; a step whose
predicted drop is that small is accepted when it lowers the max-norm of the
gradient instead.
"""
from __future__ import annotations

import types
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from .geometry import MetricSpace, euclidean
from .grids import BOUNDARY, INTERIOR, GridDomain, GridFunction

if TYPE_CHECKING:
    import scipy.sparse as sp

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

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.asarray(self.fn(pts), dtype=float)
        return out.reshape(len(pts), self.m, self.m)

    def evaluate_shifted(self, pts: np.ndarray, h: float,
                         interior_point: np.ndarray) -> tuple[np.ndarray, int]:
        """Evaluate, nudging any point that hits a singularity of the
        coefficients by h/100 toward the domain interior; returns the values
        and the number of points nudged."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = self(pts)
        bad = ~np.all(np.isfinite(out), axis=(1, 2))
        if np.any(bad):
            shift = interior_point - pts[bad]
            norms = np.linalg.norm(shift, axis=1, keepdims=True)
            shift = np.where(norms > 0, shift / np.maximum(norms, 1e-300), 0.0)
            shift[np.all(shift == 0.0, axis=1)] = np.eye(pts.shape[1])[0]
            out[bad] = self(pts[bad] + (h / 100.0) * shift)
        return out, int(np.count_nonzero(bad))

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
        finite = np.all(np.isfinite(a), axis=(1, 2)) & np.isfinite(lo) & np.isfinite(hi)
        if not finite.all():
            i = int(np.argmin(finite))
            raise InvalidCoefficientsError(
                f"coefficients or envelope not finite at {pts[i].tolist()} "
                f"(A = {a[i].tolist()}, envelope {lo[i]}, {hi[i]})")
        asym = np.abs(a - np.swapaxes(a, 1, 2)).max(initial=0.0)
        if asym > 0:
            raise InvalidCoefficientsError(f"matrix field not symmetric (max asym {asym})")
        return _sandwich_violations(a, lo, hi)


@dataclass(frozen=True)
class CellField:
    """Per-cell vector field on the included cells of a grid."""

    values: np.ndarray     # (K, m)
    centers: np.ndarray    # (K, n)


def _corner_bits(n: int) -> np.ndarray:
    """(n, 2^n) array: the axis-a offset of corner c from the first corner of
    its cell, c read in binary with axis 0 in the highest bit."""
    return (np.arange(2 ** n) >> np.arange(n - 1, -1, -1)[:, None]) & 1


def _stencil_matrix(space: MetricSpace, domain: GridDomain, centers: np.ndarray) -> np.ndarray:
    """(K, m, 2^n) coefficients turning cell corner values into the
    horizontal gradient at the cell center."""
    n = domain.n
    signs = (2.0 * _corner_bits(n) - 1.0) / (domain.h * 2 ** (n - 1))  # (n, 2^n)
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
    return CellField(values=disc.gradients(u.values), centers=disc.centers)


def default_delta(p: float) -> float:
    return 1e-8 if p >= 2 else 1e-6


def p_energy(
    u: GridFunction,
    a_field: MatrixField,
    p: float,
    delta: float = 0.0,
    space: MetricSpace | None = None,
) -> float:
    """Sum over cells of h^n (delta^2 + <A Xu, Xu>)^(p/2): the energy of the
    solver's `_Discretization.energy_gradient`."""
    disc = _Discretization(space or euclidean(u.domain.n), u.domain, a_field)
    return disc.energy_gradient(u.values, p, delta)[0]


def weak_form(
    u: GridFunction,
    phi: GridFunction,
    a_field: MatrixField,
    p: float,
    delta: float = 0.0,
    space: MetricSpace | None = None,
) -> float:
    """Regularized weak form: integral of
    (delta^2 + <A Xu, Xu>)^{(p-2)/2} <A Xu, Xphi>, read as the solver's
    energy gradient (`_Discretization.energy_gradient`) at u dotted with phi,
    divided by p: (1/p) times the directional derivative of `p_energy` at u
    in the direction phi.  phi must vanish on boundary nodes.
    """
    if np.any(phi.values[phi.domain.mask == BOUNDARY] != 0.0):
        raise InvalidTestFunctionError("test function must vanish on boundary nodes")
    disc = _Discretization(space or euclidean(u.domain.n), u.domain, a_field)
    grad = disc.energy_gradient(u.values, p, delta)[1]
    return float(np.dot(grad[disc.free], phi.values.ravel()[disc.free])) / p


def monotonicity_gap(
    u1: GridFunction,
    u2: GridFunction,
    a_field: MatrixField,
    p: float,
    delta: float = 0.0,
    space: MetricSpace | None = None,
) -> float:
    """a0^p(u1, u1-u2) - a0^p(u2, u1-u2), read from the solver's energy
    gradient as (grad E(u1) - grad E(u2)) . (u1 - u2) / p; nonnegative by
    monotonicity of the regularized operator (no boundary restriction on
    u1 - u2 is needed, the pointwise vector inequality holds cell by cell)."""
    disc = _Discretization(space or euclidean(u1.domain.n), u1.domain, a_field)
    g1 = disc.energy_gradient(u1.values, p, delta)[1]
    g2 = disc.energy_gradient(u2.values, p, delta)[1]
    live = u1.domain.mask.ravel() > 0
    return float(np.dot((g1 - g2)[live], (u1.values - u2.values).ravel()[live])) / p


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
# A Newton step preconditions CG with the multigrid V-cycle (`_VCycle`) when
# its system has at least MULTIGRID_MIN_UNKNOWNS free unknowns and it asks CG
# for a relative residual of at most MULTIGRID_MAX_RTOL; otherwise with
# Jacobi.  The V-cycle's set-up (Galerkin products, Lanczos estimates, the
# coarsest inverse) costs tens to hundreds of Jacobi-CG iterations, which only
# a tight solve of a large system wins back.  Measured on single Newton systems (one BLAS
# thread, 2-CPU host; BENCH_4.json), multigrid time over Jacobi time at
# relative residual 1e-8 and 1e-10: p = 3 boxes 65^2 0.81, 0.88; 129^2 0.59,
# 0.55; 257^2 0.32, 0.27; 21^3 1.05, 0.81; 33^3 0.52, 0.51; 49^3 0.73, 0.60;
# the zhong-log probe 33^3 1.14, 1.21; 49^3 0.54, 0.48.  At 1e-6 the 3-d
# ratios run from 0.59 to 2.59.  The steps of p = 3 continuation solves ask
# for 1e-3 or looser: whole such solves with multigrid in every step took
# 1.02 to 2.2 times as long as with Jacobi from 65^2 to 257^2 and 21^3 to
# 33^3, and 0.86 times at 49^3, beyond the CLI's 3-d limit.  The V-cycle
# imports nothing beyond `scipy.sparse`: its coarsest level, at most
# _COARSEST_MAX unknowns, is solved by a dense inverse.
# The same size decides where the Hessian is read out into CSR and
# `scipy.sparse` is imported (about 0.2 s and 22 MB per process over numpy
# alone: 0.29-0.37 s and 48.6-48.8 MB against 0.11-0.15 s and 26.7-26.9 MB,
# five fresh processes each).  Below it CG multiplies by the numpy stencil
# operator (`_StencilHessian`), 1.6-3.1 times slower per product than CSR
# but without the import.  Whole p = 3
# solves in fresh processes, CSR against numpy products for every Jacobi
# system (BENCH_8.json; min of 5 runs, ranges over two sweeps on a noisy
# host): 65^2 0.48-0.49 against 0.26-0.27 s, 141^2 0.70-0.83 against
# 0.53-0.70 s, 161^2 0.84-0.91 against 0.71-0.75 s, Heisenberg 27^3
# 1.19-1.45 against 1.51-1.58 s, 33^3 1.53-2.05 against 1.65-2.07 s, 257^2
# 1.73-2.34 against 2.06-2.11 s, 48^3 3.47-4.26 against 5.31-5.84 s.  The
# crossover sits at about 20-30k unknowns in 2-d, and lower in 3-d, where a
# row has 27 entries, not 9.
MULTIGRID_MIN_UNKNOWNS = 20000
MULTIGRID_MAX_RTOL = 1e-8
# The V-cycle: Chebyshev smoothing of this degree, Lanczos steps of its
# spectral estimate, and the unknowns at or below which a level is solved by
# its dense inverse.
_CHEBYSHEV_DEGREE = 2
_LANCZOS_STEPS = 10
_COARSEST_MAX = 400
_GALERKIN_BLOCKS = 4  # blocks of coarse rows in which a Galerkin product forms R A
_HESSIAN_CHUNK = 4096  # cells per pass of `_Discretization.hessian`, sized for cache


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
        if self.delta_final is None:
            self.delta_final = default_delta(self.p)
        # a delta_final <= 0 or nan would never end the halving of `schedule`
        for name in ("tolerance", "delta_final"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")

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
    tolerance, exit status and preconditioner (`multigrid` or `jacobi`) of
    each step (`cg_rtol`, `cg_info`, `preconditioner`), line-search trials,
    and why the level stopped (`tolerance`, `newton_per_level`,
    `max_iterations` or `line_search_failed`)."""

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

    def to_dict(self):
        return asdict(self)


class _Discretization:
    """Cell data for one (space, domain) pair: corner node indices, the
    free (interior) nodes and each node's position among them (-1 off
    them), all int32 while the node count fits, and the stencil B turning
    corner values into the horizontal gradient (on Euclidean space one
    table broadcast over the cells), plus the cell coefficients A when a
    field is given (and how many centres `MatrixField.evaluate_shifted`
    nudged; `coordinate_weak_residual` sets A itself).  The cells are the
    grid's hypercubes whose 2^n corners are all live and at least one
    interior, in C order; corner c sits at offset
    `_corner_bits(n)[:, c]` from the first, and the centre halfway between
    corners 0 and 2^n - 1.  The centres are not held: B and A read them
    once, and `centers` computes them again, with the same bits, for the
    read-outs.  No product A B is kept: `energy_gradient` forms A (B u), and
    `hessian` the A B of one chunk of cells at a time.  The parts of the
    linear solve that depend only on the mask are built on first use: the
    CSR pattern of the free-node Hessian (`_pattern`), which `csr` fills,
    the node layout of `_StencilHessian` (`layout`), and the
    multigrid interpolations (`interpolations`)."""

    def __init__(self, space: MetricSpace, domain: GridDomain, a_field: MatrixField | None = None):
        if space.kind == "heisenberg1" and domain.n != 3:
            raise ValueError("heisenberg1 requires a 3-d grid")
        n = domain.n
        self.cell_volume = domain.h ** n
        mask_flat = domain.mask.ravel()
        idx_dtype = np.int32 if mask_flat.size < 2 ** 31 else np.int64
        nodes = np.arange(mask_flat.size, dtype=idx_dtype).reshape(domain.shape)
        offsets = (np.array(nodes.strides) // nodes.itemsize @ _corner_bits(n)).astype(idx_dtype)
        # corner-major (2^n, cells): the inclusion rule reduces along axis 0
        corners = offsets[:, None] + nodes[(slice(0, -1),) * n].ravel()
        live = mask_flat[corners]
        included = np.all(live > 0, axis=0) & np.any(live == INTERIOR, axis=0)
        self.corner_idx = corners.T[included]  # (K, 2^n), C-contiguous
        self.domain = domain
        centers = self.centers
        self.b = _stencil_matrix(space, domain, centers)
        if a_field is not None:
            self.a, self.shifted_evaluations = a_field.evaluate_shifted(
                centers, domain.h, domain.bounds.mean(axis=1))
        self.shape = domain.shape
        self.n_nodes = mask_flat.size
        self.free = np.flatnonzero(mask_flat == INTERIOR).astype(idx_dtype)
        self.free_pos = np.full(self.n_nodes, -1, dtype=idx_dtype)
        self.free_pos[self.free] = np.arange(len(self.free), dtype=idx_dtype)

    @property
    def centers(self) -> np.ndarray:
        """(K, n) cell centres, halfway between corners 0 and 2^n - 1,
        computed on each call: only the set-up and the read-outs need them."""
        coords = self.domain.node_coords().reshape(-1, self.domain.n)
        return 0.5 * (coords[self.corner_idx[:, 0]] + coords[self.corner_idx[:, -1]])

    def gradients(self, values: np.ndarray) -> np.ndarray:
        corners = values.ravel()[self.corner_idx]  # (K, 2^n)
        return np.einsum("kmc,kc->km", self.b, corners)

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def energy_gradient(self, values: np.ndarray, p: float, delta: float):
        """Energy, gradient in every node value and the evaluation cache (s,
        alpha, v) that `hessian` and `gradient_roundoff` read.  A value that
        leaves the float range comes out inf or nan, without a warning:
        `solve_dirichlet` refuses such an initial iterate, and its line
        search rejects such a trial."""
        g = self.gradients(values)
        ag = np.einsum("kij,kj->ki", self.a, g)  # A Xu per cell
        quad = np.einsum("km,km->k", g, ag)
        s = delta * delta + quad
        energy = self.cell_volume * float(np.sum(s ** (p / 2.0)))
        w1 = np.where(s > 0, s ** ((p - 2.0) / 2.0), 0.0)
        v = np.einsum("kmc,km->kc", self.b, ag)  # B^T A g per cell
        cell_grad = (self.cell_volume * p) * w1[:, None] * v
        grad = np.zeros(self.n_nodes)
        np.add.at(grad, self.corner_idx.ravel(), cell_grad.ravel())
        return energy, grad, (s, w1, v)

    def gradient_roundoff(self, values: np.ndarray, p: float, cache) -> float:
        """Rounding scale of the free components of `energy_gradient`: machine
        epsilon times the largest, over free nodes, of the node's cell
        contributions summed in absolute value, term by term down to the
        corner values in the order of evaluation, |B|^T |A| (|B| |u|).  No
        residual below a small multiple of it can be certified in floating
        point."""
        corners = np.abs(values.ravel()[self.corner_idx])
        # on Euclidean space B is one (m, 2^n) table broadcast over the cells
        abs_b = np.abs(self.b[:1] if self.b.strides[0] == 0 else self.b)
        mag = np.einsum("kmc,km->kc", abs_b, np.einsum(
            "kij,kj->ki", np.abs(self.a), np.einsum("kmc,kc->km", abs_b, corners)))
        node = np.bincount(self.corner_idx.ravel(),
                           ((self.cell_volume * p) * cache[1][:, None] * mag).ravel(),
                           minlength=self.n_nodes)
        free = node[self.free]
        return float(np.finfo(float).eps * free.max()) if len(free) else 0.0

    @cached_property
    def interpolations(self) -> list[sp.csr_matrix]:
        """The V-cycle's interpolations (`_interpolations`)."""
        return _interpolations(self.shape, self.free)

    @cached_property
    def _pattern(self):
        """(present, indptr, indices).  The (free, 3^n) table `present` of the
        free nodes' free cell neighbours, offsets in lexicographic order, in
        which a node's neighbours increase in flat index: read row by row, it
        is the CSR layout itself.  It is kept packed (`np.packbits`, an
        eighth of its bool size) and unpacked by each read-out."""
        n = len(self.shape)
        code = _offset_codes(n)
        idx_dtype = np.int32 if len(self.free) * 3 ** n < 2 ** 31 else np.int64
        rows = self.free_pos[self.corner_idx].astype(idx_dtype, copy=False)  # -1 off the free nodes
        cols = np.full((len(self.free) + 1, 3 ** n), -1, dtype=idx_dtype)  # last row: non-free c
        for c in range(2 ** n):
            cols[rows[:, c, None], code[c]] = rows
        present = cols[:-1] >= 0
        indices = cols[:-1][present]
        indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))]).astype(idx_dtype)
        return np.packbits(present), indptr, indices

    def csr(self, stencil: np.ndarray) -> sp.csr_matrix:
        """The Hessian `stencil` (`hessian`) read out into its CSR pattern."""
        import scipy.sparse as sp
        packed, indptr, indices = self._pattern
        n_free = len(self.free)
        present = np.unpackbits(packed, count=n_free * len(stencil)).view(bool).reshape(n_free, -1)
        return sp.csr_matrix((stencil[:, :-1].T[present], indices, indptr), shape=(n_free, n_free))

    @cached_property
    def layout(self):
        """(at, shifts, span, margin) of the node layout of `_StencilHessian`:
        the grid's own flat node index, where a neighbour is a fixed shift.
        `at` holds the free nodes' columns among the `span` nodes from the
        first free one, and `shifts` where each offset's neighbours start in
        those nodes with `margin`, the largest shift, more on each side.  A
        free node on a face of the array (only a hand-made mask has one)
        finds a node of another row at an offset that leaves the array; no
        cell joins the two, so its entry there is 0.0."""
        n = len(self.shape)
        strides = np.array([int(np.prod(self.shape[a + 1:])) for a in range(n)])
        margin = int(strides.sum())
        shifts = margin + (np.indices((3,) * n).reshape(n, -1).T - 1) @ strides
        # as intp, which fancy indexing would otherwise convert to at each product
        at = (self.free - self.free[0]).astype(np.intp)
        return at, shifts, int(at[-1]) + 1, margin

    def hessian(self, values: np.ndarray, p: float, delta: float, cache=None) -> np.ndarray:
        """Hessian of the energy in the free node values: cell k adds its
        block h^n p (alpha B^T A B + beta v v^T), alpha = s^((p-2)/2),
        beta = (p-2) s^((p-4)/2), v = B^T A Xu, at corners (c, d) to entry
        code[c, d] of corner c's row of a 3^n-point stencil on the free nodes
        (`_offset_codes`).  Chunks of `_HESSIAN_CHUNK` cells, corner c
        descending in each, make every entry sum its cells in increasing
        order.  At p = 2 the rank-one term vanishes.  One loop serves both
        spaces; on Euclidean space B stays a broadcast view of its one
        table.  Returns the (3^n, free + 1) stencil; its last column takes
        the non-free corners, and an entry whose neighbour is not free
        belongs to no matrix entry."""
        if cache is None:
            _, _, cache = self.energy_gradient(values, p, delta)
        s, alpha, v = cache
        sa = (self.cell_volume * p) * alpha
        with np.errstate(divide="ignore", invalid="ignore"):
            sb = (self.cell_volume * p) * np.where(s > 0, (p - 2.0) * s ** ((p - 4.0) / 2.0), 0.0)
        code = _offset_codes(len(self.shape))
        stencil = np.zeros((3 ** len(self.shape), len(self.free) + 1))  # last column: non-free c
        for lo in range(0, len(s), _HESSIAN_CHUNK):
            cells = slice(lo, lo + _HESSIAN_CHUNK)
            # corner-major (m, 2^n, cells) layout: every product runs along the cells
            b = self.b[cells].transpose(1, 2, 0)
            if b.strides[2]:  # on Euclidean space B is a faster broadcast view
                b = np.ascontiguousarray(b)
            a = np.ascontiguousarray(self.a[cells].transpose(1, 2, 0))
            vt = np.ascontiguousarray(v[cells].T)
            ab, y, tmp = np.empty(b.shape[:1] + vt.shape), np.empty(vt.shape), np.empty(vt.shape)
            for i in range(len(ab)):  # A B, summed over j in increasing order
                np.multiply(a[i, 0], b[0], out=ab[i])
                for j in range(1, len(ab)):
                    ab[i] += np.multiply(a[i, j], b[j], out=tmp)
            # as intp, which np.add.at would otherwise convert to at each call
            rows = self.free_pos[self.corner_idx[cells]].T.astype(np.intp)
            for c in range(len(code) - 1, -1, -1):
                # scale alpha B^T A B, then + scale beta v v^T
                np.multiply(b[0, c], ab[0], out=y)
                for i in range(1, len(ab)):
                    y += np.multiply(b[i, c], ab[i], out=tmp)
                y *= sa[cells]
                if p != 2.0:
                    y += np.multiply(sb[cells] * vt[c], vt, out=tmp)
                for d in range(len(code)):
                    np.add.at(stencil[code[c, d]], rows[c], y[d])
        return stencil


def _offset_codes(n: int) -> np.ndarray:
    """(2^n, 2^n) table: corners c and d of a cell differ by an offset in
    {-1, 0, 1}^n, at position code[c, d] in lexicographic order."""
    bits = _corner_bits(n)
    return np.ravel_multi_index(bits[:, None, :] - bits[:, :, None] + 1, (3,) * n)


class _StencilHessian:
    """The free-node Hessian as a numpy operator, without scipy: the stencil
    of `_Discretization.hessian` moved onto the grid's flat node index
    (`_Discretization.layout`), one row per offset.  A product scatters x
    into the nodes, adds the 3^n shifted products from 0.0 in
    lexicographic offset order, and gathers the free rows: the order in
    which scipy's CSR product sums each row, so the two agree bit for bit.
    A finite entry whose neighbour is not free meets a node that is never
    written and stays 0.0, and an entry toward no neighbour is 0.0; either
    adds a signed zero, which leaves a sum begun at +0.0 unchanged."""

    def __init__(self, disc: _Discretization, stencil: np.ndarray):
        self.at, self.shifts, span, margin = disc.layout
        self.bands = np.zeros((len(self.shifts), span))
        self.bands[:, self.at] = stencil[:, :-1]
        self.x, self.y, self.tmp = np.zeros(span + 2 * margin), np.empty(span), np.empty(span)
        self.x_columns = self.x[margin:margin + span]  # column j is x[margin + j]
        # each band beside the view of x its columns read: x[shift + j] for column j
        self.terms = [(band, self.x[shift:shift + span])
                      for band, shift in zip(self.bands, self.shifts)]

    def diagonal(self) -> np.ndarray:
        return self.bands[len(self.shifts) // 2, self.at]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y, tmp = self.y, self.tmp
        self.x_columns[self.at] = x
        y.fill(0.0)
        for band, window in self.terms:
            y += np.multiply(band, window, out=tmp)
        return y[self.at]


# --- multigrid preconditioner --------------------------------------------------

def _interpolations(shape: tuple[int, ...], free: np.ndarray) -> list[sp.csr_matrix]:
    """Interpolation operators of the V-cycle, finest first; the
    restrictions are their transposes.

    Each level's P is linear interpolation along every axis (trilinear in
    3-d) from the coarse nodes, which sit on fine nodes 0, 2, 4, ... of each
    axis (the last one past the end of an even axis).  It is built on the
    unknowns alone: rows at the free nodes, columns at the coarse nodes that
    sit on a free node.  Along an axis, node i reads coarse node i // 2 when
    i is even, and i // 2 and i // 2 + 1 when it is odd; so a row holds the
    corners c of the coarse cell at its lowest coarse neighbour whose bits
    (`_corner_bits`) lie among its odd axes, in increasing column order, each
    with weight 2^-(odd axes).  The finest coarse space is [P, S P],
    S = diag(s), s = (-1)^(i+j+k) the checkerboard: the cell gradient, an
    average of edge differences, annihilates it, so its smooth multiples
    are near-kernel modes that smooth interpolation cannot reach.  That space is held as the one matrix [P^+, P^-] of P's entries,
    the rows of P at the nodes where s = +1 in the first column block and
    those where s = -1 in the second: [P, S P] = [P^+ + P^-, P^+ - P^-].
    Every coarser level interpolates both halves of its unknowns with its P
    alike.  Coarsening stops at `_COARSEST_MAX` unknowns, or when no coarse
    node is left."""
    import scipy.sparse as sp
    n = len(shape)
    corners = 2 ** n
    among = (np.arange(corners) & ~np.arange(corners)[:, None]) == 0  # [odd bits, c]
    free_mask = np.zeros(int(np.prod(shape)), dtype=bool)
    free_mask[free] = True
    nodes = np.asarray(free)
    ops: list[sp.csr_matrix] = []
    unknowns = len(nodes)
    while unknowns > _COARSEST_MAX:
        coarse_shape = tuple(s // 2 + 1 for s in shape)
        pos = 2 * np.indices(coarse_shape).reshape(n, -1)
        on_grid = np.all(pos < np.array(shape)[:, None], axis=0)
        coarse_free = np.zeros(pos.shape[1], dtype=bool)
        coarse_free[on_grid] = free_mask[np.ravel_multi_index(pos[:, on_grid], shape)]
        if not coarse_free.any():
            break
        strides = np.array([int(np.prod(coarse_shape[a + 1:])) for a in range(n)], nodes.dtype)
        # per row: its lowest coarse neighbour, its odd axes as bits and their count
        lower, odd_bits, odd_count = (np.zeros_like(nodes) for _ in range(3))
        rest = nodes
        for a in range(n - 1, -1, -1):
            rest, i = np.divmod(rest, shape[a])
            lower += (i >> 1) * strides[a]
            odd_bits |= (i & 1) << (n - 1 - a)
            odd_count += i & 1
        # entry e is corner e % 2^n of row e // 2^n, rows in order
        entries = np.flatnonzero(among[odd_bits]).astype(nodes.dtype)
        offsets = (strides @ _corner_bits(n)).astype(nodes.dtype)
        cols = lower[entries >> n] + offsets[entries & (corners - 1)]
        kept = coarse_free[cols]
        rows = entries[kept] >> n
        indices = (np.cumsum(coarse_free, dtype=nodes.dtype) - 1)[cols[kept]]
        entry_odd_count = odd_count[rows]
        width = np.count_nonzero(coarse_free)
        if not ops:  # [P^+, P^-]: the rows where s = -1 move to the second column block
            indices += width * (entry_odd_count & 1)
            width *= 2
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(nodes)))])
        ops.append(sp.csr_matrix(((0.5 ** np.arange(n + 1))[entry_odd_count], indices, indptr),
                                 shape=(len(nodes), width)))
        shape, free_mask = coarse_shape, coarse_free
        nodes = np.flatnonzero(coarse_free).astype(nodes.dtype)
        unknowns = 2 * len(nodes)
    return ops


def _chebyshev_coefficients(a: sp.csr_matrix, dinv: np.ndarray) -> np.ndarray:
    """Coefficients, lowest degree first, of the polynomial s for which
    1 - x s(x) = T_k((b + l - 2x) / (b - l)) / T_k((b + l) / (b - l)) with
    k = _CHEBYSHEV_DEGREE: the Chebyshev smoother of D^-1 A aimed at its
    eigenvalues in [l, b], b = 1.1 rho and l = b / 30.

    rho, a lower estimate of the spectral radius of D^-1 A, is the largest
    Ritz value of _LANCZOS_STEPS Lanczos steps on D^-1/2 A D^-1/2 from the
    fixed chirp (sin 1, sin 4, sin 9, ...), which overlaps the whole
    spectrum; the same matrix always gives the same smoother.  For even k
    the smoother contracts every eigenvalue below (31/30) b."""
    scale = np.sqrt(dinv)
    q = np.sin(np.arange(1.0, len(dinv) + 1.0) ** 2)
    q /= np.linalg.norm(q)
    q_prev, beta = np.zeros_like(q), 0.0
    alphas, betas = [], []
    for _ in range(_LANCZOS_STEPS):
        w = scale * (a @ (scale * q)) - beta * q_prev
        alphas.append(float(q @ w))
        w -= alphas[-1] * q
        beta = float(np.linalg.norm(w))
        if beta == 0.0:
            break
        betas.append(beta)
        q_prev, q = q, w / beta
    off = betas[:len(alphas) - 1]
    ritz = np.linalg.eigvalsh(np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1))
    hi = 1.1 * float(ritz[-1])
    lo = hi / 30.0
    cheb = np.polynomial.Polynomial(np.polynomial.chebyshev.cheb2poly(
        [0.0] * _CHEBYSHEV_DEGREE + [1.0]))
    q_cheb = cheb(np.polynomial.Polynomial([(hi + lo) / (hi - lo), -2.0 / (hi - lo)]))
    return -(q_cheb / q_cheb(0.0)).coef[1:]


def _smooth(a: sp.csr_matrix, dinv: np.ndarray, coef: np.ndarray, r: np.ndarray) -> np.ndarray:
    """s(D^-1 A) D^-1 r by Horner's rule, s given by `coef`."""
    z = dinv * r
    y = coef[-1] * z
    for c in coef[-2::-1]:
        y = a @ y
        y *= dinv
        y += c * z
    return y


def _galerkin(a: sp.csr_matrix, interp: sp.csr_matrix) -> sp.csr_matrix:
    """P^T A P, formed as (R_I A) P over `_GALERKIN_BLOCKS` blocks I of
    coarse rows, R_I = (P^T)_I, so that no product R A, nor R itself, is
    held whole; the row blocks are stacked once.  A CSR product forms each
    row on its own, so a block's rows have the bits of the whole product's."""
    import scipy.sparse as sp
    width = -(-interp.shape[1] // _GALERKIN_BLOCKS)
    return sp.vstack([(interp[:, lo:lo + width].T.tocsr() @ a) @ interp
                      for lo in range(0, interp.shape[1], width)], format="csr")


def _checkerboard_galerkin(a: sp.csr_matrix, split: sp.csr_matrix) -> list[sp.csr_matrix]:
    """The blocks [P^T A P, P^T A (S P), (S P)^T A (S P)] of the finest
    coarse operator, on [P, S P] held as `split` = [P^+, P^-]
    (`_interpolations`), so P = P^+ + P^- and S P = P^+ - P^-.  Formed as
    in `_galerkin`, over blocks of coarse rows (`_checkerboard_rows`), with
    about the work of the one product P^T A P."""
    import scipy.sparse as sp
    half = split.shape[1] // 2
    width = -(-half // _GALERKIN_BLOCKS)
    rows = list(zip(*(_checkerboard_rows(a, split, lo, min(lo + width, half))
                      for lo in range(0, half, width))))
    # each block's rows are freed once stacked
    return [sp.vstack(rows.pop(0), format="csr") for _ in range(3)]


def _checkerboard_rows(a: sp.csr_matrix, split: sp.csr_matrix, lo: int,
                       hi: int) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """Rows lo:hi of the three blocks of `_checkerboard_galerkin`.  With
    T^+- = ((P^+-)^T)_{lo:hi} A and G^+- = T^+- [P^+, P^-], they are the
    column halves of G^+ + G^- added, of G^+ + G^- subtracted, and of
    G^+ - G^- subtracted."""
    half = split.shape[1] // 2
    g_plus, g_minus = ((split[:, at + lo:at + hi].T.tocsr() @ a) @ split for at in (0, half))
    g, d = g_plus + g_minus, g_plus - g_minus
    del g_plus, g_minus  # not held while the halves are formed
    g_1, g_2 = g[:, :half], g[:, half:]
    # a sum's arrays are sized for both terms: copied out at its length
    return (g_1 + g_2).copy(), (g_1 - g_2).copy(), (d[:, :half] - d[:, half:]).copy()


class _BlockOperator:
    """The symmetric coarse operator [[A_ss, A_sc], [A_sc^T, A_cc]] on the
    two halves of its unknowns, the smooth and the checkerboard coarse
    functions (`_interpolations`): three CSR blocks, A_sc^T a transposed
    view sharing A_sc's arrays.  It offers what the V-cycle reads of a
    matrix: `@` a vector, `diagonal` and `toarray`."""

    def __init__(self, ss: sp.csr_matrix, sc: sp.csr_matrix, cc: sp.csr_matrix):
        self.blocks = (ss, sc, cc)
        self.cs = sc.T

    def diagonal(self) -> np.ndarray:
        ss, _, cc = self.blocks
        return np.concatenate([ss.diagonal(), cc.diagonal()])

    def toarray(self) -> np.ndarray:
        ss, sc, cc = self.blocks
        return np.block([[ss.toarray(), sc.toarray()], [self.cs.toarray(), cc.toarray()]])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        ss, sc, cc = self.blocks
        half = ss.shape[0]
        y = np.empty(2 * half)
        y[:half] = ss @ x[:half]
        y[:half] += sc @ x[half:]
        y[half:] = self.cs @ x[:half]
        y[half:] += cc @ x[half:]
        return y


class _VCycle:
    """Symmetric multigrid V-cycle for the free-node Hessian `a`, applied to
    a residual as a CG preconditioner, on the coarse spaces of
    `_interpolations`.  The finest level prolongs a coarse correction
    (e_1, e_2) as P e_1 + S P e_2 and restricts a residual r to
    (P^T r, P^T S r), each with one product by [P^+, P^-] or its transpose;
    every coarser level applies its P to both halves alike.  Every coarse
    operator is Galerkin (`_checkerboard_galerkin`, then `_galerkin` block
    by block), held as a `_BlockOperator`.  Every level but the coarsest
    smooths with `_smooth` before and after its coarse correction (the
    smoother is A-self-adjoint, so the cycle is a symmetric operator), and
    the coarsest is solved by its dense inverse.  Each level holds its
    operator, the inverse of its diagonal, its smoother's coefficients, its
    interpolation and the restriction, a transposed view sharing the
    interpolation's arrays.  The instance is the preconditioner `_cg`
    calls."""

    def __init__(self, a: sp.csr_matrix, interpolations: list[sp.csr_matrix]):
        self.levels = []
        for interp in interpolations:
            dinv = 1.0 / a.diagonal()
            self.levels.append((a, dinv, _chebyshev_coefficients(a, dinv), interp, interp.T))
            if isinstance(a, _BlockOperator):
                a = _BlockOperator(*(_galerkin(block, interp) for block in a.blocks))
            else:
                a = _BlockOperator(*_checkerboard_galerkin(a, interp))
        self.coarsest = np.linalg.inv(a.toarray())

    def __call__(self, r: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.levels):
            return self.coarsest @ r
        a, dinv, coef, interp, restrict = self.levels[level]
        x = _smooth(a, dinv, coef, r)
        residual = r - a @ x
        if level == 0:
            # [P^+, P^-]^T r = (u^+, u^-) gives [P, S P]^T r = (u^+ + u^-, u^+ - u^-),
            # and [P, S P] (e_1, e_2) = [P^+, P^-] (e_1 + e_2, e_1 - e_2)
            u = restrict @ residual
            half = len(u) // 2
            e = self(np.concatenate([u[:half] + u[half:], u[:half] - u[half:]]), 1)
            x += interp @ np.concatenate([e[:half] + e[half:], e[:half] - e[half:]])
        else:
            half = len(r) // 2
            e = self(np.concatenate([restrict @ residual[:half], restrict @ residual[half:]]),
                     level + 1)
            x += np.concatenate([interp @ e[:len(e) // 2], interp @ e[len(e) // 2:]])
        x += _smooth(a, dinv, coef, r - a @ x)
        return x


def _cg(a, b: np.ndarray, *, rtol: float, atol: float, maxiter: int, M, callback):
    """scipy 1.17's `scipy.sparse.linalg.cg` from x0 = 0, operation for
    operation, so with its bits; the preconditioner M is a callable."""
    bnorm = np.linalg.norm(b)
    atol = max(float(atol), float(rtol) * float(bnorm))
    if bnorm == 0:
        return b, 0
    x, r = np.zeros(len(b)), b.copy()
    for it in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = M(r)
        rho = np.dot(r, z)
        if it > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = a @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        callback(x)
    return x, maxiter


# looked up at each solve, so bench/child.py can count CG iterations (until ROADMAP item 4)
spla = types.SimpleNamespace(cg=_cg)


def solve_dirichlet(
    a_field: MatrixField,
    p: float,
    psi: GridFunction,
    config: SolverConfig | None = None,
    space: MetricSpace | None = None,
) -> tuple[GridFunction, SolveReport]:
    """Minimize the regularized p-energy over grid functions equal to psi on
    the boundary nodes of psi's grid.

    Damped Newton on the strictly convex regularized functional, with an
    Armijo line search guaranteeing energy descent down to the energy's
    rounding, and inexact delta-continuation down to config.delta_final (see
    the module docstring).  Returns the minimizer and a report whose
    weak-residual sup is max_i |a0^p(u, e_i)| over the interior nodal basis.
    """
    domain = psi.domain
    config = config or SolverConfig(p=p)
    if config.p != p:
        raise ValueError("config.p must match p")
    space = space or euclidean(domain.n)
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

    def evaluate(vals, delta):
        """Energy, free gradient and evaluation cache: only the free part of
        the gradient is read, so only it is held."""
        e, g, c = disc.energy_gradient(vals, p, delta)
        return e, g[disc.free], c

    schedule = config.schedule()
    energy_history: list[float] = []
    levels: list[dict] = []
    grad_scale = None
    iters = 0
    for li, delta in enumerate(schedule):
        level_tol = config.tolerance if li == len(schedule) - 1 else max(config.tolerance, delta)
        level = {"delta": delta, "newton_steps": 0, "cg_iterations": 0, "cg_rtol": [],
                 "cg_info": [], "preconditioner": [], "line_search_trials": 0,
                 "stop": "newton_per_level"}
        levels.append(level)

        def count_cg(_xk, level=level):
            level["cg_iterations"] += 1

        # a Newton step starts from the evaluation its predecessor's line
        # search accepted; floor is that evaluation's rounding floor, if taken
        energy, gfree, cache = evaluate(values, delta)
        if li == 0 and not (np.isfinite(energy) and np.isfinite(gfree).all()):
            raise ValueError(f"the regularized energy or its gradient at the initial iterate is "
                             f"not finite at p = {p}, delta = {delta} (energy {energy}): "
                             f"(delta^2 + <A Xu, Xu>)^(p/2) leaves the float range")
        for _ in range(NEWTON_PER_LEVEL):
            gnorm = float(np.max(np.abs(gfree))) if len(gfree) else 0.0
            if grad_scale is None:
                grad_scale = max(gnorm, 1e-300)
            energy_history.append(energy)
            target = level_tol * grad_scale
            floor = None
            if not gnorm <= target:  # a nan gradient too: every Newton step takes one
                floor = _ROUNDOFF_FACTOR * disc.gradient_roundoff(values, p, cache)
                target = max(target, floor)
            if gnorm <= target:
                level["stop"] = "tolerance"
                break
            if iters >= config.max_iterations:
                level["stop"] = "max_iterations"
                break
            hess = disc.hessian(values, p, delta, cache)
            # not held through CG: an accepted trial brings its own, and a
            # failed line search leaves this step's floor
            cache = c_trial = None
            # forcing term: solve only as far as the Newton target needs
            rtol = min(max(0.1 * target / gnorm, CG_RTOL), 0.1)
            large = len(gfree) >= MULTIGRID_MIN_UNKNOWNS
            hess = disc.csr(hess) if large else _StencilHessian(disc, hess)
            multigrid = large and rtol <= MULTIGRID_MAX_RTOL
            if multigrid:
                precond = _VCycle(hess, disc.interpolations)
            else:
                diag = hess.diagonal()
                diag[diag <= 0] = 1.0
                precond = lambda x, d=diag: x / d
            step, info = spla.cg(hess, -gfree, rtol=rtol, atol=0.0,
                                 maxiter=10 * len(gfree), M=precond, callback=count_cg)
            hess = precond = None  # freed before the next assembly (a V-cycle holds hess)
            level["cg_rtol"].append(rtol)
            level["cg_info"].append(int(info))
            level["preconditioner"].append("multigrid" if multigrid else "jacobi")
            slope = float(np.dot(gfree, step))
            if slope >= 0:
                step = -gfree
                slope = float(np.dot(gfree, step))
            energy_noise = _ROUNDOFF_FACTOR * np.finfo(float).eps * abs(energy)
            iters += 1
            level["newton_steps"] += 1
            s = 1.0
            for _ls in range(42):
                trial = values.copy()
                trial.ravel()[disc.free] += s * step
                e_trial, g_trial, c_trial = evaluate(trial, delta)
                level["line_search_trials"] += 1
                # a drop below the energy's rounding cannot be seen by the
                # Armijo test; there a smaller gradient accepts the step
                if e_trial <= energy + 1e-4 * s * slope or (
                        -s * slope <= energy_noise
                        and np.max(np.abs(g_trial)) < gnorm):
                    values, energy, gfree, cache, floor = trial, e_trial, g_trial, c_trial, None
                    break
                s *= 0.5
            else:
                level["stop"] = "line_search_failed"
                break
        if iters >= config.max_iterations:
            break

    if delta != schedule[-1]:
        energy, gfree, cache = evaluate(values, schedule[-1])
        floor = None
    final_grad_norm = float(np.max(np.abs(gfree))) if len(gfree) else 0.0
    converged = final_grad_norm <= 10.0 * (config.tolerance * grad_scale)
    if not converged:
        if floor is None:
            floor = _ROUNDOFF_FACTOR * disc.gradient_roundoff(values, p, cache)
        converged = final_grad_norm <= 10.0 * floor
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
        grad_scale=grad_scale,
        init=config.init,
        shifted_evaluations=disc.shifted_evaluations,
        levels=levels,
    )
    return u, report
