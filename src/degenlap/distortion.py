"""Mappings of finite distortion: Jacobian quantities, inner/outer
distortion, the distortion tensor, ellipticity verification, and the weak
residual showing that coordinate functions solve the degenerate n-Laplacian
with coefficients G^{-1}.

The matrix routines take one (n, n) matrix or a (K, n, n) stack.  Operator
norms are the square roots of the largest eigenvalues of A^T A (LAPACK
`eigvalsh`); the adjugate is computed cofactor-wise so it remains valid for
singular matrices.  The ellipticity sandwiches are checked exactly: the
extremes of <G^{-1} xi, xi> over unit xi are the extreme eigenvalues of
G^{-1}, so no direction is sampled.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .geometry import euclidean
from .grids import BOUNDARY, GridDomain, GridFunction
from .energy import InvalidTestFunctionError, _Discretization, _sandwich_violations

__all__ = [
    "MappingSpec",
    "DistortionScalars",
    "DistortionReport",
    "WeakResidualTable",
    "OrientationReversedError",
    "SingularPointError",
    "jacobian",
    "adjugate",
    "operator_norm",
    "distortion_scalars",
    "distortion_tensor",
    "ellipticity_check",
    "column_identity_check",
    "coordinate_weak_residual",
    "radial_exp_map",
    "sample_distortion_report",
]


class OrientationReversedError(ValueError):
    """Jacobian determinant is negative (outside the finite-distortion class)."""


class SingularPointError(ValueError):
    """Mapping evaluated at (or inside machine distance of) its singular point."""


@dataclass
class MappingSpec:
    """Mapping f: R^n -> R^n with an optional analytic Jacobian."""

    name: str
    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    jacobian_fn: Callable[[np.ndarray], np.ndarray] | None = None
    singular_point: np.ndarray | None = None
    params: dict = field(default_factory=dict)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        self._refuse_singular(pts)
        return np.asarray(self.fn(pts), dtype=float).reshape(len(pts), self.dim)

    def _regular(self, pts: np.ndarray) -> np.ndarray:
        if self.singular_point is None:
            return np.ones(len(pts), dtype=bool)
        return np.linalg.norm(pts - self.singular_point, axis=1) >= 10 * np.finfo(float).eps

    def _refuse_singular(self, pts: np.ndarray) -> None:
        if not np.all(self._regular(pts)):
            raise SingularPointError(f"{self.name} evaluated at its singular point")


def jacobian(mapping: MappingSpec, x: np.ndarray, h_fd: float = 1e-6,
             method: str = "auto") -> np.ndarray:
    """Jacobian matrix Df(x): analytic evaluator when available, otherwise
    centered finite differences with step h_fd.  Both paths are exposed for
    cross-validation.  Raises SingularPointError, before evaluating either
    path, if a point sits on the mapping's singular point."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    mapping._refuse_singular(pts)
    if method == "auto":
        method = "analytic" if mapping.jacobian_fn is not None else "fd"
    if method == "analytic":
        if mapping.jacobian_fn is None:
            raise ValueError("mapping has no analytic Jacobian")
        out = np.asarray(mapping.jacobian_fn(pts), dtype=float)
        out = out.reshape(len(pts), mapping.dim, mapping.dim)
    elif method == "fd":
        n = mapping.dim
        out = np.empty((len(pts), n, n))
        for a in range(n):
            e = np.zeros(n)
            e[a] = h_fd
            out[:, :, a] = (mapping(pts + e) - mapping(pts - e)) / (2.0 * h_fd)
    else:
        raise ValueError(f"unknown jacobian method {method!r}")
    return out[0] if single else out


def adjugate(mats: np.ndarray) -> np.ndarray:
    """Cofactor-wise adjugate of one matrix or a stack of them:
    A adj(A) = det(A) I, valid also when det = 0."""
    m = np.asarray(mats, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("adjugate needs square matrices")
    n = m.shape[-1]
    keep = ~np.eye(n, dtype=bool)
    out = np.empty(m.shape)
    for i in range(n):
        for j in range(n):
            minor = m[..., keep[j], :][..., keep[i]]
            out[..., i, j] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return out


def operator_norm(mats: np.ndarray) -> np.ndarray:
    """Largest singular value(s) via eigenvalues of M^T M."""
    m = np.asarray(mats, dtype=float)
    single = m.ndim == 2
    if single:
        m = m[None]
    s = np.einsum("kji,kjl->kil", m, m)
    eigs = np.linalg.eigvalsh(s)
    out = np.sqrt(np.maximum(eigs.max(axis=1), 0.0))
    return float(out[0]) if single else out


@dataclass(frozen=True)
class DistortionScalars:
    """Floats for one matrix, (K,) arrays for a stack of K."""

    jacobian_det: float | np.ndarray
    op_norm: float | np.ndarray
    adj_norm: float | np.ndarray
    outer: float | np.ndarray   # K_O = |Df|^n / J_f, +inf when J_f = 0
    inner: float | np.ndarray   # K_I = |adj Df|^n / J_f^(n-1), +inf when J_f = 0


def distortion_scalars(df: np.ndarray) -> DistortionScalars:
    """Jacobian determinant, operator norms and the outer/inner distortion of
    one matrix or a stack; raises for orientation-reversing (negative
    determinant) matrices."""
    df = np.asarray(df, dtype=float)
    n = df.shape[-1]
    jac = np.linalg.det(df)
    if np.any(jac < 0):
        raise OrientationReversedError(f"J_f = {np.min(jac)} < 0")
    opn = operator_norm(df)
    adjn = operator_norm(adjugate(df))
    with np.errstate(divide="ignore", invalid="ignore"):
        outer = np.where(jac > 0, opn ** n / jac, np.inf)
        inner = np.where(jac > 0, adjn ** n / jac ** (n - 1), np.inf)
    if df.ndim == 2:
        return DistortionScalars(float(jac), opn, adjn, float(outer), float(inner))
    return DistortionScalars(jac, opn, adjn, outer, inner)


def distortion_tensor(df: np.ndarray, jac: float | np.ndarray | None = None) -> np.ndarray:
    """G = Df^T Df / J_f^{2/n} of one matrix or a stack; unimodular by
    construction (det G = 1).  `jac` is J_f when already known."""
    df = np.asarray(df, dtype=float)
    n = df.shape[-1]
    jac = np.linalg.det(df) if jac is None else np.asarray(jac, dtype=float)
    if np.any(jac <= 0):
        raise ValueError("distortion tensor needs J_f > 0")
    return (np.swapaxes(df, -1, -2) @ df) / (jac ** (2.0 / n))[..., None, None]


def ellipticity_check(g_inv: np.ndarray, outer, inner, n: int) -> int:
    """Number of matrices G^{-1} (one, or a stack with (K,) arrays of K_O
    and K_I) violating the distortion sandwiches

        K_O^{-2/n} |xi|^2 <= <G^{-1} xi, xi> <= K_I^{2/n} |xi|^2
        K_I^{-2/n'} |xi|^2 <= <G^{-1} xi, xi>         (n' = n/(n-1))

    for some direction xi.  Exact: the extreme eigenvalues of G^{-1} are
    compared with max(K_O^{-2/n}, K_I^{-2/n'}) and K_I^{2/n}."""
    nprime = n / (n - 1.0)
    lo = np.maximum(outer ** (-2.0 / n), inner ** (-2.0 / nprime))
    return _sandwich_violations(np.asarray(g_inv, dtype=float), lo, inner ** (2.0 / n))


def column_identity_check(mapping: MappingSpec, pts: np.ndarray) -> float:
    """Max relative residual of the pointwise identity
        <A grad f^i, grad f^i>^{(n-2)/2} A grad f^i = [adj Df]_i,  A = G^{-1},
    over the given sample points and coordinates."""
    pts = np.atleast_2d(pts)
    n = mapping.dim
    dfs = jacobian(mapping, pts)
    jac = np.linalg.det(dfs)
    if np.any(jac <= 0):
        raise OrientationReversedError(f"J_f <= 0 at sample {pts[np.argmin(jac)]}")
    g_inv = np.linalg.inv(distortion_tensor(dfs, jac))
    # column i of agrad is A grad f^i; row i of Df is the gradient of f^i
    grads = np.swapaxes(dfs, 1, 2)
    agrad = g_inv @ grads
    quad = np.einsum("kai,kai->ki", grads, agrad)
    lhs = quad[:, None, :] ** ((n - 2.0) / 2.0) * agrad
    rhs = adjugate(dfs)
    scale = np.maximum(np.linalg.norm(rhs, axis=1), 1e-300)
    return float(np.max(np.linalg.norm(lhs - rhs, axis=1) / scale, initial=0.0))


@dataclass
class WeakResidualTable:
    """Tube-restricted weak residuals for each coordinate and test function."""

    rows: list[dict]
    extrapolated: list[dict]

    def to_dict(self):
        return asdict(self)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def coordinate_weak_residual(
    mapping: MappingSpec,
    domain: GridDomain,
    test_functions: list[GridFunction],
    tube_widths: list[float] | None = None,
) -> WeakResidualTable:
    """Quadrature of <[adj Df]_i, grad phi> over the grid for each coordinate
    i and test function, cross-checked against the p = n weak form with
    coefficients G^{-1} on the sampled coordinate functions: the solver's
    energy gradient (`_Discretization.energy_gradient`, delta = 0) of each
    coordinate dotted with phi, divided by n.  Df is evaluated once, at the
    cell centres; G^{-1} and adj Df both come from that one stack, and J_f
    <= 0 at any centre raises OrientationReversedError.

    Test functions are cut off outside an exclusion tube of width eta around
    the mapping's singular point (smoothstep ramp); residuals are tabulated
    per (i, phi, eta) and Richardson-extrapolated from the two finest eta.
    """
    n = mapping.dim
    coords = domain.node_coords().reshape(-1, n)
    if tube_widths is None:
        tube_widths = [0.0]
    tube_widths = sorted(float(t) for t in tube_widths)
    ramp_width = max(tube_widths[0], 8 * domain.h)

    # coordinate functions sampled on the grid (0 at the singular node if any)
    ok = mapping._regular(coords)
    fvals = np.zeros((len(coords), n))
    fvals[ok] = mapping(coords[ok])

    # G^{-1}, the p = n coefficients, and adj Df at the cell centres; then the
    # p = n energy gradient and <G^{-1} grad f^i, grad f^i> (its s at
    # delta = 0) of each coordinate
    disc = _Discretization(euclidean(n), domain)
    dfs = jacobian(mapping, disc.centers)
    jacs = np.linalg.det(dfs)
    if np.any(jacs <= 0):
        raise OrientationReversedError("J_f <= 0 at a quadrature cell")
    disc.a = np.linalg.inv(distortion_tensor(dfs, jacs))
    adjc = adjugate(dfs)
    del dfs, jacs
    grad_f, quad_f = [], []
    for i in range(n):
        _, grad, (s, _, _) = disc.energy_gradient(fvals[:, i], float(n), 0.0)
        grad_f.append(grad[disc.free])
        quad_f.append(s)

    sing = mapping.singular_point if mapping.singular_point is not None else np.zeros(n)
    dist_nodes = np.linalg.norm(coords - sing, axis=1)

    rows = []
    extrapolated = []
    cell_volume = disc.cell_volume
    for pidx, phi in enumerate(test_functions):
        if np.any(phi.values[domain.mask == BOUNDARY] != 0.0):
            raise InvalidTestFunctionError("test function must vanish on boundary nodes")
        per_eta: dict[float, list[float]] = {}
        for eta in tube_widths:
            if eta > 0:
                cut = _smoothstep((dist_nodes - eta) / ramp_width).reshape(domain.shape)
                phi_eta = phi.values * cut
            else:
                if mapping.singular_point is not None and np.any(
                        (dist_nodes < 4 * domain.h) & (np.abs(phi.values.ravel()) > 0)):
                    raise InvalidTestFunctionError(
                        "test function support touches the singular point; use a tube")
                phi_eta = phi.values
            gphi = disc.gradients(phi_eta)
            gphi_norm = np.linalg.norm(gphi, axis=1)
            for i in range(n):
                r_adj = cell_volume * float(np.einsum("ki,ki->", adjc[:, :, i], gphi))
                r_weak = float(np.dot(grad_f[i], phi_eta.ravel()[disc.free])) / n
                scale = cell_volume * float(
                    np.sum(np.abs(quad_f[i]) ** ((n - 1) / 2.0) * gphi_norm))
                rows.append({
                    "coordinate": i,
                    "phi": pidx,
                    "eta": eta,
                    "adj_residual": r_adj,
                    "weak_residual": r_weak,
                    "scale": scale,
                })
                per_eta.setdefault(i, []).append((eta, r_adj, scale))
        for i, series in per_eta.items():
            series.sort(key=lambda t: t[0])
            if len(series) >= 2:
                (e1, r1, s1), (e2, r2, _s2) = series[0], series[1]
                # linear Richardson in eta from the two finest tubes
                r_ext = r1 + (r1 - r2) * e1 / (e2 - e1)
                extrapolated.append({
                    "coordinate": i, "phi": pidx,
                    "eta_levels": [s[0] for s in series],
                    "residuals": [s[1] for s in series],
                    "extrapolated": r_ext,
                    "scale": s1,
                })
    return WeakResidualTable(rows=rows, extrapolated=extrapolated)


def radial_exp_map(epsilon: float, dim: int = 3) -> MappingSpec:
    """f(x) = (x/|x|) exp(|x|^epsilon), undefined at the origin.

    Closed-form distortion: K_O = |x|^{-eps}/eps and K_I = K_O^{n-1}; the
    inner distortion lies in A_{n'} ∩ RH_n exactly when eps < 1/(n-1), which
    `sample_distortion_report` flags."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    def fn(pts):
        r = np.linalg.norm(pts, axis=1, keepdims=True)
        return pts / r * np.exp(r ** epsilon)

    def jac(pts):
        n = pts.shape[1]
        r = np.linalg.norm(pts, axis=1)
        xhat = pts / r[:, None]
        outer = xhat[:, :, None] * xhat[:, None, :]
        eye = np.eye(n)[None]
        radial = epsilon * r ** (epsilon - 1.0)
        return np.exp(r ** epsilon)[:, None, None] * (
            (eye - outer) / r[:, None, None] + radial[:, None, None] * outer)

    return MappingSpec(
        name=f"radial-exp(eps={epsilon:g})",
        dim=dim,
        fn=fn,
        jacobian_fn=jac,
        singular_point=np.zeros(dim),
        params={"epsilon": epsilon},
    )


@dataclass
class DistortionReport:
    mapping: str
    samples: list[dict]
    ellipticity_violations: int
    sandwich_violations: int
    det_g_max_error: float
    epsilon_gate: dict | None = None
    residuals: dict | None = None

    def to_dict(self):
        return asdict(self)


def sample_distortion_report(mapping: MappingSpec, pts: np.ndarray) -> DistortionReport:
    """Per-point distortion quantities with the ellipticity and K-sandwich
    checks, each counting violating sample points; flags the epsilon
    validity gate for parametrized radial maps."""
    pts = np.atleast_2d(pts)
    n = mapping.dim
    dfs = jacobian(mapping, pts)
    sc = distortion_scalars(dfs)
    g = distortion_tensor(dfs, sc.jacobian_det)
    detg_err = float(np.max(np.abs(np.linalg.det(g) - 1.0), initial=0.0))
    ell_viol = ellipticity_check(np.linalg.inv(g), sc.outer, sc.inner, n)
    lo = sc.inner ** (1.0 / (n - 1.0))
    hi = sc.inner ** (n - 1.0)
    sand_viol = int(np.count_nonzero(
        ~((lo * (1 - 1e-9) <= sc.outer) & (sc.outer <= hi * (1 + 1e-9)))))
    eigs = np.linalg.eigvalsh(g)
    rows = [{
        "point": [float(c) for c in pts[k]],
        "jacobian_det": float(sc.jacobian_det[k]),
        "op_norm": float(sc.op_norm[k]),
        "adj_norm": float(sc.adj_norm[k]),
        "outer": float(sc.outer[k]),
        "inner": float(sc.inner[k]),
        "g_eig_min": float(eigs[k, 0]),
        "g_eig_max": float(eigs[k, -1]),
    } for k in range(len(pts))]
    gate = None
    if "epsilon" in mapping.params:
        eps = mapping.params["epsilon"]
        gate = {
            "epsilon": eps,
            "threshold": 1.0 / (n - 1.0),
            "inner_distortion_class_valid": bool(eps < 1.0 / (n - 1.0)),
        }
    return DistortionReport(
        mapping=mapping.name,
        samples=rows,
        ellipticity_violations=ell_viol,
        sandwich_violations=sand_viol,
        det_g_max_error=detg_err,
        epsilon_gate=gate,
    )
