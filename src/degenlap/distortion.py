"""Mappings of finite distortion: Jacobian quantities, inner/outer
distortion, the distortion tensor, ellipticity verification, and the weak
residual showing that coordinate functions solve the degenerate n-Laplacian
with coefficients G^{-1}.

Operator norms are the square roots of the largest eigenvalues of A^T A
(LAPACK `eigvalsh`); the adjugate is computed cofactor-wise so it remains
valid for singular matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._rand import child_rng
from .geometry import MetricSpace, euclidean
from .grids import BOUNDARY, GridDomain, GridFunction
from .energy import InvalidTestFunctionError, _Discretization, _weak_form_cells

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
        if self.singular_point is not None:
            d = np.linalg.norm(pts - self.singular_point, axis=1)
            if np.any(d < 10 * np.finfo(float).eps):
                raise SingularPointError(f"{self.name} evaluated at its singular point")
        return np.asarray(self.fn(pts), dtype=float).reshape(len(pts), self.dim)


def jacobian(mapping: MappingSpec, x: np.ndarray, h_fd: float = 1e-6,
             method: str = "auto") -> np.ndarray:
    """Jacobian matrix Df(x): analytic evaluator when available, otherwise
    centered finite differences with step h_fd.  Both paths are exposed for
    cross-validation."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
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
    jacobian_det: float
    op_norm: float
    adj_norm: float
    outer: float   # K_O = |Df|^n / J_f, +inf when J_f = 0
    inner: float   # K_I = |adj Df|^n / J_f^(n-1), +inf when J_f = 0


def distortion_scalars(df: np.ndarray) -> DistortionScalars:
    """Jacobian determinant, operator norms and the outer/inner distortion of
    one matrix; raises for orientation-reversing (negative determinant)."""
    df = np.asarray(df, dtype=float)
    n = df.shape[0]
    jac = float(np.linalg.det(df))
    if jac < 0:
        raise OrientationReversedError(f"J_f = {jac} < 0")
    adj = adjugate(df)
    opn = operator_norm(df)
    adjn = operator_norm(adj)
    if jac == 0.0:
        return DistortionScalars(jac, opn, adjn, math.inf, math.inf)
    return DistortionScalars(
        jacobian_det=jac,
        op_norm=opn,
        adj_norm=adjn,
        outer=opn ** n / jac,
        inner=adjn ** n / jac ** (n - 1),
    )


def distortion_tensor(df: np.ndarray, jac: float | None = None) -> np.ndarray:
    """G = Df^T Df / J_f^{2/n}; unimodular by construction (det G = 1)."""
    df = np.asarray(df, dtype=float)
    n = df.shape[-1]
    if jac is None:
        jac = float(np.linalg.det(df))
    if jac <= 0:
        raise ValueError("distortion tensor needs J_f > 0")
    return (df.T @ df) / jac ** (2.0 / n)


def ellipticity_check(
    g_inv: np.ndarray,
    outer: float,
    inner: float,
    n: int,
    directions: int = 1024,
    seed: int = 0,
    rel_slack: float = 1e-9,
) -> int:
    """Count violating unit directions for the two distortion sandwiches

        K_O^{-2/n} |xi|^2 <= <G^{-1} xi, xi> <= K_I^{2/n} |xi|^2
        K_I^{-2/n'} |xi|^2 <= <G^{-1} xi, xi>         (n' = n/(n-1))
    """
    rng = child_rng(seed, "ellipticity")
    xi = rng.normal(size=(directions, n))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    quad = np.einsum("ij,di,dj->d", np.asarray(g_inv, dtype=float), xi, xi)
    nprime = n / (n - 1.0)
    lo_outer = outer ** (-2.0 / n)
    lo_inner = inner ** (-2.0 / nprime)
    hi = inner ** (2.0 / n)
    bad = (quad < lo_outer * (1 - rel_slack)) | (quad < lo_inner * (1 - rel_slack)) | (
        quad > hi * (1 + rel_slack))
    return int(np.count_nonzero(bad))


def column_identity_check(mapping: MappingSpec, pts: np.ndarray,
                          method: str = "auto") -> float:
    """Max relative residual of the pointwise identity
        <A grad f^i, grad f^i>^{(n-2)/2} A grad f^i = [adj Df]_i,  A = G^{-1},
    over the given sample points and coordinates."""
    pts = np.atleast_2d(pts)
    n = mapping.dim
    dfs = jacobian(mapping, pts, method=method)
    worst = 0.0
    for k in range(len(pts)):
        df = dfs[k]
        jac = float(np.linalg.det(df))
        if jac <= 0:
            raise OrientationReversedError(f"J_f = {jac} <= 0 at sample {pts[k]}")
        g_inv = np.linalg.inv(distortion_tensor(df, jac))
        adj = adjugate(df)
        for i in range(n):
            grad = df[i, :]  # row i of Df = gradient of coordinate f^i
            agrad = g_inv @ grad
            quad = float(grad @ agrad)
            lhs = quad ** ((n - 2.0) / 2.0) * agrad
            rhs = adj[:, i]
            scale = max(float(np.linalg.norm(rhs)), 1e-300)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
    return worst


@dataclass
class WeakResidualTable:
    """Tube-restricted weak residuals for each coordinate and test function."""

    rows: list[dict]
    extrapolated: list[dict]

    def to_dict(self):
        return {"rows": self.rows, "extrapolated": self.extrapolated}


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def coordinate_weak_residual(
    mapping: MappingSpec,
    domain: GridDomain,
    test_functions: list[GridFunction],
    tube_widths: list[float] | None = None,
    ramp_width: float | None = None,
    space: MetricSpace | None = None,
) -> WeakResidualTable:
    """Quadrature of <[adj Df]_i, grad phi> over the grid for each coordinate
    i and test function, cross-checked against the p = n weak form with
    coefficients G^{-1} on the sampled coordinate functions.

    Test functions are cut off outside an exclusion tube of width eta around
    the mapping's singular point (smoothstep ramp); residuals are tabulated
    per (i, phi, eta) and Richardson-extrapolated from the two finest eta.
    """
    n = mapping.dim
    space = space or euclidean(n)
    coords = domain.node_coords().reshape(-1, n)
    if tube_widths is None:
        tube_widths = [0.0]
    tube_widths = sorted(float(t) for t in tube_widths)
    if ramp_width is None:
        ramp_width = max(tube_widths[0], 8 * domain.h)

    # coordinate functions sampled on the grid (0 at the singular node if any)
    def safe_eval(pts):
        out = np.zeros((len(pts), n))
        ok = np.ones(len(pts), dtype=bool)
        if mapping.singular_point is not None:
            ok = np.linalg.norm(pts - mapping.singular_point, axis=1) > 10 * np.finfo(float).eps
        out[ok] = mapping(pts[ok])
        return out

    fvals = safe_eval(coords)

    # adj Df and G^{-1} at cell centers
    disc = _Discretization(space, domain)
    dfc = jacobian(mapping, disc.centers)
    jacs = np.linalg.det(dfc)
    if not np.all(np.isfinite(jacs)):
        raise SingularPointError("J_f is not finite at a quadrature cell: a cell center "
                                 "sits on the mapping's singular point")
    if np.any(jacs <= 0):
        raise OrientationReversedError("J_f <= 0 at a quadrature cell")
    adjc = adjugate(dfc)
    ginv_c = np.linalg.inv(dfc.transpose(0, 2, 1) @ dfc) * (jacs ** (2.0 / n))[:, None, None]
    grad_f = [disc.gradients(fvals[:, i]) for i in range(n)]
    quad_f = [np.einsum("kij,ki,kj->k", ginv_c, g, g) for g in grad_f]

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
            for i in range(n):
                r_adj = cell_volume * float(np.einsum("ki,ki->", adjc[:, :, i], gphi))
                # the p = n weak form with coefficients G^{-1}
                r_weak = _weak_form_cells(grad_f[i], gphi, ginv_c, float(n), 0.0, cell_volume)
                scale = cell_volume * float(
                    np.sum(np.abs(quad_f[i]) ** ((n - 1) / 2.0) * np.linalg.norm(gphi, axis=1)))
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
        return {
            "mapping": self.mapping,
            "samples": self.samples,
            "ellipticity_violations": self.ellipticity_violations,
            "sandwich_violations": self.sandwich_violations,
            "det_g_max_error": self.det_g_max_error,
            "epsilon_gate": self.epsilon_gate,
            "residuals": self.residuals,
        }


def sample_distortion_report(
    mapping: MappingSpec,
    pts: np.ndarray,
    directions: int = 256,
    seed: int = 0,
) -> DistortionReport:
    """Per-point distortion quantities with the ellipticity and K-sandwich
    checks; flags the epsilon validity gate for parametrized radial maps."""
    pts = np.atleast_2d(pts)
    n = mapping.dim
    rows = []
    ell_viol = 0
    sand_viol = 0
    detg_err = 0.0
    dfs = jacobian(mapping, pts)
    for k in range(len(pts)):
        sc = distortion_scalars(dfs[k])
        g = distortion_tensor(dfs[k], sc.jacobian_det)
        detg_err = max(detg_err, abs(float(np.linalg.det(g)) - 1.0))
        g_inv = np.linalg.inv(g)
        ell_viol += ellipticity_check(g_inv, sc.outer, sc.inner, n,
                                      directions=directions, seed=seed + k)
        lo = sc.inner ** (1.0 / (n - 1.0))
        hi = sc.inner ** (n - 1.0)
        if not (lo * (1 - 1e-9) <= sc.outer <= hi * (1 + 1e-9)):
            sand_viol += 1
        eigs = np.linalg.eigvalsh(g)
        rows.append({
            "point": [float(c) for c in pts[k]],
            "jacobian_det": sc.jacobian_det,
            "op_norm": sc.op_norm,
            "adj_norm": sc.adj_norm,
            "outer": sc.outer,
            "inner": sc.inner,
            "g_eig_min": float(eigs.min()),
            "g_eig_max": float(eigs.max()),
        })
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
