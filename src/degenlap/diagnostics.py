"""Regularity diagnostics for discrete solutions: oscillation decay, Harnack
quotients, mean-value ratios, Holder exponents, precise representatives and
the predicted continuity set {Mk < infinity}.

All constants that the underlying theory leaves existential (the contraction
constant, the mean-value constant, the Holder data c(x), alpha(x)) are fitted
empirically and reported, never assumed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rand import subseed
from .geometry import Ball, Box, MetricSpace, euclidean, metric_distance
from .grids import GridFunction
from .weights import MaximalValue, Weight, maximal_function
from .energy import eval_shifted, horizontal_gradient

__all__ = [
    "RadiusTooSmallError",
    "NotPositiveError",
    "HolderFit",
    "PreciseValue",
    "MeanValueResult",
    "ProbeRecord",
    "DiagnosticsReport",
    "dyadic_radii",
    "oscillation",
    "gamma_factor",
    "harnack_quotient",
    "fit_harnack_constant",
    "mean_value_check",
    "holder_exponent",
    "precise_representative",
    "continuity_map",
]

NO_DECAY_ALPHA = 0.05
# A jump keeps osc(smallest r)/osc(largest r) high even when smooth variation
# inflates the log-log slope; a power decay r^alpha over >= 3 dyadic levels
# stays below 2^(-3 alpha), so 0.55 separates jumps from alpha >= 0.3 decay.
NO_DECAY_FLAT_RATIO = 0.55


class RadiusTooSmallError(ValueError):
    """Ball captures fewer than 4 grid nodes."""


class NotPositiveError(ValueError):
    """Harnack quotient requested for a function that is not positive."""


def dyadic_radii(r0: float, h: float, min_factor: float = 4.0) -> list[float]:
    """Ladder r0 * 2^-j, truncated so the smallest radius is >= min_factor*h."""
    radii = []
    r = float(r0)
    while r >= min_factor * h:
        radii.append(r)
        r *= 0.5
    if not radii:
        raise RadiusTooSmallError(f"r0 = {r0} below {min_factor} grid spacings")
    return radii


def oscillation(u: GridFunction, space: MetricSpace, x, radii) -> list[float]:
    """(max - min) of u over grid nodes in B(x, r), for each requested r."""
    out = []
    vals = u.values.ravel()
    dist = u.domain.node_distances(space, x)
    for r in radii:
        sel = dist < float(r)
        if np.count_nonzero(sel) < 4:
            raise RadiusTooSmallError(f"ball of radius {r} contains fewer than 4 nodes")
        picked = vals[sel]
        out.append(float(picked.max() - picked.min()))
    return out


def gamma_factor(contraction_constant: float, mk_value: float) -> float:
    """Oscillation contraction factor (e^{C*Mk} - 1)/(e^{C*Mk} + 1) = tanh(C*Mk/2).

    Returns 1.0 when Mk is infinite (no contraction)."""
    if contraction_constant < 0:
        raise ValueError("contraction constant must be nonnegative")
    if math.isinf(mk_value):
        return 1.0
    return float(np.tanh(0.5 * contraction_constant * mk_value))


def harnack_quotient(u: GridFunction, space: MetricSpace, ball: Ball) -> float:
    """(max over B)/(min over B) of nodal values; requires u > 0 on 2B."""
    dist = u.domain.node_distances(space, ball.center)
    sel2 = dist < 2.0 * ball.radius
    if np.count_nonzero(sel2) == 0:
        raise RadiusTooSmallError("doubled ball contains no nodes")
    vals2 = u.values.ravel()[sel2]
    if vals2.min() <= 0:
        raise NotPositiveError(f"u attains {vals2.min()} on the doubled ball")
    sel = dist < ball.radius
    if np.count_nonzero(sel) < 4:
        raise RadiusTooSmallError("ball contains fewer than 4 nodes")
    vals = u.values.ravel()[sel]
    return float(vals.max() / vals.min())


def fit_harnack_constant(
    u: GridFunction,
    w: Weight,
    v: Weight,
    p: float,
    space: MetricSpace,
    balls: list[Ball],
    budget: int = 2048,
    seed: int = 0,
) -> float:
    """Smallest C with sup_B u <= exp(C mu_p(B)) inf_B u over the given balls."""
    from .weights import mu_p as _mu_p

    best = 0.0
    for i, b in enumerate(balls):
        quot = harnack_quotient(u, space, b)
        mu = _mu_p(w, v, p, space, b, budget=budget, seed=subseed(seed, ("harnack", i)))
        best = max(best, math.log(quot) / max(mu, 1e-300))
    return best


@dataclass(frozen=True)
class MeanValueResult:
    ratio: float
    lhs: float
    rhs_core: float
    mu_p: float
    alpha: float
    sigma: float


def mean_value_check(
    u: GridFunction,
    p: float,
    w: Weight,
    v: Weight,
    space: MetricSpace,
    ball: Ball,
    alpha: float = 0.5,
    sigma: float = 2.0,
) -> MeanValueResult:
    """LHS = (max over alpha*B of u+)^p against the v-weighted mean-value core
    RHS = mu_p^{p sigma/(sigma-1)} * (1/v(B)) * sum u+^p v h^n.

    The implied constant c/(1-alpha)^d is the returned ratio, reported rather
    than assumed."""
    if not (0.5 <= alpha < 1.0):
        raise ValueError("alpha must lie in [1/2, 1)")
    if not sigma > 1.0:
        raise ValueError("sigma must exceed 1")
    vals = u.values.ravel()
    dist = u.domain.node_distances(space, ball.center)
    sel_in = dist < alpha * ball.radius
    sel_out = dist < ball.radius
    if np.count_nonzero(sel_in) < 1 or np.count_nonzero(sel_out) < 4:
        raise RadiusTooSmallError("ball too small for the mean-value check")
    uplus_in = np.maximum(vals[sel_in], 0.0)
    lhs = float(uplus_in.max() ** p)
    coords = u.domain.node_coords().reshape(-1, u.domain.n)
    interior_point = u.domain.bounds.mean(axis=1)
    vv, _ = eval_shifted(v, coords[sel_out], u.domain.h, interior_point)
    ww, _ = eval_shifted(w, coords[sel_out], u.domain.h, interior_point)
    mu = float((np.sum(vv) / np.sum(ww)) ** (1.0 / p))
    uplus = np.maximum(vals[sel_out], 0.0)
    rhs_core = float(mu ** (p * sigma / (sigma - 1.0)) * np.sum(uplus ** p * vv) / np.sum(vv))
    if lhs == 0.0:
        return MeanValueResult(0.0, 0.0, rhs_core, mu, alpha, sigma)
    return MeanValueResult(lhs / rhs_core, lhs, rhs_core, mu, alpha, sigma)


@dataclass(frozen=True)
class HolderFit:
    """Least-squares fit osc(x, r) ~ c * (r/r0)^alpha over usable radii."""

    alpha: float
    c: float
    no_decay: bool
    radii_used: tuple[float, ...]
    oscillations: tuple[float, ...]


def _local_gradient_scale(u: GridFunction, space: MetricSpace, x, r0: float) -> float:
    g = horizontal_gradient(space, u)
    d = np.asarray(metric_distance(space, g.centers, np.broadcast_to(
        np.asarray(x, dtype=float), g.centers.shape)))
    near = d < r0
    gn = np.linalg.norm(g.values[near if near.any() else slice(None)], axis=1)
    return float(gn.max()) if gn.size else 0.0


def holder_exponent(
    u: GridFunction,
    space: MetricSpace,
    x,
    radii,
    r0: float | None = None,
) -> HolderFit:
    """Fit log osc against log(r/r0); flags no-decay when the fitted exponent
    falls below 0.05 (oscillation essentially non-vanishing).

    Radii whose oscillation sits below the discretization floor
    10 h (local gradient scale) are discarded before fitting.  When that
    floor swallows every radius but the oscillations are far from zero (the
    gradient scale itself is polluted by a near-singularity), the fit falls
    back to all radii with genuinely nonzero oscillation."""
    radii = sorted(float(r) for r in radii)
    r0 = float(r0 if r0 is not None else radii[-1])
    oscs = oscillation(u, space, x, radii)
    h = u.domain.h
    gscale = _local_gradient_scale(u, space, x, r0)
    floor = 10.0 * h * gscale
    tiny = 1e-9 * (1.0 + float(np.abs(u.values).max()))
    if all(o <= tiny for o in oscs):
        # oscillation is numerically zero at every scale: decay certified
        return HolderFit(alpha=math.inf, c=0.0, no_decay=False,
                         radii_used=(), oscillations=tuple(oscs))
    usable = [(r, o) for r, o in zip(radii, oscs) if o > floor]
    if len(usable) < 3:
        usable = [(r, o) for r, o in zip(radii, oscs) if o > tiny]
    if len(usable) == 1:
        no_decay = usable[0][0] == radii[0]
        return HolderFit(alpha=0.0 if no_decay else math.inf, c=usable[0][1],
                         no_decay=no_decay, radii_used=(usable[0][0],),
                         oscillations=tuple(oscs))
    rs = np.log(np.array([r for r, _ in usable]) / r0)
    os_ = np.log(np.array([o for _, o in usable]))
    slope, intercept = np.polyfit(rs, os_, 1)
    alpha = float(slope)
    flat_ratio = oscs[0] / oscs[-1] if oscs[-1] > tiny else 0.0
    no_decay = alpha < NO_DECAY_ALPHA or flat_ratio >= NO_DECAY_FLAT_RATIO
    return HolderFit(alpha=alpha, c=float(np.exp(intercept)), no_decay=no_decay,
                     radii_used=tuple(r for r, _ in usable), oscillations=tuple(oscs))


@dataclass(frozen=True)
class PreciseValue:
    """Ball-average limit with its Cauchy certificate."""

    value: float
    converged: bool
    radii: tuple[float, ...]
    averages: tuple[float, ...]
    certificate: tuple[float, ...]  # oscillation bound |u_B(t) - u_B(s)| <= osc(t)


def precise_representative(
    u: GridFunction,
    space: MetricSpace,
    x,
    radii,
    budget: int = 100_000,
    tol: float | None = None,
) -> PreciseValue:
    """Ball averages over shrinking radii; returns the limit when successive
    averages are Cauchy (last differences below the tolerance), else flags
    divergence."""
    radii = sorted((float(r) for r in radii), reverse=True)
    vals = u.values.ravel()
    avgs = []
    oscs = []
    dist = u.domain.node_distances(space, x)
    for r in radii:
        sel = dist < r
        count = int(np.count_nonzero(sel))
        if count < 4:
            raise RadiusTooSmallError(f"ball of radius {r} contains fewer than 4 nodes")
        idx = np.flatnonzero(sel)
        if count > budget:
            idx = idx[:: max(1, count // budget)]
        picked = vals[idx]
        avgs.append(float(picked.mean()))
        oscs.append(float(vals[sel].max() - vals[sel].min()))
    if tol is None:
        gscale = _local_gradient_scale(u, space, x, radii[0])
        tol = 20.0 * u.domain.h * (gscale + 1.0) * 1e-2 + 1e-10
        tol = max(tol, 1e-6 * (1.0 + float(np.abs(u.values).max())))
    diffs = np.abs(np.diff(avgs))
    converged = bool(len(diffs) >= 1 and np.all(diffs[-2:] < tol))
    return PreciseValue(
        value=avgs[-1],
        converged=converged,
        radii=tuple(radii),
        averages=tuple(avgs),
        certificate=tuple(oscs[:-1]),
    )


@dataclass(frozen=True)
class ProbeRecord:
    point: tuple[float, ...]
    mk_value: float           # +inf when diverging
    mk_diverging: bool
    gamma: float
    alpha: float
    no_decay: bool
    continuity_class: str     # "continuous-predicted" | "discontinuous-suspected"

    def to_dict(self):
        return {
            "point": list(self.point),
            "mk": "inf" if math.isinf(self.mk_value) else self.mk_value,
            "gamma": self.gamma,
            "alpha": "inf" if math.isinf(self.alpha) else self.alpha,
            "no_decay": self.no_decay,
            "class": self.continuity_class,
        }


@dataclass
class DiagnosticsReport:
    probes: list[ProbeRecord]
    contraction_constant: float
    sigma: float | None = None
    discrepancies: list[dict] = field(default_factory=list)

    def to_dict(self):
        return {
            "contraction_constant": self.contraction_constant,
            "sigma": self.sigma,
            "probes": [p.to_dict() for p in self.probes],
            "discrepancies": self.discrepancies,
        }


def continuity_map(
    u: GridFunction,
    k: Weight,
    space: MetricSpace,
    domain: Box,
    probes: np.ndarray,
    contraction_constant: float = 1.0,
    mk_radii=None,
    osc_r0: float | None = None,
    budget: int = 1024,
    seed: int = 0,
    sigma: float | None = None,
) -> DiagnosticsReport:
    """Per probe point: Mk (discretized maximal function), the contraction
    factor gamma, the fitted Holder exponent, and the predicted continuity
    class; inconsistencies (continuous-predicted without oscillation decay)
    are listed, not suppressed."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    h = u.domain.h
    if mk_radii is None:
        top = 0.25 * float(np.min(domain.lengths))
        mk_radii = [top * 2.0 ** (-j) for j in range(8)]
    if osc_r0 is None:
        osc_r0 = max(0.125 * float(np.min(domain.lengths)), 8.0 * h)
    osc_radii = dyadic_radii(osc_r0, h)
    records = []
    discrepancies = []
    for i, x in enumerate(probes):
        mk = maximal_function(k, space, x, mk_radii, budget, subseed(seed, ("cmap", i)), domain)
        mk_val = math.inf if mk.diverging else mk.value
        gamma = gamma_factor(contraction_constant, mk_val)
        fit = holder_exponent(u, space, x, osc_radii, r0=osc_r0)
        cls = "continuous-predicted" if not mk.diverging else "discontinuous-suspected"
        rec = ProbeRecord(
            point=tuple(float(c) for c in x),
            mk_value=mk_val,
            mk_diverging=mk.diverging,
            gamma=gamma,
            alpha=fit.alpha,
            no_decay=fit.no_decay,
            continuity_class=cls,
        )
        records.append(rec)
        if cls == "continuous-predicted" and fit.no_decay:
            discrepancies.append(rec.to_dict())
    return DiagnosticsReport(
        probes=records,
        contraction_constant=contraction_constant,
        sigma=sigma,
        discrepancies=discrepancies,
    )
