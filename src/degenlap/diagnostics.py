"""Regularity diagnostics for discrete solutions: oscillation decay, Harnack
quotients, Holder exponents and the predicted continuity set {Mk < infinity}.

The constants that the underlying theory leaves existential are fitted
empirically, never assumed: `fit_harnack_constant` returns the Harnack
constant, and the Holder exponent alpha(x) is reported per probe by
`continuity_map`; the contraction constant is an input.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rand import subseed
from .geometry import Ball, Box, MetricSpace, metric_distance
from .grids import GridFunction
from .weights import Weight, maximal_function
from .energy import horizontal_gradient

__all__ = [
    "RadiusTooSmallError",
    "NotPositiveError",
    "HolderFit",
    "ProbeRecord",
    "DiagnosticsReport",
    "dyadic_radii",
    "oscillation",
    "gamma_factor",
    "harnack_quotient",
    "fit_harnack_constant",
    "holder_exponent",
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
class HolderFit:
    """alpha is the least-squares slope of log osc(x, r) against log r over
    the usable radii (inf when no oscillation is left to fit; with one usable
    radius, 0 if it is the smallest and inf otherwise); `oscillations` holds
    osc(x, r) at every radius."""

    alpha: float
    no_decay: bool
    oscillations: tuple[float, ...]


def _local_gradient_scale(centers: np.ndarray, norms: np.ndarray, space: MetricSpace, x,
                          r0: float) -> float:
    """max |Xu| (`norms`) over the cells centred within r0 of x, else all."""
    d = np.asarray(metric_distance(space, centers, np.broadcast_to(
        np.asarray(x, dtype=float), centers.shape)))
    near = d < r0
    gn = norms[near if near.any() else slice(None)]
    return float(gn.max()) if gn.size else 0.0


def holder_exponent(u: GridFunction, space: MetricSpace, x, radii) -> HolderFit:
    """Fit log osc against log(r/r0), r0 the largest radius; flags no-decay
    when the fitted exponent falls below 0.05 (oscillation essentially
    non-vanishing).

    Radii whose oscillation sits below the discretization floor
    10 h (local gradient scale) are discarded before fitting.  When that
    floor swallows every radius but the oscillations are far from zero (the
    gradient scale itself is polluted by a near-singularity), the fit falls
    back to all radii with genuinely nonzero oscillation.  The one-point case
    of `_holder_fits`, which fits many points from one gradient field."""
    return _holder_fits(u, space, [x], radii)[0]


def _holder_fits(u: GridFunction, space: MetricSpace, xs, radii) -> list[HolderFit]:
    """`holder_exponent` at each point of xs, every floor read from one
    horizontal gradient field of u and its norms."""
    radii = sorted(float(r) for r in radii)
    r0 = radii[-1]
    g = horizontal_gradient(space, u)
    norms = np.linalg.norm(g.values, axis=1)
    tiny = 1e-9 * (1.0 + float(np.abs(u.values).max()))
    fits = []
    for x in xs:
        oscs = oscillation(u, space, x, radii)
        floor = 10.0 * u.domain.h * _local_gradient_scale(g.centers, norms, space, x, r0)
        usable = [(r, o) for r, o in zip(radii, oscs) if o > floor]
        if len(usable) < 3:
            usable = [(r, o) for r, o in zip(radii, oscs) if o > tiny]
        if all(o <= tiny for o in oscs):
            # oscillation is numerically zero at every scale: decay certified
            alpha, no_decay = math.inf, False
        elif len(usable) == 1:
            no_decay = usable[0][0] == radii[0]
            alpha = 0.0 if no_decay else math.inf
        else:
            rs = np.log(np.array([r for r, _ in usable]) / r0)
            os_ = np.log(np.array([o for _, o in usable]))
            alpha = float(np.polyfit(rs, os_, 1)[0])
            flat_ratio = oscs[0] / oscs[-1] if oscs[-1] > tiny else 0.0
            no_decay = alpha < NO_DECAY_ALPHA or flat_ratio >= NO_DECAY_FLAT_RATIO
        fits.append(HolderFit(alpha=alpha, no_decay=no_decay, oscillations=tuple(oscs)))
    return fits


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
    discrepancies: list[dict] = field(default_factory=list)

    def to_dict(self):
        return {
            "contraction_constant": self.contraction_constant,
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
    budget: int = 1024,
    seed: int = 0,
) -> DiagnosticsReport:
    """Per probe point: Mk (discretized maximal function), the contraction
    factor gamma, the fitted Holder exponent, and the predicted continuity
    class; inconsistencies (continuous-predicted without oscillation decay)
    are listed, not suppressed."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    h = u.domain.h
    top = 0.25 * float(np.min(domain.lengths))
    mk_radii = [top * 2.0 ** (-j) for j in range(8)]
    osc_r0 = max(0.125 * float(np.min(domain.lengths)), 8.0 * h)
    osc_radii = dyadic_radii(osc_r0, h)
    records = []
    discrepancies = []
    fits = _holder_fits(u, space, probes, osc_radii)
    for i, (x, fit) in enumerate(zip(probes, fits)):
        mk = maximal_function(k, space, x, mk_radii, budget, subseed(seed, ("cmap", i)), domain)
        mk_val = math.inf if mk.diverging else mk.value
        gamma = gamma_factor(contraction_constant, mk_val)
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
        discrepancies=discrepancies,
    )
