"""Weight functions and Muckenhoupt / reverse-Holder constant estimation.

Constants are estimated as suprema over finite families of metric balls, so
every reported value is a lower bound for the true constant.  Membership is
operationalized through two falsifiable signals:

* integrability rings -- ball averages near a declared singular set are
  computed by stratified sampling over dyadic distance shells; when the
  weight is not locally integrable the shell contributions grow
  geometrically instead of silently undersampling, and the average is
  flagged as diverging;
* plateau detection -- the running supremum is tracked across three
  successive doublings of ball count and sampling budget; if it rises at
  every stage and not every rise is below 1% of the new value (so it has
  not plateaued), the estimate is reported as "unbounded-suspected".  A
  diverging ball average at any stage raises the same flag.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._rand import child_rng, subseed
from .geometry import (
    Ball,
    Box,
    MetricSpace,
    ball_volume,
    metric_distance,
    sample_ball,
)

__all__ = [
    "Singularity",
    "Weight",
    "BallAverage",
    "MaximalValue",
    "EstimateTrace",
    "WeightReport",
    "BalanceReport",
    "SingularSampleError",
    "OutOfRegimeError",
    "ball_average",
    "ball_mass",
    "ap_constant",
    "a1_constant",
    "rh_constant",
    "maximal_function",
    "balance_check",
    "tau_exponent",
    "mu_p",
    "power_weight",
    "axis_power_weight",
    "log_weight",
    "constant_weight",
]

# Dyadic refinement depth of the singularity-aware quadrature.
_RING_LEVELS = 8
# Divergence rule: a sequence grows >= 10% per step over its last 4 steps.
_DIVERGE_FACTOR = 1.10
_DIVERGE_LEVELS = 4


class SingularSampleError(ValueError):
    """Weight evaluator returned a non-finite value at a sampled point."""

    def __init__(self, point, value):
        self.point = np.asarray(point)
        self.value = value
        super().__init__(f"weight evaluated to {value} at sampled point {self.point}")


class OutOfRegimeError(ValueError):
    """Exponent formula requested outside its validity region."""


@dataclass(frozen=True)
class Singularity:
    """Locus where a weight may blow up or lose smoothness.

    kind "point": the locus is a single point (distances measured with the
    space metric).  kind "hyperplane": the locus is {x_axis = offset}
    (Euclidean backends only).
    """

    kind: str
    point: np.ndarray | None = None
    axis: int = 0
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in ("point", "hyperplane"):
            raise ValueError(f"unknown singularity kind {self.kind!r}")
        if self.kind == "point":
            object.__setattr__(self, "point", np.asarray(self.point, dtype=float))

    def distance(self, space: MetricSpace, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "point":
            ref = np.broadcast_to(self.point, pts.shape)
            return np.asarray(metric_distance(space, pts, ref))
        return np.abs(pts[:, self.axis] - self.offset)


@dataclass(frozen=True)
class Weight:
    """Positive weight function with optional singular-set metadata."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    singularity: Singularity | None = None

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        with np.errstate(divide="ignore", over="ignore"):
            vals = np.asarray(self.fn(pts), dtype=float)
        return vals

    def pow(self, exponent: float) -> "Weight":
        base = self.fn
        return Weight(
            name=f"{self.name}^{exponent:g}",
            fn=lambda pts: np.asarray(base(pts), dtype=float) ** exponent,
            singularity=self.singularity,
        )


def power_weight(exponent: float, dim: int) -> Weight:
    """|x|^a with the Euclidean norm |x| on R^dim, on either backend.

    On the Heisenberg group this is not the gauge power ||x||^a, although
    its `Singularity` measures distance to the origin with the gauge."""
    sing = Singularity("point", point=np.zeros(dim))
    return Weight(
        name=f"|x|^{exponent:g}",
        fn=lambda pts: np.linalg.norm(pts, axis=-1) ** exponent,
        singularity=sing,
    )


def axis_power_weight(exponent: float, axis: int = 0) -> Weight:
    """|x_axis|^a, singular along the hyperplane {x_axis = 0}."""
    return Weight(
        name=f"|x{axis + 1}|^{exponent:g}",
        fn=lambda pts: np.abs(pts[..., axis]) ** exponent,
        singularity=Singularity("hyperplane", axis=axis, offset=0.0),
    )


def log_weight(power: float, dim: int) -> Weight:
    """(|log|x||)^s for |x| < 1/e and 1 otherwise."""

    def fn(pts):
        r = np.linalg.norm(pts, axis=-1)
        with np.errstate(divide="ignore"):
            out = np.where(r < math.exp(-1.0), np.abs(np.log(np.maximum(r, 1e-300))), 1.0)
        return out ** power

    return Weight(
        name=f"|log|x||^{power:g}",
        fn=fn,
        singularity=Singularity("point", point=np.zeros(dim)),
    )


def constant_weight(value: float, dim: int) -> Weight:
    if value <= 0:
        raise ValueError("weight must be positive")
    return Weight(name=f"const{value:g}", fn=lambda pts: np.full(len(np.atleast_2d(pts)), float(value)))


# --- stratified ball sampling ------------------------------------------------

@dataclass
class BallSamples:
    """Uniform samples of a ball (clipped to a domain box), stratified into
    dyadic distance shells around a singular locus.

    Stratum 0 is the bulk (B minus the first shell); strata 1..L-1 are the
    rings; stratum L is the innermost core.  `volumes[j]` is the estimated
    Lebesgue volume of stratum j, and `points[j]` are uniform in stratum j.
    """

    ball: Ball
    points: list[np.ndarray]
    volumes: np.ndarray
    volume_se: np.ndarray

    def mass(self, fn: Callable[[np.ndarray], np.ndarray]):
        """Estimate integral of fn over (ball ∩ domain), together with
        per-stratum contributions.

        Returns (mass, se, contributions, (vmin, vmax)): contributions[j] is
        the stratum-j share of the integral, and vmin, vmax bound the values
        of fn over all samples, (inf, -inf) if there are none.
        """
        k = len(self.points)
        contrib = np.zeros(k)
        var_terms = np.zeros(k)
        means = np.zeros(k)
        vmin, vmax = math.inf, -math.inf
        for j, pts in enumerate(self.points):
            if len(pts) == 0 or self.volumes[j] <= 0.0:
                continue
            vals = np.asarray(fn(pts), dtype=float)
            if not np.all(np.isfinite(vals)):
                bad = int(np.argmax(~np.isfinite(vals)))
                raise SingularSampleError(pts[bad], vals[bad])
            vmin = min(vmin, float(vals.min()))
            vmax = max(vmax, float(vals.max()))
            means[j] = vals.mean()
            contrib[j] = self.volumes[j] * means[j]
            var_terms[j] = (self.volumes[j] ** 2) * vals.var() / max(len(vals), 1)
        se = math.sqrt(float(np.sum(var_terms) + np.sum((means * self.volume_se) ** 2)))
        return float(np.sum(contrib)), se, contrib, (vmin, vmax)

    @property
    def total_volume(self) -> float:
        return float(np.sum(self.volumes))

    @property
    def all_points(self) -> np.ndarray:
        return np.concatenate([p for p in self.points if len(p)], axis=0)


def _hit_volume(pts, keep, vol):
    """The points of `pts` selected by `keep`, with the hit-or-miss estimate
    vol * acc of the selected region's volume and its standard error, where
    vol is the proposal volume and acc the accepted fraction."""
    count = len(keep)
    acc = float(np.count_nonzero(keep)) / count
    return pts[keep], vol * acc, vol * math.sqrt(max(acc * (1 - acc), 0.0) / count)


def _draw_in_ball(space, ball, count, seed, key, domain):
    """Uniform points in ball ∩ domain plus the estimated volume of ball ∩
    domain and its standard error."""
    pts = sample_ball(space, ball, count, seed=subseed(seed, key))
    keep = np.ones(count, dtype=bool) if domain is None else domain.contains(pts)
    return _hit_volume(pts, keep, ball_volume(space, ball))


def gather_ball_samples(
    space: MetricSpace,
    ball: Ball,
    budget: int,
    seed: int,
    domain: Box | None = None,
    singularity: Singularity | None = None,
    tag="avg",
) -> BallSamples:
    """Uniform samples of ball ∩ domain, stratified by distance d to the
    singular locus when the ball comes near it.

    Far from the locus (d(center) > 1.5 r, or no locus) there is one stratum:
    `budget` points drawn in the ball and kept when they lie in the domain.

    Near it, with deltas[ell] = r 2^-(ell+1) for ell = 0..L-1 (L = 8), a pool
    of budget/2 points is drawn in the ball, and for each ell a further level
    draw in T_ell = {p in ball ∩ domain : d(p) < deltas[ell]}.  Stratum 0 (the
    bulk) is the pool points with d >= deltas[0]; stratum ell+1 is the points
    with inner <= d < deltas[ell], where inner = deltas[ell+1] (0 for the
    core, stratum L), taken from level draws 0..ell and then from the pool.

    Every volume is a hit-or-miss estimate vol(proposal) * acc with standard
    error vol(proposal) sqrt(acc (1 - acc) / n) over n proposals, acc being
    the accepted fraction; vol(T_ell) is clamped to be nonincreasing in ell,
    and a stratum's volume is the difference of the two sets it lies between.
    A stratum without points hands its volume to the next deeper one.
    """
    if budget < 16:
        raise ValueError("budget must be >= 16")
    r = ball.radius
    near = False
    if singularity is not None:
        d_center = float(singularity.distance(space, ball.center[None, :])[0])
        near = d_center <= 1.5 * r

    if not near:
        pts, vol, se = _draw_in_ball(space, ball, budget, seed, (tag, "pool"), domain)
        return BallSamples(ball, [pts], np.array([vol]), np.array([se]))

    levels = _RING_LEVELS
    pool_n = max(budget // 2, 16)
    per_level = max((budget - pool_n) // levels, 32)
    pool, vol_in, se_in = _draw_in_ball(space, ball, pool_n, seed, (tag, "pool"), domain)
    deltas = [r * 2.0 ** (-(ell + 1)) for ell in range(levels)]
    level_pts, level_vol, level_se = zip(*(
        _sample_near_singularity(space, ball, delta, per_level, seed, (tag, "lvl", ell),
                                 domain, singularity)
        for ell, delta in enumerate(deltas)))
    # the sets T_ell are nested, so their estimated volumes must not grow
    level_vol = np.minimum.accumulate(level_vol)

    # one distance pass per draw set; each stratum is a threshold on it
    *level_sets, pool_set = [(p, singularity.distance(space, p)) for p in (*level_pts, pool)]
    inner = [*deltas[1:], 0.0]
    points = [pool[pool_set[1] >= deltas[0]]]
    for ell in range(levels):
        points.append(np.concatenate([p[(inner[ell] <= d) & (d < deltas[ell])]
                                      for p, d in (*level_sets[: ell + 1], pool_set)]))
    volumes = np.maximum(np.array([vol_in, *level_vol]) - np.append(level_vol, 0.0), 0.0)
    se = [se_in, *level_se]
    volume_se = np.array([*(math.hypot(a, b) for a, b in zip(se, se[1:])), se[-1]])
    # merge empty-but-massive strata into the next deeper one
    for j in range(len(points) - 1):
        if len(points[j]) == 0 and volumes[j] > 0:
            volumes[j + 1] += volumes[j]
            volumes[j] = 0.0
    return BallSamples(ball, points, volumes, volume_se)


def _sample_near_singularity(space, ball, delta, count, seed, key, domain, singularity):
    """Uniform points in T = {p in ball ∩ domain : dist(p, S) < delta} plus
    an unbiased estimate of vol(T) and its standard error."""
    if singularity.kind == "point":
        proposal = Ball(singularity.point, delta)
        vol_prop = ball_volume(space, proposal)
        draws = sample_ball(space, proposal, count, seed=subseed(seed, key))
    else:
        # hyperplane: box proposal around the slab through the ball bounding
        # box, clipped to the domain (so its draws need no domain test)
        a = singularity.axis
        lo = ball.center - ball.radius
        hi = ball.center + ball.radius
        lo[a] = max(lo[a], singularity.offset - delta)
        hi[a] = min(hi[a], singularity.offset + delta)
        if domain is not None:
            lo = np.maximum(lo, domain.bounds[:, 0])
            hi = np.minimum(hi, domain.bounds[:, 1])
            domain = None
        if np.any(hi <= lo):
            return np.empty((0, space.n)), 0.0, 0.0
        vol_prop = float(np.prod(hi - lo))
        rng = child_rng(seed, *key, "slab")
        draws = lo + rng.random((count, space.n)) * (hi - lo)
    center = np.broadcast_to(ball.center, draws.shape)
    keep = np.asarray(metric_distance(space, draws, center)) < ball.radius
    if domain is not None:
        keep &= domain.contains(draws)
    return _hit_volume(draws, keep, vol_prop)


@dataclass(frozen=True)
class BallAverage:
    """Monte-Carlo ball average with refinement diagnostics."""

    value: float
    stderr: float
    diverging: bool
    ring_contributions: np.ndarray  # per-stratum contribution to the mass


def _average_from_samples(samples: BallSamples, weight: Weight) -> BallAverage:
    mass, se, contrib, (vmin, vmax) = samples.mass(weight)
    vol = samples.total_volume
    if vol <= 0:
        raise ValueError("ball does not intersect the domain")
    if math.isfinite(vmin) and vmin == vmax:
        # constant on the sample set: the average is that constant, exactly
        return BallAverage(vmin, 0.0, False, contrib)
    return BallAverage(mass / vol, se / vol, _rings_diverge(contrib), contrib)


def _grows_geometrically(seq: np.ndarray) -> bool:
    if len(seq) < _DIVERGE_LEVELS + 1:
        return False
    tail = seq[-(_DIVERGE_LEVELS + 1):]
    return bool(np.all(tail[1:] >= _DIVERGE_FACTOR * tail[:-1]))


def _rings_diverge(contrib: np.ndarray) -> bool:
    # Ring contributions, excluding bulk and the core stratum, over the
    # deepest levels that received mass.
    rings = contrib[1:-1] if len(contrib) > 2 else contrib
    return _grows_geometrically(rings[rings > 0])


def ball_average(
    weight: Weight,
    space: MetricSpace,
    ball: Ball,
    budget: int,
    seed: int,
    domain: Box | None = None,
) -> BallAverage:
    """Average of the weight over ball ∩ domain.

    Stratifies samples into dyadic shells when the ball comes near the
    weight's declared singular set, so non-integrable weights produce a
    visibly diverging refinement profile.
    """
    samples = gather_ball_samples(space, ball, budget, seed, domain, weight.singularity)
    return _average_from_samples(samples, weight)


def ball_mass(
    weight: Weight,
    space: MetricSpace,
    ball: Ball,
    budget: int,
    seed: int,
    domain: Box | None = None,
) -> float:
    """Weighted measure w(ball ∩ domain)."""
    samples = gather_ball_samples(space, ball, budget, seed, domain, weight.singularity)
    return samples.mass(weight)[0]


# --- estimate traces / reports ----------------------------------------------

@dataclass(frozen=True)
class EstimateTrace:
    """Estimate with its doubling-stage history."""

    value: float
    stages: tuple[float, ...]
    unbounded_suspected: bool
    plateaued: bool

    def to_dict(self):
        if self.unbounded_suspected:
            return {
                "value": "unbounded-suspected",
                "last_sup": self.value,
                "stages": list(self.stages),
            }
        return {"value": self.value, "stages": list(self.stages), "plateaued": self.plateaued}


def _trace(stages: Sequence[float], any_diverging: bool) -> EstimateTrace:
    stages = tuple(float(s) for s in stages)
    deltas = [abs(stages[i + 1] - stages[i]) / max(abs(stages[i + 1]), 1e-300)
              for i in range(len(stages) - 1)]
    plateaued = all(d < 0.01 for d in deltas)
    growing = all(stages[i + 1] > stages[i] for i in range(len(stages) - 1)) and not plateaued
    return EstimateTrace(
        value=stages[-1],
        stages=stages,
        unbounded_suspected=bool(any_diverging or growing),
        plateaued=plateaued,
    )


@dataclass
class WeightReport:
    """Result of an A_p / A_1 / RH_t estimation run."""

    weight: str
    p: float | None = None
    t: float | None = None
    ap_estimate: EstimateTrace | None = None
    a1_estimate: EstimateTrace | None = None
    rh_estimate: EstimateTrace | None = None
    doubling_estimate: float | None = None
    ball_count: int = 0
    budget: int = 0
    window: tuple[float, float] = (0.0, 0.0)
    seed: int = 0
    worst_cases: list[dict] = field(default_factory=list)

    def to_dict(self):
        est = {}
        for name in ("ap", "a1", "rh"):
            tr = getattr(self, f"{name}_estimate")
            if tr is not None:
                est[name] = tr.to_dict()
        if self.doubling_estimate is not None:
            est["doubling"] = self.doubling_estimate
        return {
            "weight": self.weight,
            "p": self.p,
            "t": self.t,
            "estimates": est,
            "window": list(self.window),
            "balls": self.ball_count,
            "budget": self.budget,
            "seed": self.seed,
            "worst_cases": self.worst_cases,
        }


def _stage_plan(total: int, floor: int) -> list[int]:
    return [max(total >> (3 - s), floor) for s in range(4)]


def _staged_sup(count: int, budget: int, value) -> tuple[EstimateTrace, np.ndarray]:
    """Supremum of `value` over a family of `count` items, in four stages.

    Stage s evaluates value(i, s, budget_s) -> (ratio, diverging) on the
    first count_s items, and records the stage maximum.  count_s and
    budget_s double from stage to stage up to count and budget, with floors
    of 8 and 64 (`_stage_plan`).  Returns the trace and the last stage's
    ratios.
    """
    if count < 8:
        raise ValueError(f"the stage plan needs a family of >= 8 balls or points, got {count}")
    stages = []
    any_div = False
    for s, (n, b) in enumerate(zip(_stage_plan(count, floor=8), _stage_plan(budget, floor=64))):
        vals = np.empty(n)
        for i in range(n):
            vals[i], div = value(i, s, b)
            any_div = any_div or div
        stages.append(float(np.max(vals)))
    return _trace(stages, any_div), vals


def _worst_cases(centers, radii, vals) -> list[dict]:
    """The three largest ratios, worst first; `radii` is None for a family
    of points."""
    return [
        {"center": list(map(float, centers[i])),
         "radius": None if radii is None else float(radii[i]),
         "ratio": float(vals[i])}
        for i in np.argsort(vals)[::-1][:3]
    ]


def _ball_family(domain: Box, window, count: int, seed: int):
    rng = child_rng(seed, "family")
    centers = domain.sample(count, rng)
    lo, hi = window
    radii = np.exp(rng.uniform(math.log(lo), math.log(hi), count))
    return centers, radii


def ap_constant(
    weight: Weight,
    p: float,
    space: MetricSpace,
    domain: Box,
    window: tuple[float, float],
    balls: int = 4096,
    budget: int = 4096,
    seed: int = 0,
) -> WeightReport:
    """Estimate [w]_{A_p}: sup over sampled balls of (avg w)(avg w^{1-p'})^{p-1}.

    The report also carries the doubling ratio sup w(2B)/w(B) over at most
    64 evenly spaced balls of the final ball family.
    """
    if not p > 1:
        raise ValueError("A_p requires p > 1")
    pprime = p / (p - 1.0)
    dual = weight.pow(1.0 - pprime)
    centers, radii = _ball_family(domain, window, balls, seed)

    def ratio(i, s, budget_s):
        samples = gather_ball_samples(space, Ball(centers[i], radii[i]), budget_s, seed,
                                      domain, weight.singularity, tag=("ap", i, s))
        aw = _average_from_samples(samples, weight)
        ad = _average_from_samples(samples, dual)
        return aw.value * ad.value ** (p - 1.0), aw.diverging or ad.diverging

    trace, final_vals = _staged_sup(balls, budget, ratio)
    # doubling ratio on a subsample of the final family
    final_budget = _stage_plan(budget, floor=64)[-1]
    sub = np.linspace(0, balls - 1, num=min(64, balls), dtype=int)
    doubling = 0.0
    for i in sub:
        b1 = Ball(centers[i], radii[i])
        b2 = Ball(centers[i], 2.0 * radii[i])
        m1 = ball_mass(weight, space, b1, final_budget, subseed(seed, ("dbl", int(i), 1)), domain)
        m2 = ball_mass(weight, space, b2, final_budget, subseed(seed, ("dbl", int(i), 2)), domain)
        if m1 > 0:
            doubling = max(doubling, m2 / m1)
    return WeightReport(
        weight=weight.name, p=p, ap_estimate=trace, doubling_estimate=doubling,
        ball_count=balls, budget=budget, window=(float(window[0]), float(window[1])),
        seed=seed, worst_cases=_worst_cases(centers, radii, final_vals),
    )


def rh_constant(
    weight: Weight,
    t: float,
    space: MetricSpace,
    domain: Box,
    window: tuple[float, float],
    balls: int = 4096,
    budget: int = 4096,
    seed: int = 0,
) -> WeightReport:
    """Estimate [w]_{RH_t}: sup over sampled balls of (avg w^t)^{1/t} / avg w."""
    if not t > 1:
        raise ValueError("RH_t requires t > 1")
    wt = weight.pow(t)
    centers, radii = _ball_family(domain, window, balls, seed)

    def ratio(i, s, budget_s):
        samples = gather_ball_samples(space, Ball(centers[i], radii[i]), budget_s, seed,
                                      domain, weight.singularity, tag=("rh", i, s))
        aw = _average_from_samples(samples, weight)
        awt = _average_from_samples(samples, wt)
        return awt.value ** (1.0 / t) / aw.value, aw.diverging or awt.diverging

    trace, final_vals = _staged_sup(balls, budget, ratio)
    return WeightReport(
        weight=weight.name, t=t, rh_estimate=trace,
        ball_count=balls, budget=budget, window=(float(window[0]), float(window[1])),
        seed=seed, worst_cases=_worst_cases(centers, radii, final_vals),
    )


@dataclass(frozen=True)
class MaximalValue:
    """Discretized maximal-function value at a point.

    `shell_diverging` means some single ball average diverged under shell
    refinement (the weight is not locally integrable there); `shrink_diverging`
    means the averages grow monotonically by >= 10% per level over the 4
    smallest-radius refinements (the point sits on the weight's singular
    locus).  Either one certifies Mw(x) = +infinity.
    """

    value: float
    shell_diverging: bool
    shrink_diverging: bool
    radii: tuple[float, ...]
    averages: tuple[float, ...]

    @property
    def diverging(self) -> bool:
        return self.shell_diverging or self.shrink_diverging


def maximal_function(
    weight: Weight,
    space: MetricSpace,
    x: np.ndarray,
    radius_set: Sequence[float],
    budget: int,
    seed: int,
    domain: Box | None = None,
) -> MaximalValue:
    """Max over the given radii of ball averages centered at x, with a
    +infinity flag when the averages diverge under refinement."""
    x = np.asarray(x, dtype=float)
    radii = np.sort(np.asarray(list(radius_set), dtype=float))[::-1]
    if len(radii) == 0:
        raise ValueError("radius_set must be non-empty")
    avgs = np.empty(len(radii))
    shell_div = False
    for j, r in enumerate(radii):
        a = ball_average(weight, space, Ball(x, float(r)), budget,
                         subseed(seed, ("max", j)), domain)
        avgs[j] = a.value
        shell_div = shell_div or a.diverging
    return MaximalValue(
        value=float(np.max(avgs)),
        shell_diverging=shell_div,
        shrink_diverging=_grows_geometrically(avgs),
        radii=tuple(float(r) for r in radii),
        averages=tuple(float(a) for a in avgs),
    )


def a1_constant(
    weight: Weight,
    space: MetricSpace,
    domain: Box,
    window: tuple[float, float],
    points: int = 512,
    radii: int = 12,
    budget: int = 2048,
    seed: int = 0,
) -> WeightReport:
    """Estimate [w]_{A_1}: sup over sampled x of Mw(x) / w(x)."""
    rng = child_rng(seed, "a1-points")
    xs = domain.sample(points, rng)
    lo, hi = window
    radius_set = np.exp(np.linspace(math.log(hi), math.log(lo), radii))

    def ratio(i, s, budget_s):
        # Only shell-level divergence (non-integrability) counts as global
        # unboundedness evidence: a probe accidentally on the singular locus
        # sees growing averages but is a measure-zero event for the esssup.
        mv = maximal_function(weight, space, xs[i], radius_set, budget_s,
                              subseed(seed, ("a1", i, s)), domain)
        return mv.value / float(weight(xs[i][None, :])[0]), mv.shell_diverging

    trace, final_vals = _staged_sup(points, budget, ratio)
    return WeightReport(
        weight=weight.name, a1_estimate=trace,
        ball_count=points, budget=budget, window=(float(window[0]), float(window[1])),
        seed=seed, worst_cases=_worst_cases(xs, None, final_vals),
    )


@dataclass(frozen=True)
class BalanceReport:
    """Best empirical constant in the nested-ball balance inequality."""

    w: str
    v: str
    p: float
    q: float
    best_constant: float
    stages: tuple[float, ...]
    unbounded_suspected: bool
    pointwise_violations: int
    worst_pair: dict | None

    def to_dict(self):
        return {
            "w": self.w, "v": self.v, "p": self.p, "q": self.q,
            "best_constant": self.best_constant, "stages": list(self.stages),
            "unbounded_suspected": self.unbounded_suspected,
            "pointwise_violations": self.pointwise_violations,
            "worst_pair": self.worst_pair,
        }


def balance_check(
    w: Weight,
    v: Weight,
    p: float,
    q: float,
    space: MetricSpace,
    domain: Box,
    window: tuple[float, float],
    pairs: int = 1024,
    budget: int = 1024,
    seed: int = 0,
) -> BalanceReport:
    """Empirical constant for
        (r1/r2) (v(B1)/v(B2))^{1/q} <= C (w(B1)/w(B2))^{1/p}
    over sampled nested pairs B1 ⊆ B2 inside the domain."""
    if not (q > p > 1):
        raise ValueError("balance check requires q > p > 1")
    rng = child_rng(seed, "balance")
    lo, hi = window
    hi = min(hi, 0.5 * float(np.min(domain.lengths)))
    r2 = np.exp(rng.uniform(math.log(lo), math.log(hi), pairs))
    # keep the outer ball inside the box
    inner_lo = domain.bounds[:, 0][None, :] + r2[:, None]
    inner_hi = domain.bounds[:, 1][None, :] - r2[:, None]
    centers2 = inner_lo + rng.random((pairs, space.n)) * np.maximum(inner_hi - inner_lo, 0.0)
    r1 = np.exp(rng.uniform(math.log(lo), np.log(r2)))

    ratios = np.empty(pairs)
    viol = 0
    any_div = False
    for i in range(pairs):
        gap = max(r2[i] - r1[i], 0.0)
        if gap > 0:
            c1 = sample_ball(space, Ball(centers2[i], gap), 1, seed=subseed(seed, ("balc", i)))[0]
        else:
            c1 = centers2[i]
        b1, b2 = Ball(c1, float(r1[i])), Ball(centers2[i], float(r2[i]))
        masses = []
        for j, b in enumerate((b1, b2)):
            samples = gather_ball_samples(space, b, budget, seed, None,
                                          w.singularity or v.singularity, tag=("bal", i, j))
            mw, _, cw, _ = samples.mass(w)
            mv, _, cv, _ = samples.mass(v)
            pts = samples.all_points
            wp, vp = w(pts), v(pts)
            viol += int(np.count_nonzero(wp > vp * (1 + 1e-12)))
            any_div = any_div or _rings_diverge(cw) or _rings_diverge(cv)
            masses.append((mw, mv))
        (w1, v1), (w2, v2) = masses
        lhs = (r1[i] / r2[i]) * (v1 / v2) ** (1.0 / q)
        rhs = (w1 / w2) ** (1.0 / p)
        ratios[i] = lhs / rhs
    stages = [float(np.max(ratios[:max(pairs >> (3 - s), 1)])) for s in range(4)]
    trace = _trace(stages, any_div)
    i_worst = int(np.argmax(ratios))
    worst = {
        "outer_center": list(map(float, centers2[i_worst])),
        "outer_radius": float(r2[i_worst]),
        "inner_radius": float(r1[i_worst]),
        "ratio": float(ratios[i_worst]),
    }
    return BalanceReport(
        w=w.name, v=v.name, p=p, q=q,
        best_constant=trace.value, stages=trace.stages,
        unbounded_suspected=trace.unbounded_suspected,
        pointwise_violations=viol, worst_pair=worst,
    )


def tau_exponent(p: float, n: int, Q: int) -> float:
    """Reverse-Holder exponent threshold 1 + p(Q-1)/(n+p-Q) for the
    almost-everywhere continuity theorem; requires n + p - Q > 0."""
    if not p > 1:
        raise ValueError("requires p > 1")
    if n + p - Q <= 0:
        raise OutOfRegimeError(f"n + p - Q = {n + p - Q} must be positive")
    return 1.0 + p * (Q - 1.0) / (n + p - Q)


def mu_p(
    w: Weight,
    v: Weight,
    p: float,
    space: MetricSpace,
    ball: Ball,
    budget: int = 2048,
    seed: int = 0,
    domain: Box | None = None,
) -> float:
    """(v(B)/w(B))^{1/p}, with both masses from one shared sample set."""
    samples = gather_ball_samples(space, ball, budget, seed, domain,
                                  w.singularity or v.singularity, tag="mu")
    return (samples.mass(v)[0] / samples.mass(w)[0]) ** (1.0 / p)
