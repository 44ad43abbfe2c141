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
  successive doublings of ball count and sampling budget; if it keeps
  growing (relative change >= 1% per stage) the estimate is reported as
  "unbounded-suspected".
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._rand import child_rng
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
    "PowerClassReport",
    "SubsetMassReport",
    "SingularSampleError",
    "OutOfRegimeError",
    "ball_average",
    "ball_mass",
    "ap_constant",
    "a1_constant",
    "rh_constant",
    "maximal_function",
    "power_class_check",
    "balance_check",
    "tau_exponent",
    "mu_p",
    "subset_mass_check",
    "power_weight",
    "axis_power_weight",
    "log_weight",
    "constant_weight",
]

# Dyadic refinement depth of the singularity-aware quadrature.
_RING_LEVELS = 8
# Divergence rule: ring contributions grow >= 10% per level over 4 levels.
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
    claimed: tuple[str, ...] = ()

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

    def mass(self, fn: Callable[[np.ndarray], np.ndarray],
             indicator: Callable[[np.ndarray], np.ndarray] | None = None):
        """Estimate integral of fn over (ball ∩ domain) [restricted to the
        indicator set], together with per-stratum contributions.

        Returns (mass, se, contributions) where contributions[j] is the
        stratum-j share of the integral.
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
            if indicator is not None:
                vals = vals * indicator(pts)
            means[j] = vals.mean()
            contrib[j] = self.volumes[j] * means[j]
            var_terms[j] = (self.volumes[j] ** 2) * vals.var() / max(len(vals), 1)
        se = math.sqrt(float(np.sum(var_terms) + np.sum((means * self.volume_se) ** 2)))
        self._last_range = (vmin, vmax)
        return float(np.sum(contrib)), se, contrib

    @property
    def total_volume(self) -> float:
        return float(np.sum(self.volumes))

    @property
    def all_points(self) -> np.ndarray:
        return np.concatenate([p for p in self.points if len(p)], axis=0)


def _draw_in_ball(space, ball, count, seed, key, domain):
    """Uniform points in ball ∩ domain plus the in-domain acceptance rate."""
    pts = sample_ball(space, ball, count, seed=_subseed(seed, key))
    if domain is None:
        return pts, 1.0
    keep = domain.contains(pts)
    return pts[keep], float(np.count_nonzero(keep)) / count


_seed_cache: dict = {}


def _subseed(seed, key) -> int:
    # derive a 63-bit integer sub-seed; cached to keep repeated lookups cheap
    ck = (int(seed), key)
    if ck not in _seed_cache:
        _seed_cache[ck] = int(child_rng(seed, *key).integers(0, 2 ** 62))
        if len(_seed_cache) > 300_000:
            _seed_cache.clear()
    return _seed_cache[ck]


def gather_ball_samples(
    space: MetricSpace,
    ball: Ball,
    budget: int,
    seed: int,
    domain: Box | None = None,
    singularity: Singularity | None = None,
    tag="avg",
) -> BallSamples:
    if budget < 16:
        raise ValueError("budget must be >= 16")
    r = ball.radius
    vol_ball = ball_volume(space, ball)

    near = False
    if singularity is not None:
        d_center = float(singularity.distance(space, ball.center[None, :])[0])
        near = d_center <= 1.5 * r

    if not near:
        pts, acc = _draw_in_ball(space, ball, budget, seed, (tag, "pool"), domain)
        vol = vol_ball * acc
        se_vol = vol_ball * math.sqrt(max(acc * (1 - acc), 0.0) / budget)
        return BallSamples(ball, [pts], np.array([vol]), np.array([se_vol]))

    levels = _RING_LEVELS
    pool_n = max(budget // 2, 16)
    per_level = max((budget - pool_n) // levels, 32)

    pool, acc = _draw_in_ball(space, ball, pool_n, seed, (tag, "pool"), domain)
    vol_in = vol_ball * acc
    se_in = vol_ball * math.sqrt(max(acc * (1 - acc), 0.0) / pool_n)

    deltas = [r * 2.0 ** (-(ell + 1)) for ell in range(levels)]
    level_pts: list[np.ndarray] = []
    level_vol = np.zeros(levels)
    level_se = np.zeros(levels)
    for ell, delta in enumerate(deltas):
        pts, vol, se = _sample_near_singularity(
            space, ball, delta, per_level, seed, (tag, "lvl", ell), domain, singularity
        )
        level_pts.append(pts)
        level_vol[ell] = vol
        level_se[ell] = se

    # enforce monotone nesting of the estimated T_ell volumes
    for ell in range(1, levels):
        level_vol[ell] = min(level_vol[ell], level_vol[ell - 1])
    dist_pool = singularity.distance(space, pool) if len(pool) else np.empty(0)

    points: list[np.ndarray] = []
    volumes = np.zeros(levels + 1)
    volumes_se = np.zeros(levels + 1)
    # stratum 0: bulk
    points.append(pool[dist_pool >= deltas[0]] if len(pool) else pool)
    volumes[0] = max(vol_in - level_vol[0], 0.0)
    volumes_se[0] = math.hypot(se_in, level_se[0])
    # rings 1..levels-1 and core
    for ell in range(levels):
        inner = deltas[ell + 1] if ell + 1 < levels else 0.0
        ring_members = [p[_ring_mask(space, singularity, p, inner)] for p in level_pts[: ell + 1]]
        if len(pool):
            in_t = pool[(dist_pool < deltas[ell]) & (dist_pool >= inner)]
            ring_members.append(in_t)
        # only points already inside T_ell qualify
        merged = [m[singularity.distance(space, m) < deltas[ell]] for m in ring_members if len(m)]
        pts = np.concatenate(merged, axis=0) if merged else pool[:0]
        points.append(pts)
        if ell + 1 < levels:
            volumes[ell + 1] = max(level_vol[ell] - level_vol[ell + 1], 0.0)
            volumes_se[ell + 1] = math.hypot(level_se[ell], level_se[ell + 1])
        else:
            volumes[ell + 1] = level_vol[ell]
            volumes_se[ell + 1] = level_se[ell]
    # merge empty-but-massive strata into the next deeper one
    for j in range(len(points) - 1):
        if len(points[j]) == 0 and volumes[j] > 0:
            volumes[j + 1] += volumes[j]
            volumes[j] = 0.0
    return BallSamples(ball, points, volumes, volumes_se)


def _ring_mask(space, singularity, pts, inner):
    if len(pts) == 0:
        return np.zeros(0, dtype=bool)
    return singularity.distance(space, pts) >= inner


def _sample_near_singularity(space, ball, delta, count, seed, key, domain, singularity):
    """Uniform points in T = {p in ball ∩ domain : dist(p, S) < delta} plus
    an unbiased estimate of vol(T)."""
    center = ball.center
    if singularity.kind == "point":
        proposal = Ball(singularity.point, delta)
        vol_prop = ball_volume(space, proposal)
        draws = sample_ball(space, proposal, count, seed=_subseed(seed, key))
        dist_c = np.asarray(metric_distance(space, draws, np.broadcast_to(center, draws.shape)))
        keep = dist_c < ball.radius
        if domain is not None:
            keep &= domain.contains(draws)
        acc = float(np.count_nonzero(keep)) / count
        se = vol_prop * math.sqrt(max(acc * (1 - acc), 0.0) / count)
        return draws[keep], vol_prop * acc, se
    # hyperplane: box proposal around the slab through the ball bounding box
    a = singularity.axis
    lo = center - ball.radius
    hi = center + ball.radius
    lo[a] = max(lo[a], singularity.offset - delta)
    hi[a] = min(hi[a], singularity.offset + delta)
    if domain is not None:
        lo = np.maximum(lo, domain.bounds[:, 0])
        hi = np.minimum(hi, domain.bounds[:, 1])
    if np.any(hi <= lo):
        return np.empty((0, space.n)), 0.0, 0.0
    vol_prop = float(np.prod(hi - lo))
    rng = child_rng(seed, *key, "slab")
    draws = lo + rng.random((count, space.n)) * (hi - lo)
    dist_c = np.asarray(metric_distance(space, draws, np.broadcast_to(center, draws.shape)))
    keep = dist_c < ball.radius
    acc = float(np.count_nonzero(keep)) / count
    se = vol_prop * math.sqrt(max(acc * (1 - acc), 0.0) / count)
    return draws[keep], vol_prop * acc, se


@dataclass(frozen=True)
class BallAverage:
    """Monte-Carlo ball average with refinement diagnostics."""

    value: float
    stderr: float
    diverging: bool
    ring_contributions: np.ndarray  # per-stratum contribution to the mass


def _average_from_samples(samples: BallSamples, weight: Weight) -> BallAverage:
    mass, se, contrib = samples.mass(weight)
    vol = samples.total_volume
    if vol <= 0:
        raise ValueError("ball does not intersect the domain")
    vmin, vmax = samples._last_range
    if math.isfinite(vmin) and vmin == vmax:
        # constant on the sample set: the average is that constant, exactly
        return BallAverage(vmin, 0.0, False, contrib)
    return BallAverage(mass / vol, se / vol, _rings_diverge(contrib), contrib)


def _rings_diverge(contrib: np.ndarray) -> bool:
    # Ring contributions (excluding bulk and the core stratum) must grow by
    # >= 10% per level over the deepest 4 consecutive levels to flag.
    rings = contrib[1:-1] if len(contrib) > 2 else contrib
    rings = rings[rings > 0]
    if len(rings) < _DIVERGE_LEVELS + 1:
        return False
    tail = rings[-(_DIVERGE_LEVELS + 1):]
    return bool(np.all(tail[1:] >= _DIVERGE_FACTOR * tail[:-1]))


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
    mass, _, _ = samples.mass(weight)
    return mass


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


def _stage_plan(total: int, floor: int = 32) -> list[int]:
    return [max(total >> (3 - s), floor) for s in range(4)]


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

    The report also carries the doubling ratio sup w(2B)/w(B) over the final
    ball family.
    """
    if not p > 1:
        raise ValueError("A_p requires p > 1")
    pprime = p / (p - 1.0)
    dual = weight.pow(1.0 - pprime)
    centers, radii = _ball_family(domain, window, balls, seed)
    plan_balls = _stage_plan(balls, floor=8)
    plan_budget = _stage_plan(budget, floor=64)

    cache: dict[tuple[int, int], tuple[float, float, bool]] = {}

    def ratio(i: int, s: int):
        key = (i, s)
        if key not in cache:
            b = Ball(centers[i], radii[i])
            samples = gather_ball_samples(
                space, b, plan_budget[s], seed, domain, weight.singularity, tag=("ap", i, s)
            )
            aw = _average_from_samples(samples, weight)
            ad = _average_from_samples(samples, dual)
            cache[key] = (aw.value, ad.value, aw.diverging or ad.diverging)
        return cache[key]

    stages = []
    any_div = False
    final_vals = None
    for s, nballs in enumerate(plan_balls):
        vals = np.empty(nballs)
        for i in range(nballs):
            aw, ad, div = ratio(i, s)
            vals[i] = aw * ad ** (p - 1.0)
            any_div = any_div or div
        stages.append(float(np.max(vals)))
        if s == 3:
            final_vals = vals
    trace = _trace(stages, any_div)

    order = np.argsort(final_vals)[::-1][:3]
    worst = [
        {"center": list(map(float, centers[i])), "radius": float(radii[i]),
         "ratio": float(final_vals[i])}
        for i in order
    ]
    # doubling ratio on a subsample of the final family
    sub = np.linspace(0, plan_balls[3] - 1, num=min(64, plan_balls[3]), dtype=int)
    doubling = 0.0
    for i in sub:
        b1 = Ball(centers[i], radii[i])
        b2 = Ball(centers[i], 2.0 * radii[i])
        m1 = ball_mass(weight, space, b1, plan_budget[3], _subseed(seed, ("dbl", int(i), 1)), domain)
        m2 = ball_mass(weight, space, b2, plan_budget[3], _subseed(seed, ("dbl", int(i), 2)), domain)
        if m1 > 0:
            doubling = max(doubling, m2 / m1)
    return WeightReport(
        weight=weight.name, p=p, ap_estimate=trace, doubling_estimate=doubling,
        ball_count=balls, budget=budget, window=(float(window[0]), float(window[1])),
        seed=seed, worst_cases=worst,
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
    plan_balls = _stage_plan(balls, floor=8)
    plan_budget = _stage_plan(budget, floor=64)
    cache: dict[tuple[int, int], tuple[float, float, bool]] = {}

    def pair(i, s):
        key = (i, s)
        if key not in cache:
            b = Ball(centers[i], radii[i])
            samples = gather_ball_samples(
                space, b, plan_budget[s], seed, domain, weight.singularity, tag=("rh", i, s)
            )
            a1 = _average_from_samples(samples, weight)
            a2 = _average_from_samples(samples, wt)
            cache[key] = (a1.value, a2.value, a1.diverging or a2.diverging)
        return cache[key]

    stages = []
    any_div = False
    final_vals = None
    for s, nballs in enumerate(plan_balls):
        vals = np.empty(nballs)
        for i in range(nballs):
            aw, awt, div = pair(i, s)
            vals[i] = awt ** (1.0 / t) / aw
            any_div = any_div or div
        stages.append(float(np.max(vals)))
        if s == 3:
            final_vals = vals
    trace = _trace(stages, any_div)
    order = np.argsort(final_vals)[::-1][:3]
    worst = [
        {"center": list(map(float, centers[i])), "radius": float(radii[i]),
         "ratio": float(final_vals[i])}
        for i in order
    ]
    return WeightReport(
        weight=weight.name, t=t, rh_estimate=trace,
        ball_count=balls, budget=budget, window=(float(window[0]), float(window[1])),
        seed=seed, worst_cases=worst,
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
                         _subseed(seed, ("max", j)), domain)
        avgs[j] = a.value
        shell_div = shell_div or a.diverging
    shrink_div = False
    if len(avgs) >= _DIVERGE_LEVELS + 1:
        tail = avgs[-(_DIVERGE_LEVELS + 1):]
        shrink_div = bool(np.all(tail[1:] >= _DIVERGE_FACTOR * tail[:-1]))
    return MaximalValue(
        value=float(np.max(avgs)),
        shell_diverging=shell_div,
        shrink_diverging=shrink_div,
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
    plan_points = _stage_plan(points, floor=8)
    plan_budget = _stage_plan(budget, floor=64)

    cache: dict[tuple[int, int], tuple[float, bool]] = {}

    def ratio(i, s):
        # Only shell-level divergence (non-integrability) counts as global
        # unboundedness evidence: a probe accidentally on the singular locus
        # sees growing averages but is a measure-zero event for the esssup.
        key = (i, s)
        if key not in cache:
            mv = maximal_function(weight, space, xs[i], radius_set, plan_budget[s],
                                  _subseed(seed, ("a1", i, s)), domain)
            wx = float(weight(xs[i][None, :])[0])
            cache[key] = (mv.value / wx, mv.shell_diverging)
        return cache[key]

    stages = []
    any_div = False
    final_vals = None
    for s, npts in enumerate(plan_points):
        vals = np.empty(npts)
        for i in range(npts):
            v, div = ratio(i, s)
            vals[i] = v
            any_div = any_div or div
        stages.append(float(np.max(vals)))
        if s == 3:
            final_vals = vals
    trace = _trace(stages, any_div)
    order = np.argsort(final_vals)[::-1][:3]
    worst = [
        {"center": list(map(float, xs[i])), "radius": None, "ratio": float(final_vals[i])}
        for i in order
    ]
    return WeightReport(
        weight=weight.name, a1_estimate=trace,
        ball_count=points, budget=budget, window=(float(window[0]), float(window[1])),
        seed=seed, worst_cases=worst,
    )


def power_class_check(
    weight: Weight,
    p: float,
    t: float,
    space: MetricSpace,
    domain: Box,
    window: tuple[float, float],
    balls: int = 1024,
    budget: int = 1024,
    seed: int = 0,
):
    """Estimate [w]_{A_p}, [w]_{RH_t} and [w^t]_{A_q} with q = t(p-1)+1 and
    report whether finiteness of the first two is matched by the third."""
    q = t * (p - 1.0) + 1.0
    rep_ap = ap_constant(weight, p, space, domain, window, balls, budget, seed)
    rep_rh = rh_constant(weight, t, space, domain, window, balls, budget, seed)
    rep_aq = ap_constant(weight.pow(t), q, space, domain, window, balls, budget, seed)
    finite = lambda tr: tr is not None and not tr.unbounded_suspected
    return PowerClassReport(
        weight=weight.name,
        p=p,
        t=t,
        q=q,
        ap=rep_ap.ap_estimate,
        rh=rep_rh.rh_estimate,
        aq=rep_aq.ap_estimate,
        consistent=bool(not (finite(rep_ap.ap_estimate) and finite(rep_rh.rh_estimate))
                        or finite(rep_aq.ap_estimate)),
    )


@dataclass(frozen=True)
class PowerClassReport:
    weight: str
    p: float
    t: float
    q: float
    ap: EstimateTrace
    rh: EstimateTrace
    aq: EstimateTrace
    consistent: bool

    def to_dict(self):
        return {
            "weight": self.weight, "p": self.p, "t": self.t, "q": self.q,
            "ap": self.ap.to_dict(), "rh": self.rh.to_dict(), "aq": self.aq.to_dict(),
            "consistent": self.consistent,
        }


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
    worst = None
    for i in range(pairs):
        gap = max(r2[i] - r1[i], 0.0)
        if gap > 0:
            c1 = sample_ball(space, Ball(centers2[i], gap), 1, seed=_subseed(seed, ("balc", i)))[0]
        else:
            c1 = centers2[i]
        b1, b2 = Ball(c1, float(r1[i])), Ball(centers2[i], float(r2[i]))
        masses = []
        for j, b in enumerate((b1, b2)):
            samples = gather_ball_samples(space, b, budget, seed, None,
                                          w.singularity or v.singularity, tag=("bal", i, j))
            mw, _, cw = samples.mass(w)
            mv, _, cv = samples.mass(v)
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
    mw, _, _ = samples.mass(w)
    mv, _, _ = samples.mass(v)
    return (mv / mw) ** (1.0 / p)


@dataclass(frozen=True)
class SubsetMassReport:
    subsets: int
    rh_checked: bool
    ap_checked: bool
    rh_violations: int
    ap_violations: int
    worst_rh_margin: float
    worst_ap_margin: float

    def to_dict(self):
        return {
            "subsets": self.subsets,
            "rh_checked": self.rh_checked, "ap_checked": self.ap_checked,
            "rh_violations": self.rh_violations, "ap_violations": self.ap_violations,
            "worst_rh_margin": self.worst_rh_margin, "worst_ap_margin": self.worst_ap_margin,
        }


def subset_mass_check(
    w: Weight,
    space: MetricSpace,
    ball: Ball,
    p: float | None = None,
    t: float | None = None,
    ap_value: float | None = None,
    rh_value: float | None = None,
    subsets: int = 256,
    budget: int = 4096,
    seed: int = 0,
    include_full_ball: bool = True,
    rel_slack: float = 0.05,
) -> SubsetMassReport:
    """Check the subset-mass inequalities on random unions of sub-balls E ⊆ B:

        w(E)/w(B) <= [w]_{RH_t} (|E|/|B|)^{1/t'}       (needs t, rh_value)
        |E|/|B|  <= ([w]_{A_p} w(E)/w(B))^{1/p}        (needs p, ap_value)

    Violations are counted beyond a relative Monte-Carlo slack.
    """
    samples = gather_ball_samples(space, ball, budget, seed, None, w.singularity, tag="subset")
    w_mass, _, _ = samples.mass(w)
    vol_mass, _, _ = samples.mass(lambda pts: np.ones(len(pts)))
    rng = child_rng(seed, "subsets")

    rh_viol = ap_viol = 0
    worst_rh = worst_ap = -math.inf
    count = 0
    for k in range(subsets):
        if include_full_ball and k == 0:
            member = lambda pts: np.ones(len(pts))
        else:
            nsub = int(rng.integers(1, 5))
            subc = sample_ball(space, ball, nsub, seed=_subseed(seed, ("subc", k)))
            subr = ball.radius * rng.uniform(0.05, 0.5, nsub)

            def member(pts, subc=subc, subr=subr):
                inside = np.zeros(len(pts), dtype=bool)
                for c, r in zip(subc, subr):
                    d = np.asarray(metric_distance(space, pts, np.broadcast_to(c, pts.shape)))
                    inside |= d < r
                return inside.astype(float)

        wE, _, _ = samples.mass(w, indicator=member)
        volE, _, _ = samples.mass(lambda pts: np.ones(len(pts)), indicator=member)
        frac_w = wE / w_mass
        frac_vol = volE / vol_mass
        if frac_vol <= 0:
            continue
        count += 1
        if t is not None and rh_value is not None:
            tprime = t / (t - 1.0)
            rhs = rh_value * frac_vol ** (1.0 / tprime)
            margin = frac_w - rhs
            worst_rh = max(worst_rh, margin / max(rhs, 1e-300))
            if frac_w > rhs * (1.0 + rel_slack) + 1e-12:
                rh_viol += 1
        if p is not None and ap_value is not None:
            rhs = (ap_value * frac_w) ** (1.0 / p)
            margin = frac_vol - rhs
            worst_ap = max(worst_ap, margin / max(rhs, 1e-300))
            if frac_vol > rhs * (1.0 + rel_slack) + 1e-12:
                ap_viol += 1
    return SubsetMassReport(
        subsets=count,
        rh_checked=t is not None and rh_value is not None,
        ap_checked=p is not None and ap_value is not None,
        rh_violations=rh_viol,
        ap_violations=ap_viol,
        worst_rh_margin=worst_rh,
        worst_ap_margin=worst_ap,
    )
