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

The estimators sample their balls in blocks of a fixed number of balls
(`_BLOCK`).  Draws stay per ball: every ball draws from its own random
streams, keyed by the seed and its tag, exactly as a ball sampled on its
own.  Everything after the draws runs on the whole block at once: the maps
onto the balls, the domain test, the stratum thresholds, one weight
evaluation per sample (its powers are taken from those values) and the
masses.  Each ball's sums still run over its own samples in the same order,
so a ball's average has the same bits in any block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ._rand import child_rng, subseed
from .geometry import (
    Ball,
    Box,
    MetricSpace,
    _map_to_balls,
    _unit_ball_draws,
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

# Balls per block of the batched engine.  Draws stay per ball; a block only
# batches the array work that follows them, and its arrays hold _BLOCK x
# budget points.  Of 1, 4, 8, 16 and 32, 8 ran the catalog's estimator calls
# fastest (median CPU time); larger blocks gained nothing.
_BLOCK = 8


@dataclass
class BallSamples:
    """Uniform samples of a block of balls, each clipped to a domain box and
    stratified into dyadic distance shells around a singular locus.

    The samples form segments, one per (ball, stratum), ball after ball; the
    segments of ball b are first[b]:first[b + 1].  A ball far from the locus
    has one stratum.  A near ball has L + 1: stratum 0 is the bulk (B minus
    the first shell), strata 1..L-1 are the rings and stratum L is the
    innermost core.  Segment k holds the points kept[offsets[k]:offsets[k+1]],
    uniform in its stratum, whose estimated Lebesgue volume is volumes[k]
    with standard error volume_se[k].  For a block of one ball the segments
    are its strata.
    """

    balls: list[Ball]
    kept: np.ndarray
    offsets: np.ndarray
    first: np.ndarray
    volumes: np.ndarray
    volume_se: np.ndarray

    @property
    def points(self) -> list[np.ndarray]:
        """The points of each segment."""
        return [self.kept[a:b] for a, b in zip(self.offsets[:-1], self.offsets[1:])]

    @property
    def total_volume(self) -> float:
        """Estimated volume of ball ∩ domain, for a block of one ball."""
        (_,) = self.balls
        return float(np.sum(self.volumes))

    def integrals(self, vals: np.ndarray) -> list[tuple]:
        """Integral of a function over each ball ∩ domain, from its values
        `vals` at `kept`, as one (mass, se, contributions, (vmin, vmax),
        volume) per ball.

        contributions[j] is the stratum-j share of the mass, vmin and vmax
        bound the values over the ball's samples ((inf, -inf) if there are
        none), and volume is the estimated volume of ball ∩ domain.  Only
        segments with points and positive volume are integrated.  Each
        segment's mean and variance are numpy's, over its own contiguous
        slice, and each ball's sums run over its own segments, so a ball
        gets the same bits in any block.
        """
        self.check_finite([vals])
        counts = np.diff(self.offsets)
        segs = np.flatnonzero(self.live)
        bounds = list(zip(self.offsets[segs].tolist(), self.offsets[segs + 1].tolist()))
        live_pts = self.live_points
        add = np.add.reduce
        means = np.zeros(len(counts))
        means[segs] = np.array([add(vals[a:b]) for a, b in bounds]) / counts[segs]
        dev = vals - np.repeat(means, counts)
        np.multiply(dev, dev, out=dev)
        var = np.zeros(len(counts))
        var[segs] = np.array([add(dev[a:b]) for a, b in bounds]) / counts[segs]
        contrib = self.volumes * means
        # the volumes squared one by one, as scalars: an array power can
        # differ from a scalar one in the last bit
        squares = np.array([v ** 2 for v in self.volumes.tolist()])
        var_terms = squares * var / np.maximum(counts, 1)
        vol_terms = (means * self.volume_se) ** 2
        out = []
        for s0, s1 in zip(self.first[:-1].tolist(), self.first[1:].tolist()):
            a, b = int(self.offsets[s0]), int(self.offsets[s1])
            ball_vals = vals[a:b] if live_pts is None else vals[a:b][live_pts[a:b]]
            vrange = ((float(ball_vals.min()), float(ball_vals.max())) if len(ball_vals)
                      else (math.inf, -math.inf))
            se = math.sqrt(float(add(var_terms[s0:s1]) + add(vol_terms[s0:s1])))
            out.append((float(add(contrib[s0:s1])), se, contrib[s0:s1], vrange,
                        float(add(self.volumes[s0:s1]))))
        return out

    @cached_property
    def live(self) -> np.ndarray:
        """The segments that are integrated: those with points and positive
        volume."""
        return (np.diff(self.offsets) > 0) & (self.volumes > 0.0)

    @cached_property
    def live_points(self) -> np.ndarray | None:
        """Mask of the kept points in live segments, None if all are."""
        return None if self.live.all() else np.repeat(self.live, np.diff(self.offsets))

    def check_finite(self, values: list[np.ndarray]) -> None:
        """Raise SingularSampleError at the first non-finite value of the
        first ball that has one in a live segment, taking the value arrays
        in order within a ball."""
        live_pts = self.live_points
        bad = [~np.isfinite(v) if live_pts is None else ~np.isfinite(v) & live_pts
               for v in values]
        if not any(b.any() for b in bad):
            return
        ends = self.offsets[self.first]
        for a, b in zip(ends[:-1], ends[1:]):
            for v, mask in zip(values, bad):
                if mask[a:b].any():
                    i = a + int(np.argmax(mask[a:b]))
                    raise SingularSampleError(self.kept[i], v[i])

    def mass(self, fn: Callable[[np.ndarray], np.ndarray]):
        """Estimate the integral of fn over ball ∩ domain, for a block of one
        ball: (mass, se, contributions, (vmin, vmax)) as in `integrals`."""
        vals = np.asarray(fn(self.kept), dtype=float)
        ((mass, se, contrib, vrange, _),) = self.integrals(vals)
        return mass, se, contrib, vrange


def _hit_volume(hits, count, vol):
    """Hit-or-miss estimate vol * acc of a region's volume and its standard
    error, where vol is the proposal volume and acc = hits / count the
    accepted fraction of `count` proposals."""
    acc = float(hits) / count
    return vol * acc, vol * math.sqrt(max(acc * (1 - acc), 0.0) / count)


def _draw_in_ball(space, key, count, seed):
    """`count` unit-ball points from the stream (seed, key), which
    gather_ball_samples maps onto the ball."""
    return _unit_ball_draws(space, count, subseed(seed, key))


def _sample_near_singularity(space, singularity, key, count, seed, empty):
    """`count` raw draws of one level's proposal from the stream (seed, key):
    unit-ball points, which gather_ball_samples maps onto the ball of radius
    delta about a point locus, or points of the unit cube, mapped onto the
    slab about a hyperplane; None for an empty slab, which draws nothing."""
    if empty:
        return None
    if singularity.kind == "point":
        return _unit_ball_draws(space, count, subseed(seed, key))
    return child_rng(seed, *key, "slab").random((count, space.n))


def _compress(pts, keep):
    """The points of pts (..., n) where keep (...) holds, in order."""
    return np.compress(keep.ravel(), pts.reshape(-1, pts.shape[-1]), axis=0)


def _within(space, pts, centers, radii):
    """Whether each point of pts (B, ..., n) lies within distance radii[b]
    of centers[b]."""
    flat = pts.reshape(len(pts), -1, space.n)
    per = flat.shape[1]
    d = np.asarray(metric_distance(space, flat.reshape(-1, space.n),
                                   np.repeat(centers, per, axis=0)))
    return (d < np.repeat(radii, per)).reshape(pts.shape[:-1])


def _far_block(space, balls, seeds, tags, budget, domain):
    """Samples of balls drawn as one stratum each: `budget` points in the
    ball, kept when they lie in the domain.  Returns the kept points, ball
    after ball, their strata (all 0), the kept count per ball, and the
    volumes and their standard errors as (balls, 1) arrays."""
    centers = np.array([b.center for b in balls])
    radii = np.array([b.radius for b in balls], dtype=float)
    draws = np.stack([_draw_in_ball(space, (t, "pool"), budget, s) for s, t in zip(seeds, tags)])
    pts = _map_to_balls(space, centers, radii, draws)
    keep = np.ones(pts.shape[:2], dtype=bool) if domain is None else domain.contains(pts)
    hits = np.count_nonzero(keep, axis=1)
    vol_se = np.array([_hit_volume(h, budget, ball_volume(space, b))
                       for h, b in zip(hits.tolist(), balls)])
    return (_compress(pts, keep), np.zeros(int(hits.sum()), dtype=int), hits, vol_se[:, :1],
            vol_se[:, 1:])


def _near_block(space, balls, seeds, tags, budget, domain, singularity):
    """Samples of balls near the singular locus (see gather_ball_samples):
    per ball, L level draws and then the pool, with each kept point's stratum
    from one distance threshold pass.  Returns as `_far_block` does, with
    (balls, L + 1) volumes; within a stratum, points keep the order of the
    draws (levels 0..L-1, then the pool)."""
    levels = _RING_LEVELS
    pool_n = max(budget // 2, 16)
    per_level = max((budget - pool_n) // levels, 32)
    n = space.n
    centers = np.array([b.center for b in balls])
    radii = np.array([b.radius for b in balls], dtype=float)
    deltas = [[b.radius * 2.0 ** (-(ell + 1)) for ell in range(levels)] for b in balls]
    delta_arr = np.array(deltas, dtype=float)

    if singularity.kind == "point":
        empty = np.zeros((len(balls), levels), dtype=bool)
        vol_prop = [[space.unit_ball_volume * d ** space.Q for d in row] for row in deltas]
    else:
        # box proposal around the slab through the ball's bounding box, clipped
        # to the domain (so its draws need no domain test)
        a = singularity.axis
        lo = np.repeat((centers - radii[:, None])[:, None, :], levels, axis=1)
        hi = np.repeat((centers + radii[:, None])[:, None, :], levels, axis=1)
        lo[..., a] = np.maximum(lo[..., a], singularity.offset - delta_arr)
        hi[..., a] = np.minimum(hi[..., a], singularity.offset + delta_arr)
        if domain is not None:
            lo = np.maximum(lo, domain.bounds[:, 0])
            hi = np.minimum(hi, domain.bounds[:, 1])
        empty = np.any(hi <= lo, axis=-1)
        vol_prop = np.prod(hi - lo, axis=-1).tolist()

    raw = np.zeros((len(balls), levels, per_level, n))
    for b, (s, t) in enumerate(zip(seeds, tags)):
        for ell in range(levels):
            u = _sample_near_singularity(space, singularity, (t, "lvl", ell), per_level, s,
                                         bool(empty[b, ell]))
            if u is not None:
                raw[b, ell] = u
    pool = _map_to_balls(space, centers, radii,
                         np.stack([_draw_in_ball(space, (t, "pool"), pool_n, s)
                                   for s, t in zip(seeds, tags)]))
    pool_keep = np.ones(pool.shape[:2], dtype=bool) if domain is None else domain.contains(pool)
    if singularity.kind == "point":
        lvl = _map_to_balls(space, singularity.point, delta_arr, raw)
        lvl_keep = _within(space, lvl, centers, radii)
        if domain is not None:
            lvl_keep &= domain.contains(lvl)
    else:
        lvl = lo[:, :, None, :] + raw * (hi - lo)[:, :, None, :]
        lvl_keep = _within(space, lvl, centers, radii) & ~empty[:, :, None]

    # volumes: the pool's, then level ell's T_ell = {p in ball ∩ domain :
    # d(p) < deltas[ell]}, clamped to be nonincreasing in ell
    pool_hits = np.count_nonzero(pool_keep, axis=1).tolist()
    lvl_hits = np.count_nonzero(lvl_keep, axis=2).tolist()
    vol = np.empty((len(balls), levels + 1))
    se = np.empty((len(balls), levels + 1))
    for b, ball in enumerate(balls):
        vol[b, 0], se[b, 0] = _hit_volume(pool_hits[b], pool_n, ball_volume(space, ball))
        for ell in range(levels):
            vol[b, ell + 1], se[b, ell + 1] = ((0.0, 0.0) if empty[b, ell] else
                                               _hit_volume(lvl_hits[b][ell], per_level,
                                                           vol_prop[b][ell]))
    level_vol = np.minimum.accumulate(vol[:, 1:], axis=1)
    volumes = np.maximum(np.concatenate([vol[:, :1], level_vol], axis=1)
                         - np.concatenate([level_vol, np.zeros((len(balls), 1))], axis=1), 0.0)
    volume_se = np.array([[*(math.hypot(x, y) for x, y in zip(row, row[1:])), row[-1]]
                          for row in se.tolist()])

    # strata: stratum ell + 1 is inner <= d < deltas[ell], with inner the next
    # delta (0 for the core, stratum L), taken from level draws 0..ell and then
    # the pool; stratum 0 is the pool's d >= deltas[0]
    pts = np.concatenate([lvl.reshape(len(balls), -1, n), pool], axis=1)
    keep = np.concatenate([lvl_keep.reshape(len(balls), -1), pool_keep], axis=1)
    d = singularity.distance(space, pts.reshape(-1, n)).reshape(keep.shape)
    stratum = np.zeros(keep.shape, dtype=int)
    for ell in range(levels):
        stratum += d < delta_arr[:, ell:ell + 1]
    source = np.concatenate([np.repeat(np.arange(levels), per_level), np.full(pool_n, levels)])
    keep &= (stratum > source) | (source == levels)
    segment = np.arange(len(balls))[:, None] * (levels + 1) + stratum
    counts = np.bincount(segment[keep], minlength=len(balls) * (levels + 1))
    counts = counts.reshape(len(balls), levels + 1)
    # merge empty-but-massive strata into the next deeper one
    for b in np.flatnonzero(np.any((counts[:, :-1] == 0) & (volumes[:, :-1] > 0), axis=1)):
        for j in range(levels):
            if counts[b, j] == 0 and volumes[b, j] > 0:
                volumes[b, j + 1] += volumes[b, j]
                volumes[b, j] = 0.0
    return (_compress(pts, keep), stratum[keep], np.count_nonzero(keep, axis=1), volumes,
            volume_se)


def gather_ball_samples(
    space: MetricSpace,
    ball,
    budget: int,
    seed,
    domain: Box | None = None,
    singularity: Singularity | None = None,
    tag="avg",
) -> BallSamples:
    """Uniform samples of ball ∩ domain, stratified by distance d to the
    singular locus when the ball comes near it.

    `ball` is one Ball, drawn from the streams keyed by (seed, tag), or a
    block: a sequence of balls, with `seed` and `tag` sequences holding one
    seed and one tag per ball.  Draws stay per ball: each ball draws from its
    own streams, exactly as a block of one, so its samples do not depend on
    the block.  What follows the draws runs on the whole block at once: the
    maps onto the balls and proposals, the acceptance and domain tests, and
    the distance thresholds of the strata.

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
    if isinstance(ball, Ball):
        ball, seed, tag = [ball], [seed], [tag]
    near = np.zeros(len(ball), dtype=bool)
    if singularity is not None:
        centers = np.array([b.center for b in ball])
        radii = np.array([b.radius for b in ball], dtype=float)
        near = singularity.distance(space, centers) <= 1.5 * radii
    strata = np.where(near, _RING_LEVELS + 1, 1)
    first = np.concatenate([[0], np.cumsum(strata)])
    volumes = np.empty(first[-1])
    volume_se = np.empty(first[-1])
    pick = lambda group: ([ball[i] for i in group], [seed[i] for i in group],
                          [tag[i] for i in group])
    far, close = np.flatnonzero(~near), np.flatnonzero(near)
    parts = []
    if len(far):
        parts.append((far, _far_block(space, *pick(far), budget, domain)))
    if len(close):
        parts.append((close, _near_block(space, *pick(close), budget, domain, singularity)))
    pts, keys = [], []
    for group, (kept, stratum, per_ball, vol, vol_se) in parts:
        segs = first[group][:, None] + np.arange(vol.shape[1])
        volumes[segs] = vol
        volume_se[segs] = vol_se
        pts.append(kept)
        keys.append(np.repeat(first[group], per_ball) + stratum)
    keys = np.concatenate(keys)
    kept = np.concatenate(pts)
    if np.any(keys[1:] < keys[:-1]):
        kept = np.take(kept, np.argsort(keys, kind="stable"), axis=0)
    counts = np.bincount(keys, minlength=first[-1])
    return BallSamples(list(ball), kept, np.concatenate([[0], np.cumsum(counts)]), first,
                       volumes, volume_se)


@dataclass(frozen=True)
class BallAverage:
    """Monte-Carlo ball average with refinement diagnostics."""

    value: float
    stderr: float
    diverging: bool
    ring_contributions: np.ndarray  # per-stratum contribution to the mass


def _block_averages(samples: BallSamples, vals: np.ndarray) -> list[BallAverage]:
    """The average of a function over each ball of the block, from its
    values `vals` at the kept points."""
    out = []
    for mass, se, contrib, (vmin, vmax), vol in samples.integrals(vals):
        if vol <= 0:
            raise ValueError("ball does not intersect the domain")
        if math.isfinite(vmin) and vmin == vmax:
            # constant on the sample set: the average is that constant, exactly
            out.append(BallAverage(vmin, 0.0, False, contrib))
        else:
            out.append(BallAverage(mass / vol, se / vol, _rings_diverge(contrib), contrib))
    return out


def _powers(vals: np.ndarray, exponent: float) -> np.ndarray:
    """vals ** exponent, bitwise what Weight.pow(exponent) evaluates: the
    same array power, which for some inputs differs in the last bit from a
    scalar (libm) power, so scalar powers elsewhere stay scalar."""
    if exponent == 1.0:
        return vals
    with np.errstate(divide="ignore", over="ignore"):
        return vals ** exponent


def _sample_blocks(space, balls, budget, seeds, tags, domain, singularity):
    """gather_ball_samples over `balls`, in blocks of _BLOCK balls."""
    for k in range(0, len(balls), _BLOCK):
        blk = slice(k, k + _BLOCK)
        yield gather_ball_samples(space, balls[blk], budget, seeds[blk], domain, singularity,
                                  tags[blk])


def _ball_averages(weight, exponents, space, balls, budget, seeds, tags, domain):
    """Averages of weight**e over each ball, one list of BallAverage per
    exponent e (1 is the weight itself).  The weight is evaluated once per
    kept point, and its powers come from those values."""
    out = [[] for _ in exponents]
    for samples in _sample_blocks(space, balls, budget, seeds, tags, domain,
                                  weight.singularity):
        vals = weight(samples.kept)
        values = [_powers(vals, e) for e in exponents]
        samples.check_finite(values)
        for v, acc in zip(values, out):
            acc.extend(_block_averages(samples, v))
    return out


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
    ((avg,),) = _ball_averages(weight, (1.0,), space, [ball], budget, [seed], ["avg"], domain)
    return avg


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


def _staged_sup(count: int, budget: int, ratios) -> tuple[EstimateTrace, np.ndarray]:
    """Supremum of a ratio over a family of `count` items, in four stages.

    Stage s hands its whole block of items to ratios(count_s, s, budget_s)
    -> (ratios, diverging), the ratios of the first count_s items and
    whether any of their averages diverged, and records the stage maximum.
    count_s and budget_s double from stage to stage up to count and budget,
    with floors of 8 and 64 (`_stage_plan`).  The ratio closures sample
    their balls through `_ball_averages`, in blocks of _BLOCK balls, with
    each ball's draws exactly those of a ball sampled on its own.  Returns
    the trace and the last stage's ratios.
    """
    if count < 8:
        raise ValueError(f"the stage plan needs a family of >= 8 balls or points, got {count}")
    stages = []
    any_div = False
    for s, (n, b) in enumerate(zip(_stage_plan(count, floor=8), _stage_plan(budget, floor=64))):
        vals, div = ratios(n, s, b)
        vals = np.asarray(vals, dtype=float)
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

    def ratios(n, s, budget_s):
        aw, ad = _ball_averages(weight, (1.0, 1.0 - pprime), space,
                                [Ball(centers[i], radii[i]) for i in range(n)], budget_s,
                                [seed] * n, [("ap", i, s) for i in range(n)], domain)
        return ([w.value * d.value ** (p - 1.0) for w, d in zip(aw, ad)],
                any(w.diverging or d.diverging for w, d in zip(aw, ad)))

    trace, final_vals = _staged_sup(balls, budget, ratios)
    # doubling ratio on a subsample of the final family: the balls B and 2B
    # of each subsampled center, one after the other
    final_budget = _stage_plan(budget, floor=64)[-1]
    sub = np.linspace(0, balls - 1, num=min(64, balls), dtype=int).tolist()
    pairs = [Ball(centers[i], k * radii[i]) for i in sub for k in (1.0, 2.0)]
    seeds = [subseed(seed, ("dbl", i, j)) for i in sub for j in (1, 2)]
    masses = []
    for samples in _sample_blocks(space, pairs, final_budget, seeds, ["avg"] * len(pairs),
                                  domain, weight.singularity):
        masses.extend(m[0] for m in samples.integrals(weight(samples.kept)))
    doubling = 0.0
    for m1, m2 in zip(masses[0::2], masses[1::2]):
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
    centers, radii = _ball_family(domain, window, balls, seed)

    def ratios(n, s, budget_s):
        aw, awt = _ball_averages(weight, (1.0, t), space,
                                 [Ball(centers[i], radii[i]) for i in range(n)], budget_s,
                                 [seed] * n, [("rh", i, s) for i in range(n)], domain)
        return ([wt.value ** (1.0 / t) / w.value for w, wt in zip(aw, awt)],
                any(w.diverging or wt.diverging for w, wt in zip(aw, awt)))

    trace, final_vals = _staged_sup(balls, budget, ratios)
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
    (mv,) = _maximal_values(weight, space, np.asarray(x, dtype=float)[None, :], radius_set,
                            budget, [seed], domain)
    return mv


def _maximal_values(weight, space, xs, radius_set, budget, seeds, domain) -> list[MaximalValue]:
    """`maximal_function` at each point of xs, with seeds[i] for xs[i]; the
    block of points x radii is sampled in one pass of `_ball_averages`."""
    radii = np.sort(np.asarray(list(radius_set), dtype=float))[::-1]
    if len(radii) == 0:
        raise ValueError("radius_set must be non-empty")
    balls = [Ball(x, float(r)) for x in xs for r in radii]
    ball_seeds = [subseed(sd, ("max", j)) for sd in seeds for j in range(len(radii))]
    (avgs,) = _ball_averages(weight, (1.0,), space, balls, budget, ball_seeds,
                             ["avg"] * len(balls), domain)
    out = []
    for k in range(0, len(avgs), len(radii)):
        row = avgs[k:k + len(radii)]
        values = np.array([a.value for a in row])
        out.append(MaximalValue(
            value=float(np.max(values)),
            shell_diverging=any(a.diverging for a in row),
            shrink_diverging=_grows_geometrically(values),
            radii=tuple(float(r) for r in radii),
            averages=tuple(float(a) for a in values),
        ))
    return out


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

    def ratios(n, s, budget_s):
        # Only shell-level divergence (non-integrability) counts as global
        # unboundedness evidence: a probe accidentally on the singular locus
        # sees growing averages but is a measure-zero event for the esssup.
        mvs = _maximal_values(weight, space, xs[:n], radius_set, budget_s,
                              [subseed(seed, ("a1", i, s)) for i in range(n)], domain)
        return ([mv.value / w for mv, w in zip(mvs, weight(xs[:n]).tolist())],
                any(mv.shell_diverging for mv in mvs))

    trace, final_vals = _staged_sup(points, budget, ratios)
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
    over sampled nested pairs B1 ⊆ B2 inside the domain.

    Unlike `_staged_sup`, every pair is evaluated once at the full budget
    and the four stages are the maxima over the prefixes of `_stage_plan`
    (floor 1); budget growth therefore cannot show in the stages, only the
    growth of the family."""
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

    nested = []
    for i in range(pairs):
        gap = max(r2[i] - r1[i], 0.0)
        if gap > 0:
            c1 = sample_ball(space, Ball(centers2[i], gap), 1, seed=subseed(seed, ("balc", i)))[0]
        else:
            c1 = centers2[i]
        nested += [Ball(c1, float(r1[i])), Ball(centers2[i], float(r2[i]))]
    tags = [("bal", i, j) for i in range(pairs) for j in (0, 1)]
    masses = []
    viol = 0
    any_div = False
    for samples in _sample_blocks(space, nested, budget, [seed] * len(nested), tags, None,
                                  w.singularity or v.singularity):
        wp, vp = w(samples.kept), v(samples.kept)
        samples.check_finite([wp, vp])
        viol += int(np.count_nonzero(wp > vp * (1 + 1e-12)))
        for (mw, _, cw, _, _), (mv, _, cv, _, _) in zip(samples.integrals(wp),
                                                        samples.integrals(vp)):
            any_div = any_div or _rings_diverge(cw) or _rings_diverge(cv)
            masses.append((mw, mv))
    ratios = np.empty(pairs)
    for i in range(pairs):
        (w1, v1), (w2, v2) = masses[2 * i], masses[2 * i + 1]
        lhs = (r1[i] / r2[i]) * (v1 / v2) ** (1.0 / q)
        rhs = (w1 / w2) ** (1.0 / p)
        ratios[i] = lhs / rhs
    stages = [float(np.max(ratios[:n])) for n in _stage_plan(pairs, floor=1)]
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
