"""Weight functions and Muckenhoupt / reverse-Holder constant estimation.

Constants are estimated as suprema over finite families of metric balls, so
every reported value is a lower bound for the true constant.  Membership is
operationalized through two falsifiable signals:

* integrability levels -- a ball near a declared singular set is
  integrated along rays from it over dyadic panels of the ray parameter
  toward it; when the weight is not locally integrable the panel
  contributions grow geometrically instead of being cut off, and the
  average is flagged as diverging;
* plateau detection -- each family is evaluated once at the full budget,
  and its running supremum is read over the first 1/8, 1/4, 1/2 and all of
  its balls or points; if it rises at every stage and not every rise is
  below 1% of the new value (so it has not plateaued), the estimate is
  reported as "unbounded-suspected".  A diverging ball average raises the
  same flag.

The estimators sample their balls in blocks of `_BLOCK` balls.  Every ball
draws from its own random stream, one PCG64DXSM generator keyed by the seed
and the ball's tag (`child_rng`), exactly as a ball sampled on its own, so
any ball can be replayed alone; everything after the draws runs on the
whole block at once, in one pass (`_ball_integrals`): one weight evaluation
per node (its powers are taken from those values), and one integration of
every function a ratio needs (`BallSamples.integrals`).  Each ball's sums
still run over its own nodes in the same order, so a ball's average has the
same bits in any block.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._rand import child_rng, subseed
from .geometry import (
    Ball,
    Box,
    MetricSpace,
    euclidean,
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
    space metric).  kind "hyperplane": the locus is {x_axis = offset}, in
    coordinates on either backend.
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


def constant_weight(value: float) -> Weight:
    if value <= 0:
        raise ValueError("weight must be positive")
    return Weight(name=f"const{value:g}", fn=lambda pts: np.full(len(np.atleast_2d(pts)), float(value)))


# --- ball quadrature ---------------------------------------------------------

# Balls per block of the batched engine.  Draws stay per ball; a block only
# batches the array work that follows them: about `budget` nodes per near
# ball and budget / 6 per far one.  Of 8 to 512 balls, the catalog's
# estimator calls took the least CPU time from 64 on, half that at 8.
_BLOCK = 64
# Dyadic panels per ray near the singular set (see gather_ball_samples).
_PANELS = 6
# Clenshaw-Curtis rules on [-1, 1]: the 5-point rule, and on its nodes the
# 3-point rule (Simpson's), whose difference estimates the quadrature error.
_NODES = np.array([-1.0, -math.sqrt(0.5), 0.0, math.sqrt(0.5), 1.0])
_RULES = np.array([[1.0, 8.0, 12.0, 8.0, 1.0], [5.0, 0.0, 20.0, 0.0, 5.0]]) / 15.0
# Fewest rays or lines per near ball: small budgets still see a spread.
_MIN_UNITS = 9
# A far ball's unit (`_draw_in_ball`) turns a copy of the sphere S^0, the
# octagon (exact for trigonometric polynomials of degree < 8) or the
# icosahedron (a spherical 5-design).  Over 40 seeds, 3-d far averages spread
# 5x less than with Fibonacci spheres of 12 points, and octagons kept the
# error estimate honest on clipped discs, where 12-gons understated it.
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_DESIGNS = {1: np.array([[1.0], [-1.0]]),
            2: np.array([[math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)] for k in range(8)]),
            3: np.array([np.roll([0.0, a, b * _PHI], k) for k in range(3) for a in (-1.0, 1.0)
                         for b in (-1.0, 1.0)]) / math.sqrt(1.0 + _PHI ** 2)}


@dataclass
class BallSamples:
    """Quadrature nodes of a block of balls, each clipped to a domain box.

    A ball's integral is the mean over its units (see `gather_ball_samples`:
    a near ball's rays or lines, a far ball's turned copies of a design of
    rays from its centre) of the sums of weight x value over each unit's
    nodes.  The nodes form segments, one per (ball, level), ball after ball:
    ball b's segments are first[b]:first[b+1], segment k holds
    kept[offsets[k]:offsets[k+1]]; a far ball has one level, a near ball one
    per panel, outermost first.  weights (2, nodes) are the fine and coarse
    rules', bins the cells in each ball's (levels, units[b]) grid, start the
    near balls' units' starts.  `integrals` integrates a stack of functions
    over all the block's balls in one pass."""

    balls: list[Ball]
    kept: np.ndarray
    offsets: np.ndarray
    first: np.ndarray
    weights: np.ndarray
    bins: np.ndarray
    units: np.ndarray
    start: np.ndarray

    @property
    def points(self) -> list[np.ndarray]:
        """The nodes of each segment."""
        return [self.kept[a:b] for a, b in zip(self.offsets[:-1], self.offsets[1:])]

    @property
    def total_volume(self) -> float:
        """Estimated volume of ball ∩ domain, for a block of one ball."""
        return self.integrals(np.ones((1, len(self.kept))))[0][0][-1]

    @property
    def volumes(self) -> np.ndarray:
        """Estimated volume of each segment's part of ball ∩ domain."""
        (out,) = self.integrals(np.ones((1, len(self.kept))))
        return np.concatenate([c[:nl] for (_, _, c, _, _), nl in zip(out, np.diff(self.first))])

    def integrals(self, values: np.ndarray) -> list[list[tuple]]:
        """Per row of `values` (functions, nodes at `kept`), per ball: (mass, se,
        contributions, (vmin, vmax), volume); mass is the mean of the unit
        estimates: panel sums plus, if the deepest two are c_{J-2}, c_{J-1} =
        rho c_{J-2}, rho < 1, that power law's tail down to the unit's start f
        (a fraction of the deepest panel's lower edge), c_{J-1} rho / (1 - rho)
        (1 - f^-log2(rho)).  volume is the mass of 1; se**2 / volume**2 is the
        variance of mass / volume, from successive differences of the residuals
        est - (mass / volume) (unit volume) over the random units, plus the
        squared mean gap to the coarse rule's estimates.  contributions are the
        levels' and a near ball's tail's shares of mass; (vmin, vmax) bounds the
        values ((inf, -inf) if none).  A row gets the same bits as alone, a ball
        in any block.  SingularSampleError names the first non-finite value,
        by ball, then row."""
        ends = self.offsets[self.first]
        row, node = np.nonzero(~np.isfinite(values))
        if len(row):
            i = np.lexsort((node, row, np.searchsorted(ends, node, side="right")))[0]
            raise SingularSampleError(self.kept[node[i]], values[row[i], node[i]])
        k, levels = len(values), np.diff(self.first)
        cells = np.concatenate([[0], np.cumsum(levels * self.units)])
        unit_first = np.concatenate([[0], np.cumsum(np.where(levels > 1, self.units, 0))])
        # per cell: each row's fine sums, each row's coarse sums, the volume
        sums = np.stack([np.bincount(self.bins, w, cells[-1]) for w in
                         (*(values * self.weights[0]), *(values * self.weights[1]),
                          self.weights[0])])
        # each ball's value range, over the balls that have nodes
        shape = (k, len(self.balls))
        vmin, vmax = np.full(shape, math.inf), np.full(shape, -math.inf)
        full = np.diff(ends) > 0
        if full.any():
            vmin[:, full] = np.minimum.reduceat(values, ends[:-1][full], axis=1)
            vmax[:, full] = np.maximum.reduceat(values, ends[:-1][full], axis=1)
        out = [[None] * len(self.balls) for _ in range(k)]
        for nl, nu in set(zip(levels.tolist(), self.units.tolist())):    # far, near
            group = np.flatnonzero((levels == nl) & (self.units == nu))
            cell = cells[group][:, None] + np.arange(nl * nu)
            # C-ordered, as `take` leaves them (sums[:, cell] would not), so that
            # each row's sums over units run in the order they run alone
            parts = sums.take(cell, axis=1).reshape(2 * k + 1, len(group), nl, nu)
            start = self.start[unit_first[group][:, None] + np.arange(nu)] if nl > 1 else None
            (est, tail), size = _estimates(parts[:k], start), _estimates(parts[-1], start)[0]
            mass, vol = np.add.reduce(est, axis=-1) / nu, np.add.reduce(size, axis=-1) / nu
            step = np.diff(est - np.divide(mass, vol, out=np.zeros_like(mass),
                                           where=vol > 0)[..., None] * size, axis=-1)
            var = np.add.reduce(step * step, axis=-1) / (2 * max(nu - 1, 1)) / nu
            err = np.add.reduce(np.abs(est - _estimates(parts[k:-1], start)[0]), axis=-1) / nu
            contrib = np.add.reduce(parts[:k], axis=-1) / nu
            if nl > 1:
                tail = np.add.reduce(tail, axis=-1)[..., None] / nu
                contrib = np.concatenate([contrib, tail], axis=-1)
            for r in range(k):
                for i, b in enumerate(group.tolist()):
                    out[r][b] = (float(mass[r, i]), math.sqrt(var[r, i] + err[r, i] ** 2),
                                 contrib[r, i], (float(vmin[r, b]), float(vmax[r, b])),
                                 float(vol[i]))
        return out

    def mass(self, fn: Callable[[np.ndarray], np.ndarray]):
        """Estimate the integral of fn over ball ∩ domain, for a block of one
        ball: (mass, se, contributions, (vmin, vmax)) as in `integrals`."""
        return self.integrals(np.asarray(fn(self.kept), dtype=float)[None])[0][0][:4]


def _estimates(panels: np.ndarray, start):
    """Each unit's estimate and tail from panel sums (..., balls, levels, units) and starts."""
    if panels.shape[-2] < 2:
        return panels[..., 0, :], 0.0
    last, prev = panels[..., -1, :], panels[..., -2, :]
    rho = np.divide(last, prev, out=np.zeros_like(last), where=prev > 0)
    cut = 1.0 - start ** -np.log2(np.clip(rho, 1e-300, 1.0))
    tail = np.divide(last * rho * cut, 1.0 - rho, out=np.zeros_like(last), where=rho < 1.0)
    return np.add.reduce(panels, axis=-2) + tail, tail


def _draw_in_ball(space, key, count, seed):
    """The parameters of a far ball's `count` rays, from its own stream
    (seed, *key): a Gaussian (n, n) matrix per copy of the design
    _DESIGNS[n], whose QR factor turns that copy, or beyond three dimensions
    a Gaussian vector per ray, its direction."""
    rng = child_rng(seed, *key)
    n, design = space.n, _DESIGNS.get(space.n)
    return rng.standard_normal((count, n) if design is None else (count // len(design), n, n))


def _sample_near_singularity(space, singularity, key, count, seed):
    """The parameters of a near ball's `count` rays or lines, from the stream
    (seed, key): offsets (count, n - 1) into the cells of a jittered grid, or
    Gaussian vectors (count, n) for directions beyond three dimensions."""
    rng = child_rng(seed, *key)
    if singularity.kind == "point" and space.n > 3:
        return rng.standard_normal((count, space.n))
    return rng.random((count, space.n - 1))


def _jitter(u: np.ndarray) -> np.ndarray:
    """Points of a jittered grid in [0, 1)^m: u (..., count, m) offsets into
    the cells, row-major, of g^(m-1) x (count / g^(m-1)), g = floor(count^(1/m))."""
    m, count = u.shape[-1], u.shape[-2]
    g = int(count ** (1.0 / max(m, 1)) + 1e-9)
    dims = (g,) * (m - 1) + (count // g ** (m - 1),) if m else ()
    return (np.indices(dims).reshape(m, count).T + u) / dims


def _frames(space, centers, radii):
    """A (balls, n, n) with x = c + A y taking the unit region U (the unit ball;
    on heisenberg1 {|y_h|^4 + y_t^2 <= 1}, in the sphere of radius sqrt(2)) onto
    each ball: as c^-1 x = L (x - c), A = L^-1 diag(r, r, r^2/4) there."""
    A = np.zeros((len(radii), space.n, space.n))
    A[:, range(space.n), range(space.n)] = radii[:, None]
    if space.kind != "euclidean":
        A[:, 2, 2] = radii ** 2 / 4
        A[:, 2, 0], A[:, 2, 1] = -centers[:, 1] * radii / 2, centers[:, 0] * radii / 2
    return A


def _rays(space, singularity, origins, centers, A, domain, u):
    """Origins and directions (balls, rays, n) of the units' rays, and the
    measure of their parameter set per ball.  Directions u (balls, rays, n),
    a far ball's design or Gaussian about a point beyond three dimensions,
    run along A u / |u| from `origins` over the whole sphere.  Jitter
    offsets u (balls, units, n - 1) give, about a hyperplane (or in 1-d),
    lines normal to it, a ray each way from a foot on it; the feet fill the
    plane's rectangle under the ball's bounding box ∩ domain.  About a point
    o (`origins`) they give rays along A theta, theta unit in the cap that
    sees U's bounding sphere from A^-1 (o - c) (all of the sphere if that
    holds o): over the angle in 2-d and (cos phi, azimuth) about the cap's
    axis in 3-d.  The measures of directions carry |det A|."""
    n = space.n
    if u.shape[-1] < n and (singularity.kind == "hyperplane" or n == 1):
        a, offset = ((singularity.axis, singularity.offset) if singularity.kind == "hyperplane"
                     else (0, float(singularity.point[0])))
        others = [j for j in range(n) if j != a]
        half = np.abs(A).sum(axis=2)          # U lies in the cube [-1, 1]^n
        lo, hi = centers - half, centers + half
        if domain is not None:
            lo, hi = np.maximum(lo, domain.bounds[:, 0]), np.minimum(hi, domain.bounds[:, 1])
        width = np.maximum(hi - lo, 0.0)[:, others]
        feet = np.full(u.shape[:2] + (n,), offset)
        feet[..., others] = lo[:, None, others] + width[:, None] * _jitter(u)
        dirs = np.zeros(feet.shape[:2] + (2, n))
        dirs[..., 0, a], dirs[..., 1, a] = 1.0, -1.0
        return np.repeat(feet, 2, axis=1), dirs.reshape(len(feet), -1, n), np.prod(width, axis=1)
    v = np.linalg.solve(A, (centers - origins)[..., None])[..., 0]
    d = np.linalg.norm(v, axis=1)
    reach = 1.0 if space.kind == "euclidean" else math.sqrt(2.0)
    ratio = np.divide(reach, d, out=np.full(len(d), 2.0), where=d > 0)
    cos_a = np.where(ratio < 1.0, np.sqrt(1.0 - np.minimum(ratio, 1.0) ** 2), -1.0)
    axis = np.divide(v, d[:, None], out=np.eye(n)[np.zeros(len(d), dtype=int)],
                     where=d[:, None] > 0)
    if u.shape[-1] == n:
        dirs = u / np.linalg.norm(u, axis=-1, keepdims=True)
        sigma = np.full(len(d), n * euclidean(n).unit_ball_volume)
    elif n == 2:
        angle = np.arccos(cos_a)
        phi = (np.arctan2(axis[:, 1], axis[:, 0])[:, None]
               + angle[:, None] * (2.0 * _jitter(u)[..., 0] - 1.0))
        dirs, sigma = np.stack([np.cos(phi), np.sin(phi)], axis=-1), 2.0 * angle
    else:
        t = _jitter(u)
        z = 1.0 - (1.0 - cos_a)[:, None] * t[..., 0]
        rho, psi = np.sqrt(np.maximum(1.0 - z * z, 0.0)), 2.0 * math.pi * t[..., 1]
        # an orthonormal frame (e1, e2) of the plane normal to the axis
        e1 = np.cross(axis, np.where(np.abs(axis[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        e2 = np.cross(axis, e1)
        dirs = (z[..., None] * axis[:, None] + (rho * np.cos(psi))[..., None] * e1[:, None]
                + (rho * np.sin(psi))[..., None] * e2[:, None])
        sigma = 2.0 * math.pi * (1.0 - cos_a)
    dirs = (A[:, None] @ dirs[..., None])[..., 0]
    return (np.broadcast_to(origins.reshape(-1, 1, n), dirs.shape), dirs,
            sigma * np.abs(np.linalg.det(A)))


def _bisect(f, lo, hi, steps=60):
    """Where the nondecreasing function f crosses 0 in [lo, hi], elementwise."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        up = f(mid) > 0
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return 0.5 * (lo + hi)


def _chords(space, centers, A, domain, origins, dirs):
    """Chord [s1, s2] (s1 = s2 = 0 for a miss) of each ray o + s D, s >= 0,
    through the convex ball ∩ domain.  In U's coordinates, y0 + s y1, U's
    boundary is a quadratic in s, or on heisenberg1 a convex quartic, whose
    minimiser and roots come from bisection up to U's bounding sphere.  A D
    parallel to a box face is nudged by 1e-300: its slab holds all or none."""
    inv = np.linalg.inv(A)[:, None]
    y0 = (inv @ (origins - centers[:, None, :])[..., None])[..., 0]
    y1 = (inv @ dirs[..., None])[..., 0]
    if space.kind == "euclidean":
        a, b = (y1 * y1).sum(axis=-1), (y0 * y1).sum(axis=-1)
        disc = b * b - a * ((y0 * y0).sum(axis=-1) - 1.0)
        root = np.sqrt(np.maximum(disc, 0.0))
        s1, s2 = (-b - root) / a, np.where(disc >= 0, (root - b) / a, -np.inf)
    else:
        h0, h1, t0, t1 = y0[..., :2], y1[..., :2], y0[..., 2], y1[..., 2]
        p0, p1, p2 = (h0 * h0).sum(axis=-1), 2.0 * (h0 * h1).sum(axis=-1), (h1 * h1).sum(axis=-1)
        q = lambda s: (p0 + s * (p1 + s * p2)) ** 2 + (t0 + s * t1) ** 2 - 1.0
        dq = lambda s: (2.0 * (p0 + s * (p1 + s * p2)) * (p1 + 2.0 * p2 * s)
                        + 2.0 * t1 * (t0 + s * t1))
        top = (np.linalg.norm(y0, axis=-1) + math.sqrt(2.0)) / np.linalg.norm(y1, axis=-1)
        low = _bisect(dq, np.zeros_like(top), top)
        s1 = np.where(q(0.0) <= 0, 0.0, _bisect(lambda s: -q(s), np.zeros_like(top), low))
        s2 = np.where(q(low) <= 0, _bisect(q, low, top), -np.inf)
    s1 = np.maximum(s1, 0.0)
    for j, (lo, hi) in enumerate(domain.bounds if domain is not None else []):
        t = np.where(dirs[..., j] == 0, 1e-300, dirs[..., j])
        with np.errstate(divide="ignore", over="ignore"):
            a, b = (lo - origins[..., j]) / t, (hi - origins[..., j]) / t
        s1, s2 = np.maximum(s1, np.minimum(a, b)), np.minimum(s2, np.maximum(a, b))
    hit = s2 > s1
    return np.where(hit, s1, 0.0), np.where(hit, s2, 0.0)


def _ray_block(space, centers, radii, seeds, tags, budget, domain, singularity):
    """The ray nodes of gather_ball_samples for a block of balls near the
    singular locus, or far from it (singularity None), a level's ray after
    ray: the nodes, their levels, cells and (fine, coarse) weights, the node
    and unit counts per ball, and the units' starts (1 for a far one)."""
    far = singularity is None
    lines = not far and (singularity.kind == "hyperplane" or space.n == 1)
    # budget / (nodes per unit) units, at least _MIN_UNITS, in a whole `_jitter` grid
    m = space.n - 1
    target = max(budget / ((1 + lines) * _PANELS * len(_NODES)), _MIN_UNITS)
    g = int(target ** (1.0 / max(m, 1)) + 1e-9)
    units = (1 if m == 0 else int(target) if space.n > 3 and not lines
             else g ** (m - 1) * int(target / g ** (m - 1)))
    A = _frames(space, centers, radii)
    if far:
        # as many rays as a near ball's in whole copies of the design (at least
        # two; one in 1-d, where it is the whole sphere), from each centre, or
        # from the box's point nearest to it if it is outside
        design = _DESIGNS.get(space.n)
        share = 1 if design is None else len(design)
        units = max(units // share, 2 if m else 1)
        u = np.stack([_draw_in_ball(space, (t, "pool"), units * share, s)
                      for s, t in zip(seeds, tags)])
        if design is not None:      # uniformly random orthogonal maps (QR, R's signs fixed)
            q, r = np.linalg.qr(u)
            q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
            u = (design @ q.swapaxes(-1, -2)).reshape(len(u), -1, space.n)
        origins = centers if domain is None else np.clip(centers, *domain.bounds.T)
        levels = 1
    else:
        u = np.stack([_sample_near_singularity(space, singularity, (t, "rays"), units, s)
                      for s, t in zip(seeds, tags)])
        origins, levels, share = singularity.point, _PANELS, 1 + lines
    origins, dirs, sigma = _rays(space, singularity, origins, centers, A, domain, u)
    s1, s2 = _chords(space, centers, A, domain, origins, dirs)
    # panels (balls, levels, rays): near, dyadic in s below s2 and cut at s1,
    # empty ones dropping out; far, the one panel [s1, s2].  A near ray's
    # start is s1 over the deepest panel's lower edge.
    edges = s2[:, None, :] * (0.0 if far else 0.5) ** np.arange(levels + 1)[:, None]
    start = np.minimum(np.divide(s1, edges[:, -1], out=np.ones_like(s1),
                                 where=edges[:, -1] > 0), 1.0)
    lo, hi = np.maximum(edges[:, 1:], s1[:, None]), np.maximum(edges[:, :-1], s1[:, None])
    s = 0.5 * (hi + lo)[..., None] + 0.5 * (hi - lo)[..., None] * _NODES
    keep = np.broadcast_to((hi > lo)[..., None], s.shape)
    nodes = origins[:, None, :, None, :] + s[..., None] * dirs[:, None, :, None, :]
    sigma = sigma / share if far else sigma         # a far unit's rays share its measure
    jac = (sigma[:, None, None, None] * 0.5 * (hi - lo)[..., None] * s ** (0 if lines else m))
    _, level, ray, rule = np.nonzero(keep)
    count = np.count_nonzero(keep.reshape(len(radii), -1), axis=1)
    start = start.reshape(len(radii), units, -1).min(axis=2).ravel()
    # the (2, nodes) weights C-ordered, as `take` leaves them (a[:, idx] would not)
    return (nodes[keep], level, level * units + ray // share,
            jac[keep] * _RULES.take(rule, axis=1), count, np.full(len(radii), units), start)


def gather_ball_samples(
    space: MetricSpace,
    ball,
    budget: int,
    seed,
    domain: Box | None = None,
    singularity: Singularity | None = None,
    tag="avg",
) -> BallSamples:
    """Quadrature nodes of ball ∩ domain.  `ball` is one Ball, drawn from the
    PCG64DXSM stream keyed by (seed, tag, "pool") when far and (seed, tag,
    "rays") when near (`child_rng`), or a block: balls with one seed and one
    tag each, each drawn exactly as a block of one.  Each unit is a ray or a
    line (`_rays`); the chord [s1, s2] of ray o + s D through ball ∩ domain
    carries w(o + s D) s^(k-1) (k = n, or 1 along a line) by the
    Clenshaw-Curtis 5-point rule on panels.  Far from the locus (d(center) >
    1.5 r, or no locus) a unit is a turned copy of a spherical design of rays
    from the centre (from the box's point nearest to it if it is outside),
    each on one panel [s1, s2], in all about as many rays as a near ball's.
    Near it a unit is a ray from the singular point or a line normal to the
    singular hyperplane, on the dyadic panels [s2 2^-(j+1), s2 2^-j], j <
    _PANELS, about budget / (5 _PANELS) nodes per ray.  A near ball none of
    whose rays meets ball ∩ domain is drawn as a far one."""
    if budget < 16:
        raise ValueError("budget must be >= 16")
    if isinstance(ball, Ball):
        ball, seed, tag = [ball], [seed], [tag]
    centers = np.array([b.center for b in ball])
    radii = np.array([b.radius for b in ball], dtype=float)
    near = (np.zeros(len(ball), dtype=bool) if singularity is None
            else singularity.distance(space, centers) <= 1.5 * radii)
    units, cols, start = np.empty(len(ball), dtype=int), [], np.zeros(0)
    for is_near in (True, False):
        group = np.flatnonzero(near == is_near)
        if len(group):
            *part, count, units[group], starts = _ray_block(
                space, centers[group], radii[group], [seed[i] for i in group],
                [tag[i] for i in group], budget, domain, singularity if is_near else None)
            if is_near:
                near[group[count == 0]] = False
                start = starts.reshape(len(group), -1)[count > 0].ravel()
            cols.append((np.repeat(group, count), *part))
    levels = np.where(near, _PANELS, 1)
    first = np.concatenate([[0], np.cumsum(levels)])
    # the nodes in segment order, and their cells
    ball_of, kept, level, cell = (np.concatenate(c) for c in list(zip(*cols))[:4])
    weights = np.concatenate([c[4] for c in cols], axis=1)
    keys = first[ball_of] + level
    bins = (np.cumsum(levels * units) - levels * units)[ball_of] + cell
    if len(cols) > 1:       # a block with both far and near balls
        order = np.argsort(keys, kind="stable")
        kept, weights, bins = kept[order], weights.take(order, axis=1), bins[order]
    return BallSamples(list(ball), kept,
                       np.concatenate([[0], np.cumsum(np.bincount(keys, minlength=first[-1]))]),
                       first, weights, bins, units, start)


@dataclass(frozen=True)
class BallAverage:
    """Ball average with refinement diagnostics."""

    value: float
    stderr: float
    diverging: bool
    ring_contributions: np.ndarray  # per-level shares of the mass (see _rings_diverge)


def _average(mass, se, contrib, vrange, vol) -> BallAverage:
    """A ball's average of a function from its integrals (`BallSamples.integrals`)."""
    if vol <= 0:
        raise ValueError("ball does not intersect the domain")
    vmin, vmax = vrange
    if math.isfinite(vmin) and vmin == vmax:
        # constant on the nodes: the average is that constant, exactly
        return BallAverage(vmin, 0.0, False, contrib)
    return BallAverage(mass / vol, se / vol, _rings_diverge(contrib), contrib)


def _powers(vals: np.ndarray, exponent: float) -> np.ndarray:
    """vals ** exponent, bitwise what Weight.pow(exponent) evaluates: the
    same array power, which for some inputs differs in the last bit from a
    scalar (libm) power, so scalar powers elsewhere stay scalar."""
    if exponent == 1.0:
        return vals
    with np.errstate(divide="ignore", over="ignore"):
        return vals ** exponent


def _ball_integrals(rows, space, balls, budget, seeds, tags, domain, singularity):
    """`BallSamples.integrals` over each ball (seeds[i], tags[i] for balls[i])
    of the stack rows(nodes) (functions, nodes), one list per function, one
    pass per block of _BLOCK balls."""
    blocks = []
    for k in range(0, len(balls), _BLOCK):
        blk = slice(k, k + _BLOCK)
        samples = gather_ball_samples(space, balls[blk], budget, seeds[blk], domain, singularity,
                                      tags[blk])
        blocks.append(samples.integrals(rows(samples.kept)))
    return [[t for block in row for t in block] for row in zip(*blocks)]


def _ball_averages(weight, exponents, space, balls, budget, seeds, tags, domain):
    """Averages of weight**e over each ball, one list of BallAverage per
    exponent e (1 is the weight itself).  The weight is evaluated once per
    node, and its powers come from those values."""

    def rows(pts):
        vals = weight(pts)
        return np.stack([_powers(vals, e) for e in exponents])

    return [[_average(*t) for t in row] for row in
            _ball_integrals(rows, space, balls, budget, seeds, tags, domain, weight.singularity)]


def _grows_geometrically(seq: np.ndarray) -> bool:
    if len(seq) < _DIVERGE_LEVELS + 1:
        return False
    tail = seq[-(_DIVERGE_LEVELS + 1):]
    return bool(np.all(tail[1:] >= _DIVERGE_FACTOR * tail[:-1]))


def _rings_diverge(contrib: np.ndarray) -> bool:
    # contrib: a far ball's one level, or a near ball's panel levels, outermost
    # first, then its tail; the levels between, over those that received mass.
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
    """Average of the weight over ball ∩ domain, integrated along rays
    (`gather_ball_samples`): from the ball's centre when it is far from the
    weight's declared singular set, and over dyadic panels toward that set
    when it comes near it, so that non-integrable weights produce a visibly
    diverging refinement profile."""
    ((avg,),) = _ball_averages(weight, (1.0,), space, [ball], budget, [seed], ["avg"], domain)
    return avg


# --- estimate traces / reports ----------------------------------------------

@dataclass(frozen=True)
class EstimateTrace:
    """Estimate with its stages: the running supremum over the first 1/8,
    1/4, 1/2 and all of a family evaluated at the full budget (`_prefix_sup`)."""

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


def _check_family(count: int) -> None:
    if count < 8:
        raise ValueError(f"the stage plan needs a family of >= 8 balls or points, got {count}")


def _prefix_sup(ratios, any_diverging: bool) -> EstimateTrace:
    """The trace of the supremum of a family's ratios, each evaluated once at
    the full budget: stage s is the maximum over the first count >> (3 - s)
    items (at least one), so the stages show the sup growing with the family."""
    ratios = np.asarray(ratios, dtype=float)
    return _trace([np.max(ratios[:max(len(ratios) >> (3 - s), 1)]) for s in range(4)],
                  any_diverging)


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


def _ratio_report(weight, exponents, ratio, tag, space, domain, window, centers, radii, budget,
                  seed, **fields) -> WeightReport:
    """The `tag` estimate: `_prefix_sup` of ratio(avg w^e0, avg w^e1), (e0,
    e1) = `exponents`, over the balls (centers, radii), ball i sampled under
    (tag, i, 3); `fields` fill the rest of the report."""
    n = len(centers)
    _check_family(n)
    # index 3 keys the full-budget stage of when stages re-sampled: reported values keep their bits
    aw, ae = _ball_averages(weight, exponents, space, [Ball(c, r) for c, r in zip(centers, radii)],
                            budget, [seed] * n, [(tag, i, 3) for i in range(n)], domain)
    vals = [ratio(a.value, e.value) for a, e in zip(aw, ae)]
    trace = _prefix_sup(vals, any(a.diverging or e.diverging for a, e in zip(aw, ae)))
    return WeightReport(
        weight=weight.name, ball_count=n, budget=budget,
        window=(float(window[0]), float(window[1])), seed=seed,
        worst_cases=_worst_cases(centers, radii, vals), **{f"{tag}_estimate": trace}, **fields)


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
    64 evenly spaced balls of the family.
    """
    if not p > 1:
        raise ValueError("A_p requires p > 1")
    pprime = p / (p - 1.0)
    centers, radii = _ball_family(domain, window, balls, seed)
    report = _ratio_report(weight, (1.0, 1.0 - pprime), lambda w, d: w * d ** (p - 1.0), "ap",
                           space, domain, window, centers, radii, budget, seed, p=p)
    # doubling ratio on a subsample of the family: the balls B and 2B of each
    # subsampled center, one after the other
    sub = np.linspace(0, balls - 1, num=min(64, balls), dtype=int).tolist()
    pairs = [Ball(centers[i], k * radii[i]) for i in sub for k in (1.0, 2.0)]
    tags = [("dbl", i, j) for i in sub for j in (1, 2)]
    (masses,) = _ball_integrals(lambda pts: weight(pts)[None], space, pairs, budget,
                                [seed] * len(pairs), tags, domain, weight.singularity)
    report.doubling_estimate = max([m2 / m1 for (m1, *_), (m2, *_)
                                    in zip(masses[0::2], masses[1::2]) if m1 > 0], default=0.0)
    return report


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
    return _ratio_report(weight, (1.0, t), lambda w, wt: wt ** (1.0 / t) / w, "rh", space, domain,
                         window, *_ball_family(domain, window, balls, seed), budget, seed, t=t)


@dataclass(frozen=True)
class MaximalValue:
    """Discretized maximal-function value at a point.

    `shell_diverging` means some single ball average diverged over its
    panel levels (the weight is not locally integrable there); `shrink_diverging`
    means the averages grow monotonically by >= 10% per level over the 4
    smallest-radius refinements (the point sits on the weight's singular
    locus).  Either one certifies Mw(x) = +infinity.
    """

    value: float
    shell_diverging: bool
    shrink_diverging: bool

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
    (avgs,) = _ball_averages(weight, (1.0,), space, balls, budget,
                             [sd for sd in seeds for _ in radii],
                             [("max", j) for _ in seeds for j in range(len(radii))], domain)
    out = []
    for k in range(0, len(avgs), len(radii)):
        row = avgs[k:k + len(radii)]
        values = np.array([a.value for a in row])
        out.append(MaximalValue(
            value=float(np.max(values)),
            shell_diverging=any(a.diverging for a in row),
            shrink_diverging=_grows_geometrically(values),
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
    _check_family(points)
    rng = child_rng(seed, "a1-points")
    xs = domain.sample(points, rng)
    lo, hi = window
    radius_set = np.exp(np.linspace(math.log(hi), math.log(lo), radii))
    # index 3 as in `_ratio_report`
    mvs = _maximal_values(weight, space, xs, radius_set, budget,
                          [subseed(seed, ("a1", i, 3)) for i in range(points)], domain)
    vals = [mv.value / w for mv, w in zip(mvs, weight(xs).tolist())]
    # Only panel-level divergence (non-integrability) counts as global
    # unboundedness evidence: a probe accidentally on the singular locus
    # sees growing averages but is a measure-zero event for the esssup.
    trace = _prefix_sup(vals, any(mv.shell_diverging for mv in mvs))
    return WeightReport(
        weight=weight.name, a1_estimate=trace,
        ball_count=points, budget=budget, window=(float(window[0]), float(window[1])),
        seed=seed, worst_cases=_worst_cases(xs, None, vals),
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
        return asdict(self)


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
    over sampled nested pairs B1 ⊆ B2 inside the domain; the stages are
    `_prefix_sup`'s over the pairs."""
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
    viol = 0

    def rows(pts):
        nonlocal viol
        wp, vp = w(pts), v(pts)
        viol += int(np.count_nonzero(wp > vp * (1 + 1e-12)))
        return np.stack([wp, vp])

    iw, iv = _ball_integrals(rows, space, nested, budget, [seed] * len(nested), tags, None,
                             w.singularity or v.singularity)
    any_div = any(_rings_diverge(c) for ints in (iw, iv) for _, _, c, _, _ in ints)
    mw, mv = ([m for m, *_ in ints] for ints in (iw, iv))
    ratios = np.array([(r1[i] / r2[i]) * (mv[2 * i] / mv[2 * i + 1]) ** (1.0 / q)
                       / (mw[2 * i] / mw[2 * i + 1]) ** (1.0 / p) for i in range(pairs)])
    trace = _prefix_sup(ratios, any_div)
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
    ((v_mass, *_),), ((w_mass, *_),) = _ball_integrals(
        lambda pts: np.stack([v(pts), w(pts)]), space, [ball], budget, [seed], ["mu"], domain,
        w.singularity or v.singularity)
    return (v_mass / w_mass) ** (1.0 / p)
