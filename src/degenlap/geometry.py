"""Metric-space backends: Euclidean space and the first Heisenberg group.

Both backends expose the same small surface: a metric, exactly homogeneous
ball volumes |B(x,r)| = c0 * r**Q, and uniform (Lebesgue) sampling of metric
balls.

The Heisenberg backend uses the Koranyi-Cygan gauge

    ||(a, b, t)|| = ((a^2 + b^2)^2 + 16 t^2)**(1/4)

with the group law (a,b,t)*(a',b',t') = (a+a', b+b', t+t'+(ab'-ba')/2).
The gauge is a true metric, 1-homogeneous under the dilations
delta_r(a,b,t) = (ra, rb, r^2 t), which makes gauge balls exactly
homogeneous of degree Q = 4.  Polar reduction in (a, b) gives the unit
gauge ball volume c0 = pi * int_0^1 r sqrt(1 - r^4) dr = pi^2 / 8 (Folland &
Stein, Hardy Spaces on Homogeneous Groups, 1982).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rand import child_rng

__all__ = [
    "MetricSpace",
    "Ball",
    "Box",
    "euclidean",
    "heisenberg1",
    "metric_distance",
    "ball_volume",
    "sample_ball",
    "heisenberg_multiply",
    "heisenberg_inverse",
    "heisenberg_dilate",
    "gauge_norm",
]

class DimensionMismatchError(ValueError):
    """Point dimension does not match the space."""


@dataclass(frozen=True)
class MetricSpace:
    """Geometry backend: topological dimension n, homogeneous dimension Q.

    `unit_ball_volume` is the exact constant c0 in |B(x,r)| = c0 * r**Q:
    the Euclidean unit-ball volume, or pi^2 / 8 for the Heisenberg gauge ball.
    """

    kind: str
    n: int
    Q: int
    unit_ball_volume: float

    def __post_init__(self):
        if self.Q < self.n:
            raise ValueError("homogeneous dimension must satisfy Q >= n")

    @property
    def m(self) -> int:
        """Number of horizontal directions (gradient components)."""
        return 2 if self.kind == "heisenberg1" else self.n


@dataclass(frozen=True)
class Ball:
    """Metric ball with positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.radius > 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, used as sampling domain for weight estimation."""

    bounds: np.ndarray  # shape (n, 2)

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.bounds, dtype=float))
        if b.shape[1] != 2 or np.any(b[:, 1] <= b[:, 0]):
            raise ValueError("box bounds must be (n, 2) with lo < hi")
        object.__setattr__(self, "bounds", b)

    @property
    def n(self) -> int:
        return self.bounds.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        return self.bounds[:, 1] - self.bounds[:, 0]

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.lengths))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Membership of points (..., n), with one entry per point."""
        pts = np.atleast_2d(pts)
        inside = np.ones(pts.shape[:-1], dtype=bool)
        # axis by axis: numpy broadcasts slowly over a last axis this short
        for j, (lo, hi) in enumerate(self.bounds):
            inside &= (pts[..., j] >= lo) & (pts[..., j] <= hi)
        return inside

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random((count, self.n))
        return self.bounds[:, 0] + u * self.lengths


def euclidean(n: int) -> MetricSpace:
    if n < 1:
        raise ValueError("dimension must be >= 1")
    # unit-ball volume by V_k = (2 pi / k) V_{k-2}, from V_0 = 1 or V_1 = 2
    c0 = 2.0 if n % 2 else 1.0
    for k in range(2 + n % 2, n + 1, 2):
        c0 *= 2.0 * math.pi / k
    return MetricSpace(kind="euclidean", n=n, Q=n, unit_ball_volume=c0)


def heisenberg1() -> MetricSpace:
    return MetricSpace(kind="heisenberg1", n=3, Q=4, unit_ball_volume=math.pi ** 2 / 8)


# --- Heisenberg group operations -------------------------------------------

def heisenberg_multiply(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = u + v
    out[..., 2] += 0.5 * (u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    return out


def heisenberg_inverse(u: np.ndarray) -> np.ndarray:
    return -np.asarray(u, dtype=float)


def heisenberg_dilate(u: np.ndarray, r) -> np.ndarray:
    """delta_r(u); r is a scalar or an array over the leading axes of u."""
    out = np.array(u, dtype=float)
    r = np.asarray(r, dtype=float)[..., None]
    out[..., :2] *= r
    out[..., 2:] *= r * r
    return out


def gauge_norm(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    sq = u[..., 0] ** 2 + u[..., 1] ** 2
    return (sq * sq + 16.0 * u[..., 2] ** 2) ** 0.25


# --- metric / volume / sampling --------------------------------------------

def metric_distance(space: MetricSpace, x: np.ndarray, y: np.ndarray) -> np.ndarray | float:
    """Metric distance; broadcasts over leading axes of point arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != space.n or y.shape[-1] != space.n:
        raise DimensionMismatchError(
            f"points must have dimension {space.n}, got {x.shape[-1]} and {y.shape[-1]}"
        )
    if space.kind == "euclidean":
        d = np.linalg.norm(x - y, axis=-1)
    else:
        d = gauge_norm(heisenberg_multiply(heisenberg_inverse(y), x))
    return float(d) if d.ndim == 0 else d


def ball_volume(space: MetricSpace, ball: Ball) -> float:
    return space.unit_ball_volume * ball.radius ** space.Q


def _chunk(space: MetricSpace, count: int) -> int:
    """Candidate rows to draw for `count` unit-ball points: 15 % above the
    expected need, plus 16, so that a second pass is rare."""
    box = 2.0 ** space.n if space.kind == "euclidean" else 2.0
    return math.ceil(1.15 * count * box / space.unit_ball_volume) + 16


def _sample_unit_ball(space: MetricSpace, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points in the unit ball centered at the origin, by rejection
    from the bounding box: the first `count` rows of rng.random((rows, n))
    that lie in the ball, in stream order, however they are chunked."""
    if space.kind == "euclidean":
        box = [(-1.0, 2.0)] * space.n       # (lower corner, side) per axis
        accept = lambda p: np.einsum("ij,ij->i", p, p) <= 1.0
    else:
        box = [(-1.0, 2.0), (-1.0, 2.0), (-0.25, 0.5)]
        accept = lambda p: gauge_norm(p) <= 1.0
    out = np.empty((count, space.n))
    got = 0
    while got < count:
        cand = rng.random((_chunk(space, count - got), space.n))
        # lower + u * side, column by column: numpy broadcasts slowly over a
        # last axis this short
        for col, (lower, side) in zip(cand.T, box):
            col *= side
            col += lower
        keep = np.compress(accept(cand), cand, axis=0)
        take = min(len(keep), count - got)
        out[got : got + take] = keep[:take]
        got += take
    return out


def sample_ball(space: MetricSpace, ball: Ball, count: int, seed: int) -> np.ndarray:
    """`count` points uniform w.r.t. Lebesgue measure in the metric ball,
    deterministic given the seed: unit-ball points scaled and translated, or
    on heisenberg1 dilated by delta_r and left-translated, both of which
    preserve Lebesgue measure up to the exact factor r**Q."""
    if count < 1:
        raise ValueError("count must be >= 1")
    pts = _sample_unit_ball(space, count, child_rng(seed, "ball", space.kind))
    if space.kind != "euclidean":
        return heisenberg_multiply(ball.center, heisenberg_dilate(pts, ball.radius))
    return ball.radius * pts + ball.center
