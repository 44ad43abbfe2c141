import math

import numpy as np
import pytest

from degenlap._rand import child_rng
from degenlap.geometry import (
    Ball,
    Box,
    DimensionMismatchError,
    _chunk,
    ball_volume,
    euclidean,
    gauge_norm,
    heisenberg1,
    heisenberg_dilate,
    metric_distance,
    sample_ball,
)

from oracles import unit_ball_rejection

GAUGE_UNIT_BALL_VOLUME = math.pi ** 2 / 8  # polar reduction of the gauge ball


def test_metric_examples(e2, heis):
    assert metric_distance(e2, [0.0, 0.0], [3.0, 4.0]) == 5.0
    assert metric_distance(heis, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]) == 2.0
    assert metric_distance(heis, [0.3, -1.0, 2.0], [0.3, -1.0, 2.0]) == 0.0


def test_metric_dimension_mismatch(e2):
    with pytest.raises(DimensionMismatchError):
        metric_distance(e2, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


@pytest.mark.parametrize("kind", ["euclidean", "heisenberg1"])
def test_metric_axioms_sampled(kind, e3, heis):
    space = e3 if kind == "euclidean" else heis
    rng = child_rng(11, "axioms", kind)
    x, y, z = (rng.uniform(-3, 3, (100_000, 3)) for _ in range(3))
    dxy = metric_distance(space, x, y)
    dyx = metric_distance(space, y, x)
    assert np.abs(dxy - dyx).max() <= 1e-12 * np.maximum(dxy, 1.0).max()
    assert dxy.min() >= 0.0
    assert np.all(metric_distance(space, x, x) == 0.0)
    dxz = metric_distance(space, x, z)
    dyz = metric_distance(space, y, z)
    assert np.all(dxz <= dxy + dyz + 1e-12 * np.maximum(dxz, 1.0))


def test_identity_of_indiscernibles(heis):
    rng = child_rng(3, "id")
    x = rng.uniform(-2, 2, (1000, 3))
    y = x + 1e-8
    assert np.all(metric_distance(heis, x, y) > 0.0)


def test_heisenberg_dilation_homogeneity(heis):
    rng = child_rng(5, "dila")
    x = rng.uniform(-2, 2, (50_000, 3))
    y = rng.uniform(-2, 2, (50_000, 3))
    for r in (0.3, 1.7, 4.0):
        lhs = metric_distance(heis, heisenberg_dilate(x, r), heisenberg_dilate(y, r))
        rhs = r * metric_distance(heis, x, y)
        assert np.abs(lhs - rhs).max() <= 1e-12 * rhs.max()


def test_ball_volume_euclidean(e2, e3):
    assert ball_volume(e2, Ball([0.0, 0.0], 1.0)) == pytest.approx(math.pi, rel=1e-14)
    assert ball_volume(e3, Ball([1.0, 2.0, 3.0], 2.0)) == pytest.approx(
        4.0 / 3.0 * math.pi * 8.0, rel=1e-14)
    pi = math.pi
    closed = {1: 2.0, 2: pi, 3: 4.0 * pi / 3.0, 4: pi ** 2 / 2.0,
              5: 8.0 * pi ** 2 / 15.0, 6: pi ** 3 / 6.0}
    for n, c0 in closed.items():
        assert euclidean(n).unit_ball_volume == pytest.approx(c0, rel=1e-15)
    assert euclidean(1).unit_ball_volume == 2.0
    assert euclidean(3).unit_ball_volume == 4.0 * pi / 3.0  # correctly rounded


def test_ball_volume_homogeneity(e3, heis):
    for space in (e3, heis):
        v1 = ball_volume(space, Ball(np.zeros(3), 0.7))
        for lam in (2.0, 3.0, 0.5):
            v2 = ball_volume(space, Ball(np.zeros(3), 0.7 * lam))
            assert v2 == pytest.approx(lam ** space.Q * v1, rel=1e-14)


def test_heisenberg_volume_ratio(heis):
    v2 = ball_volume(heis, Ball(np.zeros(3), 2.0))
    v1 = ball_volume(heis, Ball(np.zeros(3), 1.0))
    assert v2 / v1 == pytest.approx(16.0, rel=1e-14)


def test_heisenberg_c0_monte_carlo_stability():
    assert heisenberg1().unit_ball_volume == GAUGE_UNIT_BALL_VOLUME
    # independent check of the closed form against the gauge as defined:
    # hit rate in the bounding box [-1,1]^2 x [-1/4,1/4] (volume 2)
    pts = child_rng(101, "c0-check").uniform(-1.0, 1.0, (1_000_000, 3))
    pts[:, 2] *= 0.25
    volume = 2.0 * np.count_nonzero(gauge_norm(pts) <= 1.0) / len(pts)
    assert volume == pytest.approx(GAUGE_UNIT_BALL_VOLUME, rel=1e-2)


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball([0.0], 0.0)


def test_sample_ball_containment(e1, e2, heis):
    for space, center, r in (
        (e1, [0.0], 1.0),
        (e2, [0.5, -0.25], 0.75),
        (heis, [0.5, -0.2, 0.1], 0.3),
    ):
        pts = sample_ball(space, Ball(center, r), 2000, seed=7)
        d = metric_distance(space, pts, np.broadcast_to(center, pts.shape))
        assert np.all(d < r)


def test_sample_ball_small_count(e1):
    pts = sample_ball(e1, Ball([0.0], 1.0), 4, seed=7)
    assert pts.shape == (4, 1)
    assert np.all(np.abs(pts) < 1.0)


def test_sample_ball_deterministic(e2):
    a = sample_ball(e2, Ball([0.0, 0.0], 1.0), 512, seed=5)
    b = sample_ball(e2, Ball([0.0, 0.0], 1.0), 512, seed=5)
    c = sample_ball(e2, Ball([0.0, 0.0], 1.0), 512, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("count", [16, 2048])
@pytest.mark.parametrize("space", [euclidean(1), euclidean(2), euclidean(3), euclidean(4),
                                   heisenberg1()], ids=["r1", "r2", "r3", "r4", "heis"])
def test_sample_ball_draws_are_the_first_accepted_candidates(space, count):
    # The points are the first `count` accepted candidate rows of the stream
    # (seed, "ball", kind), in stream order, however they are chunked.  On
    # the unit ball about 0 the map onto the ball is exact.  In 4-d, seed 0's
    # first chunk of candidates holds fewer than 16 points, so the sampler
    # continues its stream.
    drawn = []
    for seed in (0, 5, 77):
        got = sample_ball(space, Ball(np.zeros(space.n), 1.0), count, seed)
        want, rows = unit_ball_rejection(space.kind, space.n, count,
                                         child_rng(seed, "ball", space.kind))
        assert np.array_equal(got, want)
        drawn.append(rows)
    if space.n == 4 and count == 16:
        assert drawn[0] > _chunk(space, count)


def test_sample_ball_mean_near_center(e2, heis):
    # symmetric balls: empirical mean within 3 standard errors of the center
    n = 20_000
    for space, center in ((e2, np.array([0.3, -0.4])), (heis, np.array([0.0, 0.0, 0.0]))):
        pts = sample_ball(space, Ball(center, 1.0), n, seed=13)
        se = pts.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(pts.mean(axis=0) - center) <= 3.0 * se + 1e-12)


def test_box_helpers():
    box = Box([[-1.0, 1.0], [0.0, 2.0]])
    assert box.n == 2
    assert box.diameter == pytest.approx(math.sqrt(8.0))
    assert list(box.contains(np.array([[0.0, 1.0], [3.0, 1.0]]))) == [True, False]
    rng = child_rng(0, "box")
    pts = box.sample(100, rng)
    assert box.contains(pts).all()
