import math

import numpy as np
import pytest

from degenlap._rand import child_rng, subseed
from degenlap.geometry import (Ball, Box, ball_volume, euclidean, heisenberg1,
                               metric_distance, sample_ball)
from degenlap.weights import (
    OutOfRegimeError,
    SingularSampleError,
    Singularity,
    Weight,
    a1_constant,
    ap_constant,
    axis_power_weight,
    balance_check,
    ball_average,
    constant_weight,
    gather_ball_samples,
    log_weight,
    maximal_function,
    mu_p,
    power_weight,
    rh_constant,
    tau_exponent,
    _PANELS,
    _powers,
)

from oracles import (
    ap_constant_power_1d,
    centered_ap_power_2d,
    cut_ball_average,
    gauge_ball_average,
    radial_ball_average,
    radial_ball_average_2d,
    slice_ball_average,
)

BOX1 = Box([[-1.0, 1.0]])
BOX2 = Box([[-1.0, 1.0], [-1.0, 1.0]])


# --- ball averages -------------------------------------------------------------

def test_ball_average_constant_exact(e1):
    w = constant_weight(5.0)
    for budget in (16, 64, 4096):
        a = ball_average(w, e1, Ball([0.2], 0.5), budget=budget, seed=1)
        assert a.value == 5.0
        assert a.stderr == 0.0
        assert not a.diverging
    samples = gather_ball_samples(e1, Ball([0.2], 0.5), 64, 1)
    assert samples.mass(w)[3] == (5.0, 5.0)


def test_ball_average_sqrt_1d(e1):
    # closed-form oracle: mean of |x|^{1/2} over (-1, 1) is 2/3
    w = power_weight(0.5, 1)
    a = ball_average(w, e1, Ball([0.0], 1.0), budget=8192, seed=2)
    assert abs(a.value - 2.0 / 3.0) <= 3.0 * a.stderr
    assert not a.diverging
    # the value range covers every sample of a stratum with positive volume
    samples = gather_ball_samples(e1, Ball([0.0], 1.0), 8192, 2, None, w.singularity)
    vmin, vmax = samples.mass(w)[3]
    vals = np.concatenate([w(pts) for pts, vol in zip(samples.points, samples.volumes)
                           if len(pts) and vol > 0])
    assert (vmin, vmax) == (vals.min(), vals.max())
    assert 0.0 <= vmin < vmax <= 1.0


def test_ball_average_singular_2d(e2):
    # polar oracle: mean of |x|^{-1/3} over the unit disc is 6/5
    w = power_weight(-1.0 / 3.0, 2)
    a = ball_average(w, e2, Ball([0.0, 0.0], 1.0), budget=8192, seed=3)
    expected = radial_ball_average_2d(-1.0 / 3.0, 1.0)
    assert expected == pytest.approx(1.2)
    assert abs(a.value - expected) <= 3.0 * a.stderr
    assert not a.diverging


def test_ball_average_nonintegrable_diverges(e2):
    w = power_weight(-3.0, 2)
    a = ball_average(w, e2, Ball([0.1, 0.0], 0.5), budget=4096, seed=4)
    assert a.diverging
    rings = a.ring_contributions[1:-1]
    rings = rings[rings > 0]
    assert np.all(np.diff(rings[-5:]) > 0)


def test_ball_average_singular_sample_error(e1):
    w = Weight("bad", lambda pts: np.full(len(pts), np.inf))
    with pytest.raises(SingularSampleError):
        ball_average(w, e1, Ball([0.0], 1.0), budget=64, seed=0)


def test_ball_average_budget_validation(e1):
    with pytest.raises(ValueError):
        ball_average(constant_weight(1.0), e1, Ball([0.0], 1.0), budget=8, seed=0)


@pytest.mark.parametrize("weight", [
    power_weight(-1.0 / 3.0, 3), power_weight(0.5, 3), axis_power_weight(-0.5),
    axis_power_weight(0.25), log_weight(1.1, 3), log_weight(1.0, 3), constant_weight(2.0),
], ids=lambda w: w.name)
def test_pow_is_the_power_of_the_values(weight):
    # The estimators evaluate a weight once per sample and take w.pow(e) as
    # w(x) ** e from those values; that is bitwise what w.pow(e) computes,
    # on the singular set too (origin, the plane x1 = 0, |x| = 1/e).
    rng = np.random.default_rng(7)
    pts = np.vstack([np.zeros(3), [0.0, 0.3, -0.2], [0.0, 0.0, 0.5], [math.exp(-1.0), 0.0, 0.0],
                     rng.standard_normal((200, 3)) * np.geomspace(1e-9, 1.0, 200)[:, None]])
    vals = weight(pts)
    for e in (-2.0, -1.0, -0.5, 1.0 - 2.5 / 1.5, 1.0 / 3.0, 1.0, 2.0, 3.0):
        assert np.array_equal(weight.pow(e)(pts), _powers(vals, e))
        with np.errstate(divide="ignore", over="ignore"):
            assert np.array_equal(weight.pow(e)(pts), vals ** e)


# --- ray quadrature ------------------------------------------------------------

# Near-singular balls that cross the domain edge, on both backends, so that
# clipped chords and every panel level are exercised.
SAMPLER_CASES = {
    "point-r2": (euclidean(2), Ball([0.35, 0.6], 0.75), 512, 3, BOX2,
                 Singularity("point", point=[0.0, 0.0])),
    "hyperplane-r2": (euclidean(2), Ball([0.2, 0.3], 0.4), 512, 5, BOX2,
                      Singularity("hyperplane", axis=0, offset=0.0)),
    "point-heis": (heisenberg1(), Ball([0.3, 0.1, 0.05], 0.55), 512, 7,
                   Box([[-0.5, 0.5], [-1.0, 1.0], [-1.0, 1.0]]),
                   Singularity("point", point=[0.0, 0.0, 0.0])),
}

# Bit-exact output of gather_ball_samples on SAMPLER_CASES: per-level node
# counts, volumes, sums of the fine and the coarse weights, and coordinate
# sums.  A change to the draws, the chords, the panels or the weights shows
# here.
SAMPLER_DIGEST = {
    "point-r2": {
        "counts": [85, 85, 85, 85, 85, 85],
        "volumes": [
            1.0391101189529572, 0.2597775297382393, 0.06494438243455983,
            0.016236095608639957, 0.004059023902159989, 0.0010147559755399973,
        ],
        "weights": [
            [17.664872022200278, 17.664872022200274],
            [4.4162180055500695, 4.416218005550069],
            [1.1040545013875174, 1.1040545013875172],
            [0.27601362534687934, 0.2760136253468793],
            [0.06900340633671984, 0.06900340633671982],
            [0.01725085158417996, 0.017250851584179955],
        ],
        "sums": [
            [9.780769913543008, 17.067442688292044],
            [4.890384956771504, 8.533721344146022],
            [2.445192478385752, 4.266860672073011],
            [1.222596239192876, 2.1334303360365054],
            [0.611298119596438, 1.0667151680182527],
            [0.305649059798219, 0.5333575840091264],
        ],
    },
    "hyperplane-r2": {
        "counts": [85, 85, 85, 85, 85, 80],
        "volumes": [
            0.25674706364524325, 0.12837353182262162, 0.06418676591131081,
            0.032093382955655406, 0.015322557838227176, 0.007495596922005441,
        ],
        "weights": [
            [2.3107235728071895, 2.310723572807189],
            [1.1553617864035948, 1.1553617864035945],
            [0.5776808932017974, 0.5776808932017973],
            [0.2888404466008987, 0.28884044660089864],
            [0.13790302054404457, 0.13790302054404457],
            [0.06746037229804897, 0.06746037229804897],
        ],
        "sums": [
            [13.424921805652712, 27.39289596291336],
            [6.712460902826356, 27.39289596291336],
            [3.356230451413178, 27.39289596291336],
            [1.678115225706589, 27.39289596291336],
            [0.8594238714670595, 27.39289596291336],
            [0.37500000000000017, 27.679005605562306],
        ],
    },
    "point-heis": {
        "counts": [80, 80, 80, 80, 80, 80],
        "volumes": [
            0.062498038995061574, 0.007812254874382697, 0.0009765318592978371,
            0.00012206648241222964, 1.5258310301528704e-05, 1.907288787691088e-06,
        ],
        "weights": [
            [0.9999686239209852, 0.999968623920985],
            [0.12499607799012315, 0.12499607799012312],
            [0.015624509748765393, 0.01562450974876539],
            [0.0019530637185956742, 0.0019530637185956737],
            [0.00024413296482445927, 0.00024413296482445922],
            [3.051662060305741e-05, 3.0516620603057402e-05],
        ],
        "sums": [
            [5.516937068258082, 1.298796676688676, 0.3796844386239021],
            [2.758468534129041, 0.649398338344338, 0.18984221931195105],
            [1.3792342670645206, 0.324699169172169, 0.09492110965597553],
            [0.6896171335322603, 0.1623495845860845, 0.047460554827987764],
            [0.34480856676613014, 0.08117479229304225, 0.023730277413993882],
            [0.17240428338306507, 0.040587396146521126, 0.011865138706996941],
        ],
    },
}


def ray_parameter(sing, pts):
    """Distance along the ray from the singular point, or from the plane
    along its normal."""
    if sing.kind == "point":
        return np.linalg.norm(pts - sing.point, axis=1)
    return np.abs(pts[:, sing.axis] - sing.offset)


@pytest.mark.parametrize("case", list(SAMPLER_CASES))
def test_panel_levels_are_dyadic_in_the_ray_parameter(case):
    # Every node lies in ball ∩ domain, and on its ray (unit, and for a line
    # the side of the plane) a node of level j has its ray parameter s in
    # [s2 2^-(j+1), s2 2^-j], s2 the ray's largest; the ray's deepest level
    # reaches down to where the ray enters the region.
    space, ball, budget, seed, domain, sing = SAMPLER_CASES[case]
    samples = gather_ball_samples(space, ball, budget, seed, domain, sing)
    assert len(samples.points) == _PANELS
    pts = samples.kept
    d = metric_distance(space, pts, np.broadcast_to(ball.center, pts.shape))
    assert np.all(d <= ball.radius * (1 + 1e-9))
    assert np.all((pts >= domain.bounds[:, 0] - 1e-12) & (pts <= domain.bounds[:, 1] + 1e-12))
    assert np.all(samples.weights[0] > 0.0) and np.all(samples.weights[1] >= 0.0)
    (units,) = samples.units
    level = np.repeat(np.arange(_PANELS), np.diff(samples.offsets))
    assert np.array_equal(samples.bins // units, level)
    s = ray_parameter(sing, pts)
    side = np.zeros(len(pts)) if sing.kind == "point" else np.sign(pts[:, sing.axis] - sing.offset)
    rays = {}
    for key, j, sj in zip(zip(samples.bins % units, side), level, s):
        rays.setdefault(key, []).append((j, sj))
    deep = 0
    for nodes in rays.values():
        js, ss = map(np.array, zip(*nodes))
        s2, deepest = ss.max(), js.max()
        assert np.all(ss <= s2 * 0.5 ** js * (1 + 1e-12))
        assert np.all((ss >= s2 * 0.5 ** (js + 1) * (1 - 1e-12)) | (js == deepest))
        assert np.all(ss > 0.0)
        deep = max(deep, deepest)
    assert deep == _PANELS - 1      # some ray starts on the singular set
    assert np.all(samples.volumes >= 0.0)


@pytest.mark.parametrize("case", list(SAMPLER_CASES))
def test_sampler_digest_pinned(case):
    space, ball, budget, seed, domain, sing = SAMPLER_CASES[case]
    samples = gather_ball_samples(space, ball, budget, seed, domain, sing)
    ends = samples.offsets
    digest = {
        "counts": [len(p) for p in samples.points],
        "volumes": samples.volumes.tolist(),
        "weights": [samples.weights[:, a:b].sum(axis=1).tolist()
                    for a, b in zip(ends[:-1], ends[1:])],
        "sums": [p.sum(axis=0).tolist() if len(p) else 0.0 for p in samples.points],
    }
    assert digest == SAMPLER_DIGEST[case]


@pytest.mark.parametrize("case", list(SAMPLER_CASES))
def test_block_samples_match_single_balls(case):
    # a block mixes near, far and clipped balls with their own seeds and
    # tags; each ball's segments equal those of the ball sampled alone
    space, ball, budget, seed, domain, sing = SAMPLER_CASES[case]
    far = Ball(ball.center + 0.9 * ball.radius, 0.05)
    balls = [ball, far, Ball(ball.center, 0.5 * ball.radius), far, Ball(-ball.center, 0.2)]
    seeds = [seed, 11, seed, 12, 13]
    tags = ["avg", "avg", ("ap", 3, 1), ("ap", 3, 2), "mu"]
    block = gather_ball_samples(space, balls, budget, seeds, domain, sing, tags)
    segments = block.points
    for b, (one_ball, s, t) in enumerate(zip(balls, seeds, tags)):
        alone = gather_ball_samples(space, one_ball, budget, s, domain, sing, tag=t)
        first, last = block.first[b], block.first[b + 1]
        assert np.array_equal(block.volumes[first:last], alone.volumes)
        nodes = slice(block.offsets[first], block.offsets[last])
        assert np.array_equal(block.weights[:, nodes], alone.weights)
        assert len(alone.points) == last - first
        for got, want in zip(segments[first:last], alone.points):
            assert np.array_equal(got, want)
    assert block.first[-1] > len(balls)     # some ball of the block is near


@pytest.mark.parametrize("case", list(SAMPLER_CASES))
def test_block_value_ranges(case):
    # Each ball's (vmin, vmax) bounds the values at its own nodes, and a ball
    # with no node in the domain gets (inf, -inf).  Increasing values put
    # each ball's extremes on the first and last of its nodes.
    space, ball, budget, seed, domain, sing = SAMPLER_CASES[case]
    outside = Ball(domain.bounds[:, 1] + 5.0, 0.1)
    balls = [Ball(ball.center + 0.9 * ball.radius, 0.05), ball, outside,
             Ball(ball.center, 0.5 * ball.radius)]
    block = gather_ball_samples(space, balls, budget, [seed, 11, 12, 13], domain, sing,
                                ["avg"] * 4)
    vals = np.arange(len(block.kept), dtype=float)
    ends = block.offsets[block.first]
    assert ends[2] == ends[3]
    (row,) = block.integrals(vals[None])
    for b, (*_, vrange, _) in enumerate(row):
        v = vals[ends[b]:ends[b + 1]]
        assert vrange == ((v[0], v[-1]) if len(v) else (math.inf, -math.inf))


@pytest.mark.parametrize("case", list(SAMPLER_CASES))
def test_stacked_integrals_match_rows_alone(case):
    # A block of near, far and clipped balls integrates a stack of functions
    # in one pass; every row's tuples equal, to the bit, those of integrating
    # that row alone.  A non-finite value is named by ball, then row, then node.
    space, ball, budget, seed, domain, sing = SAMPLER_CASES[case]
    far = Ball(ball.center + 0.9 * ball.radius, 0.05)
    balls = [far, ball, Ball(ball.center, 0.5 * ball.radius), Ball(-ball.center, 0.2)]
    block = gather_ball_samples(space, balls, budget, [seed, 11, 12, 13], domain, sing,
                                ["avg", ("ap", 3, 1), ("rh", 3, 1), "mu"])
    assert len(block.points) > len(balls)       # some ball of the block is near
    w = (power_weight(-0.5, space.n) if sing.kind == "point"
         else axis_power_weight(-0.5, sing.axis))
    vals = w(block.kept)
    rows = np.stack([vals, _powers(vals, -1.0), _powers(vals, 2.0), np.ones(len(vals)),
                     np.sin(block.kept.sum(axis=1))])
    for stacked, row in zip(block.integrals(rows), rows):
        (alone,) = block.integrals(row[None])
        for (mass, se, contrib, vrange, vol), want in zip(stacked, alone):
            assert (mass, se, vrange, vol) == (want[0], want[1], want[3], want[4])
            assert np.array_equal(contrib, want[2])
    ends = block.offsets[block.first]
    assert ends[1] < ends[2] and ends[3] < ends[4]
    rows[2, ends[1]] = np.nan               # ball 1: row 2 at its first node,
    rows[1, ends[2] - 1] = np.inf           # row 1 at its last node
    rows[0, ends[3]] = -np.inf              # ball 3: row 0
    with pytest.raises(SingularSampleError) as exc:
        block.integrals(rows)
    assert exc.value.value == np.inf
    assert np.array_equal(exc.value.point, block.kept[ends[2] - 1])


E = math.exp(-1.0)
LOG_PROFILE = lambda rho: (abs(math.log(max(rho, 1e-300))) if rho < E else 1.0) ** 1.1

# Off-centre ball averages with an oracle from 1-d quadrature over the
# spheres |x| = rho or the slices x1 = const of the ball: singular point
# inside the ball, or outside it within 1.5 r; one ball clipped by the box.
ORACLE_CASES = {
    "pow-r2-inside": (euclidean(2), power_weight(-0.5, 2), Ball([0.3, 0.2], 0.5), None,
                      lambda: radial_ball_average(lambda rho: 1.0, 2, math.hypot(0.3, 0.2), 0.5,
                                                  -0.5)),
    "pow-r2-outside": (euclidean(2), power_weight(-0.5, 2), Ball([0.45, -0.4], 0.5), None,
                       lambda: radial_ball_average(lambda rho: 1.0, 2, math.hypot(0.45, 0.4),
                                                   0.5, -0.5)),
    # nearly critical, with the point just outside: rays start just above it
    "pow-r2-edge": (euclidean(2), power_weight(-1.8, 2), Ball([0.408, 0.0], 0.4), None,
                    lambda: radial_ball_average(lambda rho: 1.0, 2, 0.408, 0.4, -1.8)),
    "pow-r3-inside": (euclidean(3), power_weight(-1.0, 3), Ball([0.1, -0.2, 0.15], 0.4), None,
                      lambda: radial_ball_average(lambda rho: 1.0, 3,
                                                  math.sqrt(0.01 + 0.04 + 0.0225), 0.4, -1.0)),
    "pow-r3-outside": (euclidean(3), power_weight(-1.0, 3), Ball([0.3, 0.25, -0.2], 0.35), None,
                       lambda: radial_ball_average(lambda rho: 1.0, 3,
                                                   math.sqrt(0.09 + 0.0625 + 0.04), 0.35, -1.0)),
    "log-r3": (euclidean(3), log_weight(1.1, 3), Ball([0.1, 0.05, -0.1], 0.25), None,
               lambda: radial_ball_average(LOG_PROFILE, 3, 0.15, 0.25, breaks=(E,))),
    "axis-r2": (euclidean(2), axis_power_weight(-1.0 / 3.0), Ball([0.176, -0.084], 0.249), BOX2,
                lambda: slice_ball_average(-1.0 / 3.0, (0.176, -0.084), 0.249, BOX2.bounds)),
    "axis-r2-clipped": (euclidean(2), axis_power_weight(-0.5), Ball([-0.1, 0.85], 0.3), BOX2,
                        lambda: slice_ball_average(-0.5, (-0.1, 0.85), 0.3, BOX2.bounds)),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_ball_average_matches_quadrature_oracle(case):
    # 20 seeds at budget 2048: every estimate is within 4 of its reported
    # standard errors of the oracle, and their mean within 3 standard errors
    # of the mean, from the spread over the seeds; so is the mean volume of
    # a ball inside the domain, against c0 r^n
    space, w, ball, domain, oracle = ORACLE_CASES[case]
    exact = oracle()
    avgs = [ball_average(w, space, ball, 2048, seed, domain) for seed in range(20)]
    values = np.array([a.value for a in avgs])
    assert np.all(np.abs(values - exact) <= 4.0 * np.array([a.stderr for a in avgs]))
    assert abs(values.mean() - exact) <= 3.0 * values.std(ddof=1) / math.sqrt(len(values))
    assert not any(a.diverging for a in avgs)
    corners = ball.center + ball.radius * np.array([[-1.0], [1.0]])
    if domain is None or domain.contains(corners).all():
        vols = np.array([gather_ball_samples(space, ball, 2048, seed, domain,
                                             w.singularity, tag="avg").total_volume
                         for seed in range(20)])
        assert (abs(vols.mean() - ball_volume(space, ball))
                <= 3.0 * vols.std(ddof=1) / math.sqrt(len(vols)))


# Far balls (d(centre) > 1.5 r), with an oracle from a closed form or from
# quadrature: off-centre, steep, clipped by the box, on heisenberg1, in 1-d
# and in 4-d (where |x|^-2 is harmonic, so its ball averages away from 0 are
# its value at the centre).
FAR_C3 = (0.24, -0.192, 0.256)     # at distance 0.4
FAR_CASES = {
    "pow-r3-2r": (euclidean(3), power_weight(-1.0, 3), Ball(FAR_C3, 0.2), None,
                  lambda: radial_ball_average(lambda rho: 1.0, 3, 0.4, 0.2, -1.0)),
    "pow-r3-steep": (euclidean(3), power_weight(-2.5, 3), Ball(FAR_C3, 0.2), None,
                     lambda: radial_ball_average(lambda rho: 1.0, 3, 0.4, 0.2, -2.5)),
    "axis-r2-clipped": (euclidean(2), axis_power_weight(-0.5), Ball([0.7, 0.85], 0.3), BOX2,
                        lambda: slice_ball_average(-0.5, (0.7, 0.85), 0.3, BOX2.bounds)),
    "axis-r3-clipped": (euclidean(3), axis_power_weight(-0.5), Ball([0.8, 0.1, -0.2], 0.3),
                        Box([[-1.0, 1.0]] * 3), lambda: cut_ball_average(-0.5, 0.8, 0.3, 1.0)),
    "pow-heis": (heisenberg1(), power_weight(-1.0, 3), Ball([0.3, 0.2, 0.02], 0.15), None,
                 lambda: gauge_ball_average(lambda pts: np.linalg.norm(pts, axis=1) ** -1.0,
                                            (0.3, 0.2, 0.02), 0.15)),
    "pow-r1": (euclidean(1), power_weight(0.5, 1), Ball([0.8], 0.2), None,
               lambda: (1.0 - 0.6 ** 1.5) / (1.5 * 0.4)),
    "pow-r4": (euclidean(4), power_weight(-2.0, 4), Ball([0.3, -0.2, 0.25, 0.1], 0.15), None,
               lambda: 1.0 / (0.09 + 0.04 + 0.0625 + 0.01)),
}


@pytest.mark.parametrize("case", list(FAR_CASES))
def test_far_ball_average_matches_oracle(case):
    # A far ball is integrated along rays from its centre, one panel per ray.
    # As in test_ball_average_matches_quadrature_oracle, over 20 seeds at
    # budget 2048 every estimate is within 4 of its reported standard errors
    # of the oracle, and their mean within 3 standard errors of the mean; in
    # 1-d the two rays from the centre are the whole sphere, so the seeds
    # agree.  An unclipped Euclidean ball's rays all end on its sphere, so
    # its volume is c0 r^n to rounding; a gauge ball's is within 3 standard
    # errors of the mean.
    space, w, ball, domain, oracle = FAR_CASES[case]
    exact = oracle()
    assert w.singularity.distance(space, ball.center[None])[0] > 1.5 * ball.radius
    # with no locus every ball is far, and drawn as here
    free, far = (gather_ball_samples(space, ball, 2048, 0, domain, sing)
                 for sing in (None, w.singularity))
    for key in ("kept", "weights", "bins", "offsets", "units"):
        assert np.array_equal(getattr(free, key), getattr(far, key))
    avgs = [ball_average(w, space, ball, 2048, seed, domain) for seed in range(20)]
    values = np.array([a.value for a in avgs])
    assert np.all(np.abs(values - exact) <= 4.0 * np.array([a.stderr for a in avgs]))
    if space.n == 1:
        assert values == pytest.approx(values[0], rel=1e-14)
    else:
        assert abs(values.mean() - exact) <= 3.0 * values.std(ddof=1) / math.sqrt(len(values))
    assert all(len(a.ring_contributions) == 1 and not a.diverging for a in avgs)
    if domain is None:
        vols = np.array([gather_ball_samples(space, ball, 2048, seed, domain,
                                             w.singularity).total_volume for seed in range(20)])
        if space.kind == "euclidean":
            assert vols == pytest.approx(ball_volume(space, ball), rel=1e-12)
        else:
            assert (abs(vols.mean() - ball_volume(space, ball))
                    <= 3.0 * vols.std(ddof=1) / math.sqrt(len(vols)))


# Relative spread over seeds 0-39 at budget 2048 of the Monte Carlo rule that
# far balls used before rays: `budget` uniform draws in the ball.
FAR_MC_SPREAD = {"pow-r3-2r": 5.98e-3, "pow-r3-steep": 1.66e-2, "axis-r2-clipped": 2.72e-3,
                 "pow-heis": 4.68e-3}


@pytest.mark.parametrize("case", list(FAR_MC_SPREAD))
def test_far_ball_spread_and_stderr(case):
    # Over 40 seeds at budget 2048 a far ball's average spreads no more than
    # under Monte Carlo, and its error is within 3 of its reported standard
    # errors at 38 seeds or more: the units' successive differences see the
    # spread of independently rotated copies of the design.
    space, w, ball, domain, oracle = FAR_CASES[case]
    exact = oracle()
    avgs = [ball_average(w, space, ball, 2048, seed, domain) for seed in range(40)]
    values, stderrs = np.array([a.value for a in avgs]), np.array([a.stderr for a in avgs])
    assert values.std(ddof=1) / exact <= FAR_MC_SPREAD[case]
    assert np.count_nonzero(np.abs(values - exact) <= 3.0 * stderrs) >= 38



# Beyond three dimensions no design or jittered grid is used: a far ball's
# rays and a near ball's rays about a point have Gaussian directions, and a
# near ball has int(budget / (5 _PANELS)) of them, its far copy as many.
@pytest.mark.parametrize("a", [-1.5, -0.5, 1.0])
def test_near_ball_average_4d(a):
    # B(0, r) about the singular point of |x|^a in R^4: every ray from the
    # centre sees the same radial integrand s^(a + 3), so the seeds agree and
    # the average is 4 / (4 + a) r^a up to the panel rule's error (exact for
    # the polynomial a = 1; below 1e-7 relative otherwise)
    e4, w, ball = euclidean(4), power_weight(a, 4), Ball(np.zeros(4), 0.3)
    near = gather_ball_samples(e4, ball, 2048, 0, None, w.singularity)
    assert near.units.tolist() == [int(2048 / (5 * _PANELS))]
    assert near.first.tolist() == [0, _PANELS]
    values = np.array([ball_average(w, e4, ball, 2048, seed).value for seed in range(4)])
    assert values == pytest.approx(values[0], rel=1e-14)
    assert values[0] == pytest.approx(4.0 / (4.0 + a) * 0.3 ** a, rel=1e-14 if a == 1.0 else 1e-6)



def test_near_ball_directions_4d():
    # x1^2 / |x|^2 averages 1/4 over the sphere, so 4 x1^2 |x|^-2.5 has the
    # average of |x|^-0.5 over B(0, r), but now the rays' directions count:
    # as for far balls, every seed within 4 of its standard errors, and the
    # mean within 3 standard errors of the mean
    sing = Singularity("point", point=np.zeros(4))
    w = Weight("4 x1^2 |x|^-2.5",
               lambda pts: 4.0 * pts[:, 0] ** 2 * np.linalg.norm(pts, axis=-1) ** -2.5, sing)
    exact = 4.0 / 3.5 * 0.3 ** -0.5
    avgs = [ball_average(w, euclidean(4), Ball(np.zeros(4), 0.3), 2048, seed)
            for seed in range(20)]
    assert all(abs(a.value - exact) <= 4.0 * a.stderr for a in avgs)
    values = np.array([a.value for a in avgs])
    assert abs(values.mean() - exact) <= 3.0 * values.std(ddof=1) / math.sqrt(len(values))

def test_far_ball_average_4d():
    # the average of x1^2 + 1 over B(c, r) in R^4 is c1^2 + r^2 / 6 + 1
    e4, ball = euclidean(4), Ball([0.3, -0.2, 0.1, 0.5], 0.4)
    w = Weight("x1^2+1", lambda pts: pts[:, 0] ** 2 + 1.0)
    far = gather_ball_samples(e4, ball, 2048, 0)
    assert far.units.tolist() == [int(2048 / (5 * _PANELS))] and far.first.tolist() == [0, 1]
    exact = 0.3 ** 2 + 0.4 ** 2 / 6.0 + 1.0
    avgs = [ball_average(w, e4, ball, 2048, seed) for seed in range(20)]
    assert all(abs(a.value - exact) <= 3.0 * a.stderr for a in avgs)
    values = np.array([a.value for a in avgs])
    assert abs(values.mean() - exact) <= 3.0 * values.std(ddof=1) / math.sqrt(len(values))

def test_rh2_worst_ball_spread(e2):
    # The catalog's worst RH_2 disc for |x1|^{-1/3}: over 200 seeds the
    # largest ratio is within 1% of the median, and the median within 0.5%
    # of the quadrature oracle (1.1800)
    w = axis_power_weight(-1.0 / 3.0)
    center, radius = (0.176, -0.084), 0.249
    exact = (math.sqrt(slice_ball_average(-2.0 / 3.0, center, radius, BOX2.bounds))
             / slice_ball_average(-1.0 / 3.0, center, radius, BOX2.bounds))
    assert exact == pytest.approx(1.18, abs=5e-4)
    ratios = []
    for seed in range(200):
        samples = gather_ball_samples(e2, Ball(center, radius), 2048, seed, BOX2, w.singularity)
        vals = w(samples.kept)
        ((m1, *_),), ((m2, *_),) = samples.integrals(np.stack([vals, vals ** 2]))
        ratios.append(math.sqrt(m2 / samples.total_volume) / (m1 / samples.total_volume))
    median = float(np.median(ratios))
    assert max(ratios) <= 1.01 * median
    assert abs(median - exact) <= 0.005 * exact


def test_near_ball_whose_rays_all_miss_is_drawn_as_far(e2):
    # Seen from the singular point inside the ball, the domain is a thin box
    # under about 0.03 rad: at most seeds every ray misses it, and the ball
    # is then drawn as a far one.  Every average stays near the box's mean of
    # |x|^{-1/2} (|x| = x1 to 1.4e-4 on the box).
    w, ball = power_weight(-0.5, 2), Ball([0.5, 0.0], 0.6)
    box = Box([[0.6, 1.1], [-0.01, 0.01]])
    levels = [len(gather_ball_samples(e2, ball, 2048, seed, box, w.singularity).points)
              for seed in range(20)]
    assert 1 in levels and _PANELS in levels
    exact = 2.0 * (math.sqrt(1.1) - math.sqrt(0.6)) / 0.5
    for seed in range(20):
        assert abs(ball_average(w, e2, ball, 2048, seed, box).value - exact) < 0.2 * exact


@pytest.mark.parametrize("sing", [Singularity("point", point=[0.0, 0.0, 0.0]),
                                  Singularity("hyperplane", axis=2, offset=0.02)],
                         ids=["point", "hyperplane"])
@pytest.mark.parametrize("center", [[0.2, -0.1, 0.03], [0.45, 0.0, 0.05]],
                         ids=["inside", "outside"])
def test_heisenberg_near_ball_nodes_and_volume(heis, sing, center):
    # Rays through gauge balls: nodes of a ball clipped by the box lie in
    # the gauge ball ∩ box, and an unclipped ball's volume from its rays is
    # pi^2/8 r^4 within 3 standard errors of the mean over 10 seeds
    ball = Ball(center, 0.4)
    box = Box([[-0.5, 0.3], [-1.0, 1.0], [-0.02, 1.0]])
    clipped = gather_ball_samples(heis, ball, 2048, 7, box, sing)
    pts = clipped.kept
    assert len(clipped.points) == _PANELS and len(pts) > 0
    d = metric_distance(heis, pts, np.broadcast_to(ball.center, pts.shape))
    assert np.all(d <= ball.radius * (1 + 1e-9))
    assert np.all((pts >= box.bounds[:, 0] - 1e-12) & (pts <= box.bounds[:, 1] + 1e-12))
    assert clipped.total_volume < 0.9 * ball_volume(heis, ball)
    vols = [gather_ball_samples(heis, ball, 2048, seed, None, sing).total_volume
            for seed in range(10)]
    exact = math.pi ** 2 / 8 * ball.radius ** 4
    assert abs(np.mean(vols) - exact) <= 3.0 * np.std(vols, ddof=1) / math.sqrt(len(vols))


# --- A_p -------------------------------------------------------------------------

def test_ap_constant_weight_exactly_one(e1):
    rep = ap_constant(constant_weight(1.0), 2.0, e1, BOX1, (1e-3, 1.0),
                      balls=128, budget=128, seed=5)
    assert rep.ap_estimate.value == 1.0
    assert not rep.ap_estimate.unbounded_suspected


def test_ap_sqrt_vs_bruteforce(e1):
    oracle = ap_constant_power_1d(0.5, 2.0, -1.0, 1.0)
    rep = ap_constant(power_weight(0.5, 1), 2.0, e1, BOX1, (1e-3, 1.0),
                      balls=1024, budget=8192, seed=6)
    assert abs(rep.ap_estimate.value - oracle) / oracle < 0.02
    assert not rep.ap_estimate.unbounded_suspected


def test_ap_planar_singular_weight_stable(e2):
    rep = ap_constant(power_weight(-1.0 / 3.0, 2), 2.0, e2, BOX2, (1e-3, 1.0),
                      balls=512, budget=2048, seed=7)
    tr = rep.ap_estimate
    assert not tr.unbounded_suspected
    assert abs(tr.stages[-1] - tr.stages[-2]) / tr.stages[-1] < 0.05
    # the sup over all balls dominates the centered-disc reduction
    assert tr.value >= centered_ap_power_2d(-1.0 / 3.0, 2.0) - 0.05


# Families for the hand-recomputed stages of every estimator: balls near a
# point singularity, near a hyperplane, clipped by the domain box, and on
# heisenberg1.  The estimators sample their balls in blocks; each case is
# recomputed ball by ball through gather_ball_samples with one ball, and must
# agree to the bit.
STAGE_CASES = {
    "point-r2": (euclidean(2), power_weight(-1.0 / 3.0, 2), BOX2),
    "hyperplane-r2": (euclidean(2), axis_power_weight(-0.5), BOX2),
    "clipped-r2": (euclidean(2), power_weight(-1.0 / 3.0, 2), Box([[0.0, 0.5], [-0.2, 1.0]])),
    "point-heis": (heisenberg1(), power_weight(-1.0, 3),
                   Box([[-0.5, 0.5], [-1.0, 1.0], [-1.0, 1.0]])),
}
STAGE_WINDOW = (1e-3, 1.0)


def stage_sizes(total):
    return [max(total >> (3 - s), 1) for s in range(4)]


def one_ball(space, w, domain, center, radius, budget, seed, tag, coverage):
    """gather_ball_samples for one ball, noting whether the ball is near the
    singular set (several strata) and whether the domain clips it."""
    ball = Ball(center, radius)
    samples = gather_ball_samples(space, ball, budget, seed, domain, w.singularity, tag=tag)
    coverage["near"] |= len(samples.points) > 1
    coverage["clipped"] |= samples.total_volume < 0.999 * ball_volume(space, ball)
    return samples


def hand_ap_ratios(space, w, domain, p, balls, budget, seed, coverage):
    dual = w.pow(1.0 - p / (p - 1.0))
    rng = child_rng(seed, "family")
    centers = domain.sample(balls, rng)
    radii = np.exp(rng.uniform(math.log(STAGE_WINDOW[0]), math.log(STAGE_WINDOW[1]), balls))
    ratios = []
    for i in range(balls):
        samples = one_ball(space, w, domain, centers[i], radii[i], budget, seed, ("ap", i, 3),
                           coverage)
        vol = samples.total_volume
        ratios.append(samples.mass(w)[0] / vol * (samples.mass(dual)[0] / vol) ** (p - 1.0))
    doubling = 0.0
    for i in np.linspace(0, balls - 1, num=min(64, balls), dtype=int).tolist():
        m1, m2 = (one_ball(space, w, domain, centers[i], k * radii[i], budget, seed,
                           ("dbl", i, j), coverage).mass(w)[0]
                  for k, j in ((1.0, 1), (2.0, 2)))
        if m1 > 0:
            doubling = max(doubling, m2 / m1)
    return ratios, centers, radii, doubling


def hand_rh_ratios(space, w, domain, t, balls, budget, seed, coverage):
    wt = w.pow(t)
    rng = child_rng(seed, "family")
    centers = domain.sample(balls, rng)
    radii = np.exp(rng.uniform(math.log(STAGE_WINDOW[0]), math.log(STAGE_WINDOW[1]), balls))
    ratios = []
    for i in range(balls):
        samples = one_ball(space, w, domain, centers[i], radii[i], budget, seed, ("rh", i, 3),
                           coverage)
        vol = samples.total_volume
        ratios.append((samples.mass(wt)[0] / vol) ** (1.0 / t) / (samples.mass(w)[0] / vol))
    return ratios, centers, radii


def hand_a1_ratios(space, w, domain, points, radii_count, budget, seed, coverage):
    xs = domain.sample(points, child_rng(seed, "a1-points"))
    lo, hi = STAGE_WINDOW
    radius_set = np.exp(np.linspace(math.log(hi), math.log(lo), radii_count))  # descending
    ratios = []
    for i in range(points):
        point_seed = subseed(seed, ("a1", i, 3))
        averages = []
        for j, r in enumerate(radius_set):
            samples = one_ball(space, w, domain, xs[i], float(r), budget,
                               point_seed, ("max", j), coverage)
            averages.append(samples.mass(w)[0] / samples.total_volume)
        ratios.append(max(averages) / float(w(xs[i][None, :])[0]))
    return ratios, xs


@pytest.mark.parametrize("case", list(STAGE_CASES))
@pytest.mark.parametrize("estimate", ["ap", "rh", "a1"])
def test_stages_recomputed_by_hand(estimate, case):
    # Every ball or point is sampled once, at the full budget, under the key
    # (tag, i, 3); stage s is the sup over the first count >> (3 - s) of them.
    # The a1 case's budget, 32, pins that a budget below 64 is sampled as given.
    space, w, domain = STAGE_CASES[case]
    coverage = {"near": False, "clipped": False}
    if estimate == "ap":
        rep = ap_constant(w, 2.5, space, domain, STAGE_WINDOW, balls=64, budget=256, seed=3)
        ratios, centers, radii, doubling = hand_ap_ratios(space, w, domain, 2.5, 64, 256, 3,
                                                          coverage)
        trace = rep.ap_estimate
        assert rep.doubling_estimate == doubling
    elif estimate == "rh":
        rep = rh_constant(w, 2.0, space, domain, STAGE_WINDOW, balls=64, budget=256, seed=4)
        ratios, centers, radii = hand_rh_ratios(space, w, domain, 2.0, 64, 256, 4, coverage)
        trace = rep.rh_estimate
    else:
        rep = a1_constant(w, space, domain, STAGE_WINDOW, points=16, radii=4, budget=32, seed=5)
        ratios, centers = hand_a1_ratios(space, w, domain, 16, 4, 32, 5, coverage)
        radii = None
        trace = rep.a1_estimate
    assert trace.stages == tuple(max(ratios[:n]) for n in stage_sizes(len(ratios)))
    worst = sorted(range(len(ratios)), key=lambda i: ratios[i], reverse=True)[:3]
    assert rep.worst_cases == [
        {"center": list(centers[i]), "radius": None if radii is None else radii[i],
         "ratio": ratios[i]} for i in worst]
    # every case reaches the singular set's strata, and the clipped case the box
    assert coverage["near"]
    assert coverage["clipped"] or case != "clipped-r2"


@pytest.mark.parametrize("case", list(STAGE_CASES))
def test_balance_recomputed_by_hand(case):
    # pair i: outer ball B2 inside the box, inner ball B1 inside B2, sampled
    # under the tags ("bal", i, 0) and ("bal", i, 1) with no domain
    space, k, domain = STAGE_CASES[case]
    w, v, p, q, pairs, budget, seed = k.pow(-1.5), k, 2.5, 3.0, 40, 128, 6
    rep = balance_check(w, v, p, q, space, domain, (2e-3, 0.4), pairs=pairs, budget=budget,
                        seed=seed)
    rng = child_rng(seed, "balance")
    lo, hi = 2e-3, min(0.4, 0.5 * float(np.min(domain.lengths)))
    r2 = np.exp(rng.uniform(math.log(lo), math.log(hi), pairs))
    inner_lo = domain.bounds[:, 0][None, :] + r2[:, None]
    inner_hi = domain.bounds[:, 1][None, :] - r2[:, None]
    centers2 = inner_lo + rng.random((pairs, space.n)) * np.maximum(inner_hi - inner_lo, 0.0)
    r1 = np.exp(rng.uniform(math.log(lo), np.log(r2)))
    ratios, viol = [], 0
    for i in range(pairs):
        gap = max(r2[i] - r1[i], 0.0)
        c1 = (sample_ball(space, Ball(centers2[i], gap), 1, seed=subseed(seed, ("balc", i)))[0]
              if gap > 0 else centers2[i])
        masses = []
        for j, ball in enumerate((Ball(c1, float(r1[i])), Ball(centers2[i], float(r2[i])))):
            samples = gather_ball_samples(space, ball, budget, seed, None, k.singularity,
                                          tag=("bal", i, j))
            pts = np.concatenate(samples.points)
            viol += int(np.count_nonzero(w(pts) > v(pts) * (1 + 1e-12)))
            masses.append((samples.mass(w)[0], samples.mass(v)[0]))
        (w1, v1), (w2, v2) = masses
        ratios.append((r1[i] / r2[i]) * (v1 / v2) ** (1.0 / q) / (w1 / w2) ** (1.0 / p))
    assert rep.stages == tuple(max(ratios[:n]) for n in stage_sizes(pairs))
    assert rep.pointwise_violations == viol
    assert rep.worst_pair["ratio"] == max(ratios)


@pytest.mark.parametrize("estimate", ["ap", "a1", "rh"])
def test_family_below_stage_floor_rejected(e1, estimate):
    w, win = constant_weight(1.0), (1e-3, 1.0)
    with pytest.raises(ValueError, match=">= 8"):
        if estimate == "ap":
            ap_constant(w, 2.0, e1, BOX1, win, balls=4, budget=64)
        elif estimate == "a1":
            a1_constant(w, e1, BOX1, win, points=4, radii=5, budget=64)
        else:
            rh_constant(w, 2.0, e1, BOX1, win, balls=7, budget=64)


def test_ap_requires_p_above_one(e1):
    with pytest.raises(ValueError):
        ap_constant(constant_weight(1.0), 1.0, e1, BOX1, (1e-3, 1.0))


# --- A_1 --------------------------------------------------------------------------

def test_a1_constant_weight(e2):
    rep = a1_constant(constant_weight(3.0), e2, BOX2, (1e-2, 1.0),
                      points=32, radii=6, budget=256, seed=8)
    assert rep.a1_estimate.value == pytest.approx(1.0, abs=1e-12)
    assert not rep.a1_estimate.unbounded_suspected


def test_a1_log_weight_finite(e3):
    box = Box([[-0.3, 0.3]] * 3)
    rep = a1_constant(log_weight(1.0, 3), e3, box, (2e-3, 0.3),
                      points=64, radii=8, budget=1024, seed=9)
    assert not rep.a1_estimate.unbounded_suspected
    assert np.isfinite(rep.a1_estimate.value)
    assert rep.a1_estimate.value >= 1.0 - 1e-9


def test_a1_flags_nonintegrable(e2):
    finite = a1_constant(power_weight(-1.0 / 3.0, 2), e2, BOX2, (1e-3, 1.0),
                         points=64, radii=8, budget=1024, seed=10)
    assert not finite.a1_estimate.unbounded_suspected
    bad = a1_constant(power_weight(-3.0, 2), e2, BOX2, (1e-3, 1.0),
                      points=64, radii=8, budget=1024, seed=10)
    assert bad.a1_estimate.unbounded_suspected


# --- RH_t ------------------------------------------------------------------------

def test_rh_constant_weight(e1):
    rep = rh_constant(constant_weight(2.0), 3.0, e1, BOX1, (1e-3, 1.0),
                      balls=128, budget=128, seed=11)
    assert rep.rh_estimate.value == 1.0


def test_rh_planar_weight_finite(e2):
    rep = rh_constant(power_weight(-1.0 / 3.0, 2), 2.0, e2, BOX2, (1e-3, 1.0),
                      balls=512, budget=2048, seed=12)
    assert not rep.rh_estimate.unbounded_suspected
    assert rep.rh_estimate.value >= 1.0 - 1e-9


def test_rh_log_weight_finite(e3):
    box = Box([[-0.3, 0.3]] * 3)
    rep = rh_constant(log_weight(1.1, 3), 3.0, e3, box, (2e-3, 0.3),
                      balls=512, budget=2048, seed=13)
    assert not rep.rh_estimate.unbounded_suspected


# --- maximal function --------------------------------------------------------------

def test_maximal_constant(e2):
    mv = maximal_function(constant_weight(1.0), e2, [0.1, 0.2],
                          [0.5, 0.25, 0.125], budget=256, seed=14)
    assert mv.value == 1.0
    assert not mv.diverging


def test_maximal_diverges_on_singular_locus(e2):
    k = axis_power_weight(-1.0 / 3.0)
    radii = [0.4 * 2.0 ** (-j) for j in range(8)]
    mv = maximal_function(k, e2, [0.0, 0.4], radii, budget=2048, seed=15)
    assert mv.shrink_diverging
    assert mv.diverging
    off = maximal_function(k, e2, [0.35, 0.4], radii, budget=2048, seed=15)
    assert not off.diverging


def test_maximal_radial_power_law(e3):
    # fitted power law for the inner-distortion maximal function:
    # M(K_I)(x) ~ c |x|^{-eps(n-1)} with eps = 0.1, n = 3
    eps, n = 0.1, 3
    k = Weight("KI", lambda pts: (np.linalg.norm(pts, axis=1) ** (-eps) / eps) ** (n - 1),
               singularity=power_weight(-1.0, 3).singularity)
    mags = np.array([0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    radii = [0.8 * 2.0 ** (-j) for j in range(8)]
    vals = []
    for i, m in enumerate(mags):
        mv = maximal_function(k, e3, [m, 0.0, 0.0], radii, budget=2048, seed=16 + i)
        assert not mv.diverging
        vals.append(mv.value)
    target = -eps * (n - 1)
    coeffs = np.polyfit(np.log(mags), np.log(vals), 1)
    fitted_c = math.exp(coeffs[1])
    model = fitted_c * mags ** coeffs[0]
    assert np.abs(np.array(vals) / model - 1.0).max() < 0.10
    assert coeffs[0] == pytest.approx(target, abs=0.08)


# --- balance / tau / mu_p ----------------------------------------------

def test_balance_trivial_pair(e2):
    one = constant_weight(1.0)
    rep = balance_check(one, one, 2.0, 3.0, e2, BOX2, (1e-3, 0.4),
                        pairs=256, budget=256, seed=19)
    # LHS/RHS = (r1/r2)^(1 + Q/q - Q/p) with exponent 2/3 > 0, so C <= 1
    assert rep.best_constant <= 1.0 + 1e-9
    assert not rep.unbounded_suspected
    assert rep.pointwise_violations == 0


def test_balance_admissible_pair(e2):
    k = axis_power_weight(-1.0 / 3.0)
    rep = balance_check(k.pow(-1.0), k, 2.0, 3.0, e2, BOX2, (2e-3, 0.4),
                        pairs=512, budget=1024, seed=20)
    assert not rep.unbounded_suspected
    assert rep.pointwise_violations == 0
    assert np.isfinite(rep.best_constant)


def test_balance_degenerate_pair_flagged(e2):
    rep = balance_check(constant_weight(1.0), power_weight(-3.0, 2), 2.0, 3.0,
                        e2, BOX2, (2e-3, 0.4), pairs=128, budget=1024, seed=21)
    assert rep.unbounded_suspected


def test_balance_precondition_violation(e2):
    rep = balance_check(constant_weight(2.0), constant_weight(1.0), 2.0, 3.0,
                        e2, BOX2, (1e-3, 0.4), pairs=32, budget=256, seed=22)
    assert rep.pointwise_violations > 0


def test_tau_exponent_values():
    assert tau_exponent(2.0, 3, 4) == 7.0
    assert tau_exponent(2.0, 2, 2) == 2.0
    for p in (1.5, 2.0, 3.0, 7.0):
        for n in (2, 3, 5):
            assert tau_exponent(p, n, n) == float(n)
    with pytest.raises(OutOfRegimeError):
        tau_exponent(1.5, 2, 4)
    with pytest.raises(ValueError):
        tau_exponent(0.5, 2, 2)


def test_mu_p_trivial(e2):
    w = constant_weight(2.0)
    assert mu_p(w, w, 2.0, e2, Ball([0.0, 0.0], 0.5), budget=256, seed=23) == 1.0


def test_mu_p_constant_pair(e2):
    c = 3.0
    w = constant_weight(c ** (1.0 - 2.0))  # c^{1-p}
    v = constant_weight(c)
    got = mu_p(w, v, 2.0, e2, Ball([0.0, 0.0], 0.5), budget=256, seed=24)
    assert got == pytest.approx(c, rel=1e-12)


def test_mu_p_holder_bound(e2):
    # mu_p(B) <= average of k over B for the pair (k^{-1}, k), p = 2
    k = power_weight(-1.0 / 3.0, 2)
    ball = Ball([0.0, 0.0], 1.0)
    mu = mu_p(k.pow(-1.0), k, 2.0, e2, ball, budget=8192, seed=25)
    avg_k = ball_average(k, e2, ball, budget=8192, seed=25).value
    assert mu <= avg_k + 3e-2


# --- structural invariants -----------------------------------------------------------

def test_estimates_at_least_one(e2):
    for w in (power_weight(-1.0 / 3.0, 2), axis_power_weight(0.25), log_weight(1.0, 2)):
        rep = ap_constant(w, 2.0, e2, BOX2, (1e-2, 1.0), balls=128, budget=512, seed=29)
        assert rep.ap_estimate.value >= 1.0 - 1e-9
        rep = rh_constant(w, 2.0, e2, BOX2, (1e-2, 1.0), balls=128, budget=512, seed=29)
        assert rep.rh_estimate.value >= 1.0 - 1e-9


def test_ap_monotonicity_in_p(e1):
    w = power_weight(0.5, 1)
    r1 = ap_constant(w, 1.5, e1, BOX1, (1e-3, 1.0), balls=256, budget=1024, seed=30)
    r2 = ap_constant(w, 2.5, e1, BOX1, (1e-3, 1.0), balls=256, budget=1024, seed=30)
    # same ball family and samples: pointwise power-mean monotonicity is exact
    assert r2.ap_estimate.value <= r1.ap_estimate.value + 1e-9


def test_ap_duality_identity(e1):
    w = power_weight(0.5, 1)
    p = 2.5
    pprime = p / (p - 1.0)
    r = ap_constant(w, p, e1, BOX1, (1e-3, 1.0), balls=256, budget=1024, seed=31)
    rd = ap_constant(w.pow(1.0 - pprime), pprime, e1, BOX1, (1e-3, 1.0),
                     balls=256, budget=1024, seed=31)
    lhs = rd.ap_estimate.value
    rhs = r.ap_estimate.value ** (1.0 / (p - 1.0))
    assert abs(lhs - rhs) / rhs < 1e-9


def test_doubling_bound(e2):
    # w(2B) <= D^p [w]_{A_p} w(B) with D = 2^Q the exact volume doubling constant
    k = power_weight(-1.0 / 3.0, 2)
    rep = ap_constant(k, 2.0, e2, BOX2, (1e-2, 0.5), balls=256, budget=2048, seed=32)
    bound = (2.0 ** e2.Q) ** 2.0 * rep.ap_estimate.value
    assert rep.doubling_estimate <= bound * 1.02
