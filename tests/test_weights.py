import math

import numpy as np
import pytest

from degenlap._rand import child_rng
from degenlap.geometry import Ball, Box, euclidean, heisenberg1
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
)

from oracles import ap_constant_power_1d, centered_ap_power_2d, radial_ball_average_2d

BOX1 = Box([[-1.0, 1.0]])
BOX2 = Box([[-1.0, 1.0], [-1.0, 1.0]])


# --- ball averages -------------------------------------------------------------

def test_ball_average_constant_exact(e1):
    w = constant_weight(5.0, 1)
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
        ball_average(constant_weight(1.0, 1), e1, Ball([0.0], 1.0), budget=8, seed=0)


# --- stratified sampler ----------------------------------------------------------

# Near-singular balls that cross the domain edge and the proposals' edges, so
# that both acceptance tests and every stratum are exercised.
SAMPLER_CASES = {
    "point-r2": (euclidean(2), Ball([0.35, 0.6], 0.75), 512, 3, BOX2,
                 Singularity("point", point=[0.0, 0.0])),
    "hyperplane-r2": (euclidean(2), Ball([0.2, 0.3], 0.4), 512, 5, BOX2,
                      Singularity("hyperplane", axis=0, offset=0.0)),
    "point-heis": (heisenberg1(), Ball([0.3, 0.1, 0.05], 0.55), 512, 7,
                   Box([[-0.5, 0.5], [-1.0, 1.0], [-1.0, 1.0]]),
                   Singularity("point", point=[0.0, 0.0, 0.0])),
}

# Bit-exact output of gather_ball_samples on SAMPLER_CASES: per-stratum point
# counts, volumes, their standard errors and coordinate sums.  A change to the
# draws, the strata or the volume estimates shows here.
SAMPLER_DIGEST = {
    "point-r2": {
        "counts": [169, 41, 19, 29, 32, 32, 31, 28, 46],
        "volumes": [
            1.1734953027325155, 0.19328157927359077, 0.031925975147869906,
            0.01639441967052779, 0.005177185159114039, 0.0012942962897785097,
            0.0003235740724446274, 8.089351811115686e-05, 2.6964506037052286e-05,
        ],
        "volume_se": [
            0.0584650187848605, 0.03995350067830012, 0.00992176578254311,
            0.0017722881850173323, 0.0, 0.0,
            0.0, 0.0, 0.0,
        ],
        "sums": [
            [60.12963726860809, 83.6730913529275],
            [2.296930469146014, 7.552424282612702],
            [0.45794670660153347, 0.808663034100897],
            [0.01945091386707467, 0.6727408436954683],
            [0.06934130036876768, 0.2872984305868734],
            [-0.1600170864058941, 0.01919871732189604],
            [-0.0080213599879605, -0.025164138668668328],
            [-0.011849929338863804, -0.01673553139559016],
            [-0.010374359213028829, -0.009615367426709032],
        ],
    },
    "hyperplane-r2": {
        "counts": [134, 71, 44, 52, 34, 40, 23, 23, 53],
        "volumes": [
            0.2526548245743669, 0.11000000000000004, 0.0725,
            0.031250000000000014, 0.018750000000000003, 0.0090625,
            0.003906250000000002, 0.002578125, 0.0019531250000000004,
        ],
        "volume_se": [
            0.02338535866733714, 0.02518680209951236, 0.010670856924352424,
            0.0055331035030080555, 0.00236964857626611, 0.001333857115544053,
            0.0006916379378760069, 0.0003158390943124264, 0.0001826981145885714,
        ],
        "sums": [
            [51.88357063943463, 38.816625689517466],
            [2.9212238399525075, 20.52101678238577],
            [0.0032074757591958325, 13.90123778274253],
            [0.48167118050017105, 15.38362315744094],
            [-0.06376584687295381, 10.548849029450732],
            [-0.06770602760508536, 11.227333000966237],
            [-0.003235905379961009, 5.238455226392694],
            [-0.013897477838401166, 7.234464694712941],
            [0.00492371634098129, 14.154975090240358],
        ],
    },
    "point-heis": {
        "counts": [182, 29, 34, 29, 33, 31, 32, 34, 33],
        "volumes": [
            0.08003817554808779, 0.004189325992875118, 0.00041342032824425503,
            2.583877051526594e-05, 1.6149231572041212e-06, 1.0093269732525758e-07,
            6.3082935828285985e-09, 3.942683489267874e-10, 2.628455659511916e-11,
        ],
        "volume_se": [
            0.0031121151717628686, 0.0005924088750411098, 0.0,
            0.0, 0.0, 0.0,
            0.0, 0.0, 0.0,
        ],
        "sums": [
            [37.74131749282457, 4.776252527135956, 8.169706093106804],
            [1.3776354779870565, -0.9485939507853426, 0.10687296595751838],
            [-0.034551895396772475, -0.5034483664974454, 0.014833572309439807],
            [0.14958441191567773, 0.03245414921759172, -0.0031084812880228076],
            [-0.058680546958948684, -0.09834766631462417, -0.00042345229877799654],
            [-0.01836633200290509, 0.04373186152246935, -0.00015085524607123704],
            [0.014032074527934858, -0.003695540688899228, 1.897410631259494e-05],
            [0.0030006572936199425, -0.010602377179455445, 2.347875771045949e-05],
            [-0.00563380605919126, -0.005062054533584221, 1.6936926244641358e-07],
        ],
    },
}


@pytest.mark.parametrize("case", list(SAMPLER_CASES))
def test_sampler_strata_are_distance_shells(case):
    space, ball, budget, seed, domain, sing = SAMPLER_CASES[case]
    samples = gather_ball_samples(space, ball, budget, seed, domain, sing)
    deltas = [ball.radius * 2.0 ** -(ell + 1) for ell in range(8)]
    assert len(samples.points) == len(deltas) + 1
    shells = [(deltas[0], math.inf), *zip([*deltas[1:], 0.0], deltas)]
    for pts, (lo, hi) in zip(samples.points, shells):
        d = sing.distance(space, pts)
        assert np.all((lo <= d) & (d < hi))
        assert np.all(domain.contains(pts))
    assert np.all(samples.volumes >= 0.0)
    assert np.all(samples.volume_se >= 0.0)


@pytest.mark.parametrize("case", list(SAMPLER_CASES))
def test_sampler_digest_pinned(case):
    space, ball, budget, seed, domain, sing = SAMPLER_CASES[case]
    samples = gather_ball_samples(space, ball, budget, seed, domain, sing)
    digest = {
        "counts": [len(p) for p in samples.points],
        "volumes": samples.volumes.tolist(),
        "volume_se": samples.volume_se.tolist(),
        "sums": [p.sum(axis=0).tolist() if len(p) else 0.0 for p in samples.points],
    }
    assert digest == SAMPLER_DIGEST[case]


# --- A_p -------------------------------------------------------------------------

def test_ap_constant_weight_exactly_one(e1):
    rep = ap_constant(constant_weight(1.0, 1), 2.0, e1, BOX1, (1e-3, 1.0),
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


def test_ap_stages_recomputed_by_hand(e2):
    # Stage s takes the sup over the first balls >> (3 - s) balls of the
    # family (at least 8), each sampled with budget >> (3 - s) points (at
    # least 64) under the tag ("ap", i, s).
    w = power_weight(-1.0 / 3.0, 2)
    dual = w.pow(-1.0)   # 1 - p' at p = 2
    balls, budget, seed, window = 64, 256, 3, (1e-3, 1.0)
    rep = ap_constant(w, 2.0, e2, BOX2, window, balls=balls, budget=budget, seed=seed)
    rng = child_rng(seed, "family")
    centers = BOX2.sample(balls, rng)
    radii = np.exp(rng.uniform(math.log(window[0]), math.log(window[1]), balls))
    stages = []
    for s in range(4):
        ratios = []
        for i in range(max(balls >> (3 - s), 8)):
            samples = gather_ball_samples(e2, Ball(centers[i], radii[i]),
                                          max(budget >> (3 - s), 64), seed, BOX2,
                                          w.singularity, tag=("ap", i, s))
            vol = samples.total_volume
            ratios.append(samples.mass(w)[0] / vol * (samples.mass(dual)[0] / vol))
        stages.append(max(ratios))
    assert rep.ap_estimate.stages == tuple(stages)
    worst = sorted(range(balls), key=lambda i: ratios[i], reverse=True)[:3]
    assert rep.worst_cases == [
        {"center": list(centers[i]), "radius": radii[i], "ratio": ratios[i]} for i in worst]


@pytest.mark.parametrize("estimate", ["ap", "a1", "rh"])
def test_family_below_stage_floor_rejected(e1, estimate):
    w, win = constant_weight(1.0, 1), (1e-3, 1.0)
    with pytest.raises(ValueError, match=">= 8"):
        if estimate == "ap":
            ap_constant(w, 2.0, e1, BOX1, win, balls=4, budget=64)
        elif estimate == "a1":
            a1_constant(w, e1, BOX1, win, points=4, radii=5, budget=64)
        else:
            rh_constant(w, 2.0, e1, BOX1, win, balls=7, budget=64)


def test_ap_requires_p_above_one(e1):
    with pytest.raises(ValueError):
        ap_constant(constant_weight(1.0, 1), 1.0, e1, BOX1, (1e-3, 1.0))


# --- A_1 --------------------------------------------------------------------------

def test_a1_constant_weight(e2):
    rep = a1_constant(constant_weight(3.0, 2), e2, BOX2, (1e-2, 1.0),
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
    rep = rh_constant(constant_weight(2.0, 1), 3.0, e1, BOX1, (1e-3, 1.0),
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
    mv = maximal_function(constant_weight(1.0, 2), e2, [0.1, 0.2],
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
    one = constant_weight(1.0, 2)
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
    rep = balance_check(constant_weight(1.0, 2), power_weight(-3.0, 2), 2.0, 3.0,
                        e2, BOX2, (2e-3, 0.4), pairs=128, budget=1024, seed=21)
    assert rep.unbounded_suspected


def test_balance_precondition_violation(e2):
    rep = balance_check(constant_weight(2.0, 2), constant_weight(1.0, 2), 2.0, 3.0,
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
    w = constant_weight(2.0, 2)
    assert mu_p(w, w, 2.0, e2, Ball([0.0, 0.0], 0.5), budget=256, seed=23) == 1.0


def test_mu_p_constant_pair(e2):
    c = 3.0
    w = constant_weight(c ** (1.0 - 2.0), 2)  # c^{1-p}
    v = constant_weight(c, 2)
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
