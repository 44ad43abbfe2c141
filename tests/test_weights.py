import math

import numpy as np
import pytest

from degenlap._rand import child_rng
from degenlap.geometry import Ball, Box
from degenlap.weights import (
    OutOfRegimeError,
    SingularSampleError,
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
    power_class_check,
    power_weight,
    rh_constant,
    subset_mass_check,
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


# --- power class / balance / tau / mu_p ----------------------------------------------

def test_power_class_trivial(e1):
    rep = power_class_check(constant_weight(1.0, 1), 3.0, 2.0, e1, BOX1, (1e-3, 1.0),
                            balls=64, budget=128, seed=17)
    assert rep.q == 5.0
    assert rep.ap.value == 1.0 and rep.rh.value == 1.0 and rep.aq.value == 1.0
    assert rep.consistent


def test_power_class_planar(e2):
    rep = power_class_check(power_weight(-1.0 / 3.0, 2), 2.0, 2.0, e2, BOX2,
                            (1e-3, 1.0), balls=384, budget=1024, seed=18)
    assert rep.q == 3.0
    assert rep.consistent
    assert not rep.aq.unbounded_suspected
    # dense radial reduction of [k^2]_{A_3} over centered discs
    assert rep.aq.value >= centered_ap_power_2d(-2.0 / 3.0, 3.0) - 0.1


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


# --- subset mass -------------------------------------------------------------------

def test_subset_mass_trivial(e2):
    rep = subset_mass_check(constant_weight(1.0, 2), e2, Ball([0.0, 0.0], 1.0),
                            p=2.0, t=2.0, ap_value=1.0, rh_value=1.0,
                            subsets=64, budget=2048, seed=26)
    assert rep.rh_violations == 0
    assert rep.ap_violations == 0
    # E = B realizes equality (both sides 1) when the constants are 1
    assert rep.worst_rh_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.worst_ap_margin == pytest.approx(0.0, abs=1e-12)


def test_subset_mass_planar_weight(e2):
    k = power_weight(-1.0 / 3.0, 2)
    ap = ap_constant(k, 2.0, e2, BOX2, (1e-3, 1.0), balls=256, budget=1024, seed=27)
    rh = rh_constant(k, 2.0, e2, BOX2, (1e-3, 1.0), balls=256, budget=1024, seed=27)
    rep = subset_mass_check(k, e2, Ball([0.0, 0.0], 1.0),
                            p=2.0, t=2.0,
                            ap_value=ap.ap_estimate.value, rh_value=rh.rh_estimate.value,
                            subsets=1000, budget=4096, seed=28)
    assert rep.subsets >= 1000
    assert rep.rh_violations == 0
    assert rep.ap_violations == 0
    # estimated constants exceed 1, so all margins stay below zero
    assert rep.worst_rh_margin <= 0.0
    assert rep.worst_ap_margin <= 0.0


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
