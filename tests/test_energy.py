import math
import tracemalloc
import weakref
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from degenlap import energy
from degenlap._rand import child_rng
from degenlap.catalog import fixture
from degenlap.geometry import euclidean, heisenberg1
from degenlap.grids import INTERIOR, GridDomain, GridFunction
from degenlap.weights import axis_power_weight, constant_weight
from degenlap.energy import (
    InvalidCoefficientsError,
    InvalidTestFunctionError,
    MatrixField,
    CG_RTOL,
    SolverConfig,
    horizontal_gradient,
    monotonicity_gap,
    p_energy,
    solve_dirichlet,
    weak_form,
    _Discretization,
    _StencilHessian,
    _VCycle,
    _cg,
)

from oracles import hessian_coo, hessian_slot_map, radial_p_harmonic

I2 = MatrixField.identity(2)


def grid2(n=17, bounds=((-1, 1), (-1, 1))):
    return GridDomain.box(bounds, (n, n))


# --- horizontal gradient -------------------------------------------------------

def test_gradient_affine_exact(e2):
    dom = grid2()
    u = GridFunction.from_callable(dom, lambda x: 3 * x[:, 0] - 2 * x[:, 1])
    g = horizontal_gradient(e2, u)
    assert np.abs(g.values - np.array([3.0, -2.0])).max() == 0.0


def test_gradient_constant_zero(e2):
    dom = grid2()
    u = GridFunction.from_callable(dom, lambda x: np.full(len(x), 4.2))
    g = horizontal_gradient(e2, u)
    assert np.abs(g.values).max() == 0.0


def test_gradient_quadratic_and_order(e2):
    # centered cell differences are exact on quadratics at the cell center;
    # on cubics the error is h^2/4 by Taylor expansion
    dom = GridDomain.box([(0, 1), (0, 1)], (18, 18))  # odd cell count: 0.5 is a center
    u = GridFunction.from_callable(dom, lambda x: x[:, 0] ** 2)
    g = horizontal_gradient(e2, u)
    i = np.argmin(np.abs(g.centers[:, 0] - 0.5) + np.abs(g.centers[:, 1] - 0.5))
    assert g.centers[i, 0] == pytest.approx(0.5, abs=1e-12)
    assert g.values[i, 0] == pytest.approx(1.0, abs=1e-12)
    u3 = GridFunction.from_callable(dom, lambda x: x[:, 0] ** 3)
    g3 = horizontal_gradient(e2, u3)
    h = dom.h
    expected = 3 * g3.centers[:, 0] ** 2 + h * h / 4.0
    assert np.abs(g3.values[:, 0] - expected).max() < 1e-12


def test_gradient_masked_cells(e2):
    dom = GridDomain.disc(1.0, (33, 33))
    u = GridFunction.from_callable(dom, lambda x: x[:, 0])
    g = horizontal_gradient(e2, u)
    corners = [dom.mask[i:i + 32, j:j + 32] for i in (0, 1) for j in (0, 1)]
    included = np.all([c > 0 for c in corners], axis=0) & np.any([c == INTERIOR for c in corners], axis=0)
    assert len(g.values) == int(np.count_nonzero(included))


def test_gradient_heisenberg_frame(heis):
    dom = GridDomain.box([(-1, 1)] * 3, (9, 9, 9))
    u = GridFunction.from_callable(dom, lambda x: 2 * x[:, 0] - x[:, 1])
    g = horizontal_gradient(heis, u)
    assert np.abs(g.values - np.array([2.0, -1.0])).max() < 1e-13
    ut = GridFunction.from_callable(dom, lambda x: x[:, 2])
    gt = horizontal_gradient(heis, ut)
    assert np.abs(gt.values[:, 0] + 0.5 * gt.centers[:, 1]).max() < 1e-13
    assert np.abs(gt.values[:, 1] - 0.5 * gt.centers[:, 0]).max() < 1e-13


# --- p-energy --------------------------------------------------------------------

def test_energy_constant_zero():
    dom = grid2()
    u = GridFunction.from_callable(dom, lambda x: np.full(len(x), 3.0))
    assert p_energy(u, I2, 3.0, 0.0) == 0.0


def test_energy_linear_unit():
    dom = GridDomain.box([(0, 1)], (33,))
    u = GridFunction.from_callable(dom, lambda x: x[:, 0])
    for p in (1.5, 2.0, 3.0):
        assert p_energy(u, MatrixField.identity(1), p, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_energy_disc_area():
    # u = x on the unit-disc mask integrates |grad u|^2 = 1 over the disc;
    # the boundary collar inflates the area by O(h), halving under refinement
    errs = {}
    for n in (65, 129):
        dom = GridDomain.disc(1.0, (n, n))
        u = GridFunction.from_callable(dom, lambda x: x[:, 0])
        errs[n] = abs(p_energy(u, I2, 2.0, 0.0) - math.pi)
    assert errs[65] < 0.35
    assert errs[129] < 0.6 * errs[65]


def test_energy_regularization_offset():
    dom = GridDomain.box([(0, 1)], (17,))
    u = GridFunction.from_callable(dom, lambda x: np.zeros(len(x)))
    delta = 1e-2
    assert p_energy(u, MatrixField.identity(1), 2.0, delta) == pytest.approx(
        delta ** 2, rel=1e-12)


# --- weak form --------------------------------------------------------------------

def test_weak_form_affine_flux(e2):
    dom = grid2(33)
    u = GridFunction.from_callable(dom, lambda x: 2 * x[:, 0] + x[:, 1])
    rng = child_rng(0, "wf")
    phi_vals = np.zeros(dom.shape)
    phi_vals[5:-5, 5:-5] = rng.normal(size=(23, 23))
    phi = GridFunction(dom, phi_vals)
    # constant flux field: discrete divergence-theorem residual vanishes
    assert abs(weak_form(u, phi, I2, 3.0, 0.0)) < 1e-12


def test_weak_form_self_difference():
    dom = grid2()
    rng = child_rng(1, "wf2")
    u = GridFunction(dom, rng.normal(size=dom.shape))
    zero = GridFunction(dom, np.zeros(dom.shape))
    assert weak_form(u, zero, I2, 2.5, 0.0) == 0.0


def test_weak_form_boundary_guard():
    dom = grid2()
    u = GridFunction(dom, np.zeros(dom.shape))
    bad = GridFunction(dom, np.ones(dom.shape))
    with pytest.raises(InvalidTestFunctionError):
        weak_form(u, bad, I2, 2.0, 0.0)


def test_weak_form_cauchy_schwarz_bound():
    # |a0^p(u, phi)| <= |X phi|_A |X u|_A^{p-1} on random pairs
    dom = grid2(9)
    rng = child_rng(2, "cs")
    for p in (1.5, 2.0, 3.0):
        for _ in range(34):
            u = GridFunction(dom, rng.normal(size=dom.shape))
            pv = rng.normal(size=dom.shape)
            pv[dom.mask == 2] = 0.0
            phi = GridFunction(dom, pv)
            lhs = abs(weak_form(u, phi, I2, p, 0.0))
            rhs = (p_energy(phi, I2, p, 0.0) ** (1.0 / p)
                   * p_energy(u, I2, p, 0.0) ** ((p - 1.0) / p))
            assert lhs <= rhs * (1 + 1e-10)


def test_weak_form_linear_in_phi():
    dom = grid2(9)
    rng = child_rng(3, "lin")
    u = GridFunction(dom, rng.normal(size=dom.shape))
    pv1, pv2 = rng.normal(size=dom.shape), rng.normal(size=dom.shape)
    pv1[dom.mask == 2] = 0.0
    pv2[dom.mask == 2] = 0.0
    phi1, phi2 = GridFunction(dom, pv1), GridFunction(dom, pv2)
    combo = GridFunction(dom, 1.7 * pv1 - 0.3 * pv2)
    lhs = weak_form(u, combo, I2, 3.0, 1e-6)
    rhs = 1.7 * weak_form(u, phi1, I2, 3.0, 1e-6) - 0.3 * weak_form(u, phi2, I2, 3.0, 1e-6)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_gradient_consistency_fd():
    # weak_form equals (1/p) d/de p_energy(u + e phi) to O(e^2)
    dom = grid2(9)
    rng = child_rng(4, "fdgrad")
    delta = 1e-6
    for p in (1.5, 2.0, 3.0, 4.0):
        uv = rng.normal(size=dom.shape)
        pv = rng.normal(size=dom.shape)
        pv[dom.mask == 2] = 0.0
        u, phi = GridFunction(dom, uv), GridFunction(dom, pv)
        wf = weak_form(u, phi, I2, p, delta)
        for eps in (1e-4, 1e-5):
            up = GridFunction(dom, uv + eps * pv)
            um = GridFunction(dom, uv - eps * pv)
            fd = (p_energy(up, I2, p, delta) - p_energy(um, I2, p, delta)) / (2 * eps)
            assert abs(wf - fd / p) / max(abs(wf), 1e-30) < 1e-5


# a full symmetric coefficient, I + x x^T
FULL2 = MatrixField("full", lambda pts: np.eye(2) + pts[:, :, None] * pts[:, None, :], 2)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_weak_form_is_solver_gradient(p):
    # against the nodal basis function e_i of a free node, the weak form is
    # the solver's gradient component over p, bit for bit
    dom = GridDomain.disc(1.0, (17, 17))
    u = GridFunction(dom, child_rng(5, "wfgrad", str(p)).normal(size=dom.shape))
    disc = _Discretization(euclidean(2), dom, FULL2)
    grad = disc.energy_gradient(u.values, p, 0.0)[1]
    weak = []
    for i in disc.free:
        e = np.zeros(dom.shape)
        e.ravel()[i] = 1.0
        weak.append(weak_form(u, GridFunction(dom, e), FULL2, p, 0.0))
    assert len(weak) == 193
    assert np.array_equal(weak, grad[disc.free] / p)


# --- monotonicity --------------------------------------------------------------------

def test_monotonicity_gap_zero_for_equal():
    dom = grid2(9)
    rng = child_rng(8, "mono0")
    u = GridFunction(dom, rng.normal(size=dom.shape))
    assert monotonicity_gap(u, u.copy(), I2, 3.0, 0.0) == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_monotonicity_gap_nonnegative(p):
    dom = grid2(17)
    rng = child_rng(9, "mono", str(p))
    for _ in range(100):
        u1 = GridFunction(dom, rng.normal(size=dom.shape))
        u2 = GridFunction(dom, rng.normal(size=dom.shape))
        gap = monotonicity_gap(u1, u2, I2, p, 1e-6)
        scale = p_energy(u1, I2, p, 1e-6) + p_energy(u2, I2, p, 1e-6)
        assert gap >= -1e-12 * scale


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_monotonicity_coercivity(p):
    dom = grid2(9)
    rng = child_rng(10, "coer", str(p))
    for _ in range(50):
        v1, v2 = rng.normal(size=dom.shape), rng.normal(size=dom.shape)
        u1, u2 = GridFunction(dom, v1), GridFunction(dom, v2)
        gap = monotonicity_gap(u1, u2, I2, p, 0.0)
        diff = GridFunction(dom, v1 - v2)
        rhs = 2.0 ** (2.0 - p) * p_energy(diff, I2, p, 0.0)
        assert gap >= rhs - 1e-9


# --- Dirichlet solver -----------------------------------------------------------------

def test_solver_harmonic_oracle():
    dom = GridDomain.box([(-1, 1), (-1, 1)], (65, 65))
    psi = GridFunction.from_callable(dom, lambda x: x[:, 0] ** 2 - x[:, 1] ** 2)
    u, rep = solve_dirichlet(I2, 2.0, psi, config=SolverConfig(p=2.0, init="zero"))
    assert rep.converged
    assert np.abs(u.values - psi.values)[dom.mask == 1].max() <= 5e-3


def test_solver_affine_any_p():
    dom = GridDomain.box([(-1, 1), (-1, 1)], (33, 33))
    psi = GridFunction.from_callable(dom, lambda x: 2 * x[:, 0] + 0.5 * x[:, 1] - 1.0)
    for p in (1.5, 2.0, 3.5):
        u, rep = solve_dirichlet(I2, p, psi, config=SolverConfig(p=p))
        assert np.abs(u.values - psi.values)[dom.mask > 0].max() <= 1e-8


def test_solver_radial_oracle_light():
    dom = GridDomain.annulus(0.25, 1.0, (65, 65))
    psi = GridFunction.from_callable(dom, lambda x: np.linalg.norm(x, axis=1) ** 0.5)
    u, rep = solve_dirichlet(I2, 3.0, psi, config=SolverConfig(p=3.0))
    assert rep.converged
    coords = dom.node_coords().reshape(-1, 2)
    rr = np.linalg.norm(coords, axis=1)
    inter = dom.mask.ravel() == 1
    oracle = radial_p_harmonic(3.0, 2, 0.25, 1.0, 0.5, 1.0, rr[inter])
    rel = np.abs(u.values.ravel()[inter] - oracle).max() / np.abs(oracle).max()
    assert rel < 0.01


def test_solver_energy_descent_and_report():
    dom = GridDomain.box([(-1, 1), (-1, 1)], (33, 33))
    psi = GridFunction.from_callable(dom, lambda x: np.exp(x[:, 0]) * np.cos(x[:, 1]))
    u, rep = solve_dirichlet(I2, 3.0, psi, config=SolverConfig(p=3.0, init="zero"))
    hist = np.array(rep.energy_history)
    assert np.all(np.diff(hist) <= 1e-12 * np.maximum(np.abs(hist[:-1]), 1.0))
    assert rep.converged
    assert rep.weak_residual_sup <= 10.0 * 1e-10 * rep.grad_scale / 3.0 * 10


def test_solver_uniqueness_surrogate():
    dom = GridDomain.box([(-1, 1), (-1, 1)], (17, 17))
    psi = GridFunction.from_callable(dom, lambda x: np.exp(x[:, 0]) * np.cos(x[:, 1]))
    u1, _ = solve_dirichlet(I2, 3.0, psi, config=SolverConfig(p=3.0, init="psi"))
    u2, _ = solve_dirichlet(I2, 3.0, psi, config=SolverConfig(p=3.0, init="zero"))
    assert np.abs(u1.values - u2.values).max() < 1e-6


def test_solver_symmetry():
    dom = GridDomain.box([(-1, 1), (-1, 1)], (33, 33))
    psi = GridFunction.from_callable(dom, lambda x: x[:, 0] ** 2 - x[:, 1] ** 2)
    u, _ = solve_dirichlet(I2, 2.0, psi, config=SolverConfig(p=2.0, init="zero"))
    # psi commutes with x -> -x, so the discrete solution does as well
    assert np.abs(u.values - u.values[::-1, :]).max() < 1e-10


def test_solver_nonconvergence_reported():
    dom = GridDomain.annulus(0.25, 1.0, (33, 33))
    psi = GridFunction.from_callable(dom, lambda x: np.linalg.norm(x, axis=1) ** 0.5)
    cfg = SolverConfig(p=3.0, max_iterations=1, init="zero")
    u, rep = solve_dirichlet(I2, 3.0, psi, cfg)
    assert not rep.converged
    assert np.all(np.isfinite(u.values[dom.mask > 0]))


@pytest.mark.parametrize("setting", [{"delta_final": -1.0}, {"delta_final": 0.0},
                                     {"delta_final": math.nan}, {"delta_final": math.inf},
                                     {"tolerance": 0.0}, {"tolerance": -1.0},
                                     {"tolerance": math.nan}, {"tolerance": math.inf}])
def test_solver_config_refuses_out_of_range(setting):
    # a delta_final <= 0 or nan never ends the halving of the delta schedule,
    # and an infinite tolerance passes the first residual
    name, = setting
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        SolverConfig(p=3.0, **setting)


def test_solver_heisenberg_affine(heis):
    dom = GridDomain.box([(-1, 1)] * 3, (13, 13, 13))
    psi = GridFunction.from_callable(dom, lambda x: 1.5 * x[:, 0] - 0.5 * x[:, 1])
    a2 = MatrixField.identity(2)
    u, rep = solve_dirichlet(a2, 2.0, psi, config=SolverConfig(p=2.0, init="zero"),
                             space=heis)
    assert np.abs(u.values - psi.values)[dom.mask > 0].max() < 1e-7


def test_solver_boundary_data_already_solves():
    # x^2 - y^2 solves the discrete problem at 24^2 up to roundoff: the first
    # residual is about 1e-15, so a target relative to it alone is unreachable
    dom = GridDomain.box([(-1, 1), (-1, 1)], (24, 24))
    psi = GridFunction.from_callable(dom, lambda x: x[:, 0] ** 2 - x[:, 1] ** 2)
    u, rep = solve_dirichlet(I2, 2.0, psi, config=SolverConfig(p=2.0))
    assert rep.converged
    assert rep.iterations <= 1
    assert np.abs(u.values - psi.values)[dom.mask > 0].max() < 1e-13


def test_solver_levels_record():
    dom = GridDomain.box([(-1, 1), (-1, 1)], (33, 33))
    psi = GridFunction.from_callable(dom, lambda x: np.exp(x[:, 0]) * np.cos(x[:, 1]))
    cfg = SolverConfig(p=3.0, init="zero")
    _, rep = solve_dirichlet(I2, 3.0, psi, config=cfg)
    assert [lv["delta"] for lv in rep.levels] == cfg.schedule()
    assert sum(lv["newton_steps"] for lv in rep.levels) == rep.iterations
    for lv in rep.levels:
        assert lv["stop"] in {"tolerance", "newton_per_level", "max_iterations",
                              "line_search_failed"}
        assert (len(lv["cg_rtol"]) == len(lv["cg_info"]) == len(lv["preconditioner"])
                == lv["newton_steps"])
        assert set(lv["preconditioner"]) <= {"jacobi"}  # 961 unknowns: below the crossover
        assert lv["line_search_trials"] >= lv["newton_steps"]
        assert all(CG_RTOL <= r <= 0.1 for r in lv["cg_rtol"])
    assert rep.levels[-1]["stop"] == "tolerance"
    assert rep.to_dict()["levels"] == rep.levels

    capped = SolverConfig(p=3.0, max_iterations=2, init="zero")
    _, rep = solve_dirichlet(I2, 3.0, psi, config=capped)
    assert rep.iterations == 2
    assert rep.levels[-1]["stop"] == "max_iterations"


def _exp_cos(x):
    return np.exp(x[:, 0]) * np.cos(x[:, 1])


def _saddle(x):
    return x[:, 0] ** 2 - x[:, 1] ** 2


@pytest.mark.parametrize("p, n, psi_fn, init, max_iterations",
                         [(3.0, 33, _exp_cos, "zero", 400), (3.0, 33, _exp_cos, "zero", 2),
                          (2.0, 33, _exp_cos, "zero", 400), (2.0, 24, _saddle, "psi", 400)],
                         ids=["p3", "p3-capped", "p2", "p2-solved"])
def test_solver_reuses_accepted_evaluation(monkeypatch, p, n, psi_fn, init, max_iterations):
    # one evaluation opens each level visited, each line-search trial is one,
    # and the accepted trial's starts the next Newton step; the end of the
    # solve evaluates again only when it stopped before the final delta.  The
    # rounding floor is taken only at a check the relative target does not
    # decide, and never twice for one evaluation: once per Newton step, once
    # for a level stopped at max_iterations or at a tolerance the floor
    # decided, and once at the end when the last evaluation went unchecked
    # and misses 10 * tolerance * grad_scale
    evals, floors = [], []
    real = _Discretization.energy_gradient
    real_roundoff = _Discretization.gradient_roundoff

    def counted(self, values, p_, delta):
        out = real(self, values, p_, delta)
        evals.append((delta, float(np.max(np.abs(out[1][self.free]))), out[2]))
        return out

    def counted_roundoff(self, values, p_, cache):
        floors.append(cache)
        return real_roundoff(self, values, p_, cache)

    monkeypatch.setattr(_Discretization, "energy_gradient", counted)
    monkeypatch.setattr(_Discretization, "gradient_roundoff", counted_roundoff)
    dom = GridDomain.box([(-1, 1), (-1, 1)], (n, n))
    cfg = SolverConfig(p=p, max_iterations=max_iterations, init=init)
    schedule = cfg.schedule()
    _, rep = solve_dirichlet(I2, p, GridFunction.from_callable(dom, psi_fn), config=cfg)
    stopped_early = rep.levels[-1]["delta"] != schedule[-1]
    assert stopped_early == (max_iterations == 2)
    trials = sum(lv["line_search_trials"] for lv in rep.levels)
    assert len(evals) == len(rep.levels) + trials + stopped_early

    def relative(delta):
        tol = cfg.tolerance if delta == schedule[-1] else max(cfg.tolerance, delta)
        return tol * rep.grad_scale

    assert len({id(cache) for cache in floors}) == len(floors)
    floored = [next(e for e in evals if e[2] is cache) for cache in floors]
    assert all(gnorm > relative(delta) for delta, gnorm, _ in floored)
    last_at = {delta: gnorm for delta, gnorm, _ in evals}  # a level's stop checks its last
    floor_stops = sum(lv["stop"] == "max_iterations"
                      or (lv["stop"] == "tolerance" and last_at[lv["delta"]] > relative(lv["delta"]))
                      for lv in rep.levels)
    unchecked_end = stopped_early or rep.levels[-1]["stop"] == "newton_per_level"
    end_floor = unchecked_end and evals[-1][1] > 10.0 * (cfg.tolerance * rep.grad_scale)
    assert len(floors) == rep.iterations + floor_stops + end_floor
    if psi_fn is _saddle:
        # the boundary datum solves the discrete problem: the floor decides
        # the only stop, and `converged` reuses it
        assert rep.iterations == 0 and rep.converged
        assert floor_stops == 1 and len(floors) == 1


def test_solver_p2_one_level_full_cg_rtol():
    dom = GridDomain.box([(-1, 1), (-1, 1)], (33, 33))
    psi = GridFunction.from_callable(dom, lambda x: np.exp(x[:, 0]) * np.cos(x[:, 1]))
    cfg = SolverConfig(p=2.0, init="zero")
    _, rep = solve_dirichlet(I2, 2.0, psi, config=cfg)
    assert rep.converged
    assert len(rep.levels) == 1
    assert rep.levels[0]["newton_steps"] == rep.iterations == 1
    assert rep.levels[0]["cg_rtol"] == [CG_RTOL]
    assert rep.levels[0]["cg_info"] == [0]
    assert rep.levels[0]["cg_iterations"] > 0


# Final energies of two p = 3 continuation solves, recorded with one BLAS
# thread before the continuation became inexact (70 and 33 Newton steps).
def _box65_p3():
    dom = GridDomain.box([(-1, 1), (-1, 1)], (65, 65))
    psi = GridFunction.from_callable(dom, lambda x: x[:, 0] ** 2 - x[:, 1] ** 2)
    return solve_dirichlet(I2, 3.0, psi, config=SolverConfig(p=3.0))[1]


def _heis13_p3():
    dom = GridDomain.box([(-1, 1)] * 3, (13, 13, 13))
    psi = GridFunction.from_callable(
        dom, lambda x: np.exp(x[:, 0]) * np.cos(x[:, 1]) + x[:, 2])
    return solve_dirichlet(MatrixField.identity(2), 3.0, psi, config=SolverConfig(p=3.0),
                           space=heisenberg1())[1]


@pytest.mark.parametrize("solve, energy", [
    (_box65_p3, 19.816576489251055),
    (_heis13_p3, 29.183476545243003),
], ids=["box65", "heis13"])
def test_solver_inexact_continuation_pinned(solve, energy):
    rep = solve()
    assert rep.converged
    assert rep.final_energy == pytest.approx(energy, rel=1e-10, abs=0.0)
    assert rep.iterations <= 20


def test_asymmetric_coefficients_rejected():
    bad = MatrixField("bad", lambda pts: np.tile(np.array([[1.0, 0.5], [0.0, 1.0]]),
                                                 (len(pts), 1, 1)), m=2)
    dom = grid2(9)
    psi = GridFunction(dom, np.zeros(dom.shape))
    with pytest.raises(InvalidCoefficientsError):
        solve_dirichlet(bad, 2.0, psi)


def test_envelope_thin_cone_violation():
    # <A xi, xi> < 1 only in a cone of half-width ~1e-3 about e1, which
    # sampled directions miss; the smallest eigenvalue does not
    field = MatrixField.diagonal(
        "thin", [lambda pts: np.full(len(pts), 1.0 - 1e-6), lambda pts: np.full(len(pts), 2.0)],
        envelope=(constant_weight(1.0), constant_weight(4.0), 2.0))
    pts = np.linspace(-0.9, 0.9, 20).reshape(10, 2)
    assert field.check_envelope(pts) == 10
    inside = MatrixField.diagonal(
        "inside", [lambda pts: np.full(len(pts), 1.0), lambda pts: np.full(len(pts), 4.0)],
        envelope=(constant_weight(1.0), constant_weight(4.0), 2.0))
    assert inside.check_envelope(pts) == 0


def test_envelope_refuses_singular_set():
    # A = diag(k^{-1}, k), k = |x1|^{-1/3}: an entry is infinite on {x1 = 0}.
    # The suite turns RuntimeWarnings into errors, so the refusal must come
    # before any arithmetic on the infinite entry.
    fix = fixture("axis-degenerate-planar")
    for pts in ([[0.0, 0.3], [0.5, 0.2]], [[0.5, 0.2], [0.0, 0.3], [0.0, -0.1]]):
        with pytest.raises(InvalidCoefficientsError, match=r"not finite at \[0\.0, 0\.3\]"):
            fix.matrix.check_envelope(np.array(pts))
    assert fix.matrix.check_envelope(np.array([[0.5, 0.2], [-0.25, 0.7]])) == 0


def test_degenerate_node_shift():
    # coefficients singular on the axis: cell centers never hit it on even
    # grids, but a field singular on a nodal line exercises the h/100 shift
    k = axis_power_weight(-1.0 / 3.0)

    def fn(pts):
        v = np.zeros((len(pts), 2, 2))
        x = np.abs(pts[:, 0])
        with np.errstate(divide="ignore"):
            v[:, 0, 0] = x ** (1.0 / 3.0)
            v[:, 1, 1] = x ** (-1.0 / 3.0)
        return v

    field = MatrixField("axis", fn, m=2)
    dom = GridDomain.box([(-1, 1), (-1, 1)], (17, 17))
    centers = np.array([[0.0, 0.1], [0.5, 0.5]])
    out, count = field.evaluate_shifted(centers, dom.h, np.array([0.3, 0.0]))
    assert np.all(np.isfinite(out))
    assert count == 1


def test_matrix_field_empty_point_set():
    # a mask with no interior node leaves no cell centre to evaluate at
    matrix = fixture("axis-degenerate-planar").matrix
    out, count = matrix.evaluate_shifted(np.empty((0, 2)), 0.1, np.zeros(2))
    assert out.shape == (0, 2, 2) and count == 0
    assert matrix.check_envelope(np.empty((0, 2))) == 0


# --- Hessian assembly and the multigrid preconditioner -------------------------------

ANISO2 = MatrixField.diagonal("aniso", [lambda pts: 1.0 + pts[:, 0] ** 2,
                                        lambda pts: 2.0 + np.sin(pts[:, 1])])


def _discretization(case):
    if case == "box2":
        return _Discretization(euclidean(2), GridDomain.box([(-1, 1)] * 2, (9, 9)), I2)
    if case == "disc2":
        return _Discretization(euclidean(2), GridDomain.disc(1.0, (13, 13)), ANISO2)
    if case == "heis3":
        return _Discretization(heisenberg1(), GridDomain.box([(-1, 1)] * 3, (7, 7, 7)), I2)
    if case == "annulus2":
        return _Discretization(euclidean(2), GridDomain.annulus(0.3, 1.0, (17, 17)), ANISO2)
    if case == "box3":
        return _Discretization(euclidean(3), GridDomain.box([(-1, 1)] * 3, (7, 7, 7)),
                               MatrixField.identity(3))
    if case == "disc3":
        return _Discretization(euclidean(3), GridDomain.disc(1.0, (11, 11, 11)),
                               MatrixField.identity(3))
    if case == "annulus3":
        return _Discretization(euclidean(3), GridDomain.annulus(0.4, 1.0, (11, 11, 11)),
                               MatrixField.identity(3))
    if case == "full3":
        # a full symmetric coefficient, I + x x^T / 3
        full = MatrixField("full", lambda pts: np.eye(3) + pts[:, :, None] * pts[:, None, :] / 3, 3)
        return _Discretization(euclidean(3), GridDomain.disc(1.0, (11, 11, 11)), full)
    if case == "heis-disc3":
        return _Discretization(heisenberg1(), GridDomain.disc(1.0, (9, 9, 9)), I2)
    if case == "faces3":
        # interior nodes on every face of the array, some boundary and
        # excluded nodes inside it
        mask = child_rng(18, "faces").choice([0, 2] + [INTERIOR] * 8, size=(7, 6, 5))
        mask[0, 0, 0] = mask[-1, -1, -1] = INTERIOR
        return _Discretization(euclidean(3), GridDomain([(0, 6), (0, 5), (0, 4)], (7, 6, 5), mask),
                               MatrixField.identity(3))
    if case == "box2-65":
        return _Discretization(euclidean(2), GridDomain.box([(-1, 1)] * 2, (65, 65)), ANISO2)
    if case == "disc3-25":
        return _Discretization(euclidean(3), GridDomain.disc(1.0, (25, 25, 25)),
                               MatrixField.identity(3))
    if case == "heis3-21":
        return _Discretization(heisenberg1(), GridDomain.box([(-1, 1)] * 3, (21, 21, 21)), I2)
    if case == "disc3-33":
        return _Discretization(euclidean(3), GridDomain.disc(1.0, (33, 33, 33)),
                               MatrixField.identity(3))
    if case == "zhong3-41":
        fix = fixture("zhong-log")
        return _Discretization(euclidean(3), GridDomain.disc(fix.domain_radius, (41, 41, 41)),
                               fix.matrix)
    if case == "disc2-129":
        return _Discretization(euclidean(2), GridDomain.disc(1.0, (129, 129)), ANISO2)
    raise ValueError(case)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("case", ["box2", "disc2", "heis3"])
def test_hessian_matches_differences_and_coo(case, p):
    # the Hessian read out of the stencil into its CSR pattern: symmetric, equal
    # to the COO assembly up to summation order, and the derivative of the
    # free gradient along random free directions (central differences)
    disc = _discretization(case)
    rng = child_rng(12, "hessian", case, str(p))
    values = rng.normal(size=disc.shape)
    delta = 1e-2
    hess = disc.csr(disc.hessian(values, p, delta))
    ref = hessian_coo(disc, values, p, delta)
    scale = abs(ref).max()
    assert hess.shape == ref.shape == (len(disc.free),) * 2
    assert abs(hess - ref).max() <= 1e-14 * scale
    assert abs(hess - hess.T).max() <= 1e-14 * scale
    eps = 1e-5
    for _ in range(3):
        w = rng.normal(size=len(disc.free))
        up, um = values.copy(), values.copy()
        up.ravel()[disc.free] += eps * w
        um.ravel()[disc.free] -= eps * w
        fd = (disc.energy_gradient(up, p, delta)[1]
              - disc.energy_gradient(um, p, delta)[1])[disc.free] / (2 * eps)
        hw = hess @ w
        assert np.abs(fd - hw).max() <= 1e-7 * np.abs(hw).max()


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("case", ["box2", "disc2", "heis3", "full3"])
def test_hessian_summation_order_pinned(monkeypatch, case, p):
    # every CSR entry sums its cells in increasing order, as the slot-map
    # bincount does, so the matrix matches it bit for bit, also when the
    # stencil is filled in many chunks of cells
    disc = _discretization(case)
    values = child_rng(12, "hessian", case, str(p)).normal(size=disc.shape)
    ref = hessian_slot_map(disc, values, p, 1e-2)
    for chunk in (energy._HESSIAN_CHUNK, 5):
        monkeypatch.setattr(energy, "_HESSIAN_CHUNK", chunk)
        hess = disc.csr(disc.hessian(values, p, 1e-2))
        assert np.array_equal(hess.indptr, ref.indptr)
        assert np.array_equal(hess.indices, ref.indices)
        assert np.array_equal(hess.data, ref.data)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("case", ["box2", "disc2", "annulus2", "box3", "disc3", "annulus3",
                                  "heis3", "heis-disc3", "faces3"])
def test_stencil_product_matches_csr_bitwise(case, p):
    # the operator's numpy product adds each row's neighbours from 0.0 in
    # the order of scipy's CSR product, so the two agree bit for bit, also
    # on inputs with exact zeros and -0.0 (the entries toward non-free
    # neighbours add signed zeros to every row); so do the diagonals
    disc = _discretization(case)
    rng = child_rng(18, "stencil", case, str(p))
    stencil = disc.hessian(rng.normal(size=disc.shape), p, 1e-2)
    hess, csr = _StencilHessian(disc, stencil), disc.csr(stencil)
    assert np.array_equal(hess.diagonal(), csr.diagonal())
    signed_zeros = rng.normal(size=len(disc.free))
    signed_zeros[::3], signed_zeros[1::3] = 0.0, -0.0
    for x in (*rng.normal(size=(2, len(disc.free))), signed_zeros):
        y = hess @ x
        assert np.array_equal(y, csr @ x)
        assert np.array_equal(np.signbit(y), np.signbit(csr @ x))
    # the node layout depends only on the mask: computed once per
    # discretization, its columns as intp, which indexing takes unconverted
    other = _StencilHessian(disc, stencil)
    assert other.at is hess.at and other.shifts is hess.shifts
    assert hess.at.dtype == np.intp


@pytest.mark.parametrize("case", ["disc3-33", "heis3-21", "disc2-129"])
def test_hessian_memory_bounded(case):
    # against the bytes of the CSR matrix: the stencil peaks at 1.4-2.4
    # times while it is filled and holds 0.7 times; the operator, with the
    # stencil dropped, holds its bands on the grid's node index, 1.0-1.6 times
    disc = _discretization(case)
    values = child_rng(14, "hessian-memory", case).normal(size=disc.shape)
    _, _, cache = disc.energy_gradient(values, 3.0, 1e-2)
    csr = disc.csr(disc.hessian(values, 3.0, 1e-2, cache))
    x = np.ones(len(disc.free))
    tracemalloc.start()
    try:
        stencil = disc.hessian(values, 3.0, 1e-2, cache)
        held, peak = tracemalloc.get_traced_memory()
        hess = _StencilHessian(disc, stencil)
        del stencil
        y = hess @ x
        held_operator = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    nbytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    assert peak <= 4.0 * nbytes
    assert held <= 1.25 * nbytes
    assert held_operator <= 2.0 * nbytes
    assert np.array_equal(y, csr @ x)


def test_vcycle_setup_memory_bounded():
    # a 41^3 disc with the zhong-log coefficient, 33 395 free unknowns, so the
    # solver preconditions with multigrid.  Against the bytes of the CSR
    # matrix, the V-cycle's set-up peaks at 0.69 times, as it forms R A a
    # block of coarse rows at a time (the whole R A alone is about as large
    # as the matrix), and holds 0.44 times, its coarse operators, which
    # hold their off-diagonal block once (bounds: these plus 10 %)
    disc = _discretization("zhong3-41")
    assert len(disc.free) >= energy.MULTIGRID_MIN_UNKNOWNS
    values = child_rng(19, "vcycle-memory").normal(size=disc.shape)
    hess = disc.csr(disc.hessian(values, 2.0, 1e-8))
    interpolations = disc.interpolations
    tracemalloc.start()
    try:
        vcycle = _VCycle(hess, interpolations)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = hess.data.nbytes + hess.indices.nbytes + hess.indptr.nbytes
    assert peak <= 0.76 * nbytes
    assert held <= 0.48 * nbytes
    assert len(vcycle.levels) == len(interpolations)
    # A B is formed where it is used: the only (K, m, 2^n) array the
    # discretization keeps is B, one (m, 2^n) table broadcast over the cells
    cells, corners = disc.corner_idx.shape
    kept = [name for name, value in vars(disc).items()
            if isinstance(value, np.ndarray) and value.shape == (cells, 3, corners)]
    assert kept == ["b"] and disc.b.strides[0] == 0


def _axis_interpolation(n):
    """Linear interpolation onto the n nodes of an axis from its n // 2 + 1
    coarse nodes, which sit on fine nodes 0, 2, 4, ... (the last one past
    the end of the axis when n is even)."""
    i = np.arange(n)
    odd = i[1::2]
    rows = np.concatenate([i, odd])
    cols = np.concatenate([i // 2, odd // 2 + 1])
    vals = np.concatenate([np.where(i % 2, 0.5, 1.0), np.full(len(odd), 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n // 2 + 1))


def _coarse_free(shape, free):
    """The coarse nodes, on fine nodes 0, 2, 4, ... of each axis, that sit on
    a free node."""
    coarse = 2 * np.indices(tuple(n // 2 + 1 for n in shape)).reshape(len(shape), -1)
    on_grid = np.all(coarse < np.array(shape)[:, None], axis=0)
    coarse_free = np.zeros(coarse.shape[1], dtype=bool)
    coarse_free[on_grid] = free[np.ravel_multi_index(coarse[:, on_grid], shape)]
    return coarse_free


def _kronecker_interpolation(shape, free):
    """P formed over the whole box, the tensor product of the axes'
    interpolations, then restricted to the free rows and the coarse columns
    on free nodes."""
    interp = reduce(sp.kron, [_axis_interpolation(n) for n in shape]).tocsr()
    return interp[free][:, _coarse_free(shape, free)].tocsr()


def _stacked_coarse_space(disc):
    """The finest coarse space [P, S P] stacked as one matrix, P trilinear
    from the free nodes to the coarse nodes on free nodes and S = diag(s),
    s = (-1)^(i+j+k), and s."""
    shape = disc.shape
    free = np.zeros(int(np.prod(shape)), dtype=bool)
    free[disc.free] = True
    p = _kronecker_interpolation(shape, free)
    signs = 1.0 - 2.0 * (np.indices(shape).sum(axis=0).ravel()[free] % 2)
    return sp.hstack([p, sp.diags(signs) @ p]).tocsr(), signs


@pytest.mark.parametrize("case", ["zhong3-41", "box2-65", "heis3-21"])
def test_interpolations_match_kronecker_product(case):
    # each level's P, built on the free rows alone, equals entry for entry
    # (data, indices, indptr and their types) the tensor product formed over
    # the whole box and restricted; the finest as [P^+, P^-]
    disc = _discretization(case)
    shape = disc.shape
    free = np.zeros(int(np.prod(shape)), dtype=bool)
    free[disc.free] = True
    signs = np.indices(shape).sum(axis=0).ravel()[free] % 2
    interps = disc.interpolations
    assert len(interps) >= 2
    for level, ours in enumerate(interps):
        reference = _kronecker_interpolation(shape, free)
        if level == 0:
            reference.indices[np.repeat(signs == 1, np.diff(reference.indptr))] += reference.shape[1]
            reference = sp.csr_matrix((reference.data, reference.indices, reference.indptr),
                                      shape=(reference.shape[0], 2 * reference.shape[1]))
        assert ours.shape == reference.shape
        for part in ("data", "indices", "indptr"):
            assert getattr(ours, part).dtype == getattr(reference, part).dtype
            assert np.array_equal(getattr(ours, part), getattr(reference, part))
        shape, free = tuple(n // 2 + 1 for n in shape), _coarse_free(shape, free)


@pytest.mark.parametrize("case", ["zhong3-41", "box2-65", "heis3-21"])
def test_block_coarse_operators_match_stacked_galerkin(case):
    # every coarse operator of the V-cycle, held as three blocks, equals the
    # Galerkin product of the stacked space [P, S P] and, below it, of
    # block_diag(P, P), formed here by scipy in one product each
    disc = _discretization(case)
    values = child_rng(23, "block-galerkin", case).normal(size=disc.shape)
    hess = disc.csr(disc.hessian(values, 2.0, 1e-8) if case == "zhong3-41"
                    else disc.hessian(values, 3.0, 1e-2))
    vcycle = _VCycle(hess, disc.interpolations)
    stacked, _ = _stacked_coarse_space(disc)
    reference = (stacked.T @ hess @ stacked).tocsr()
    assert len(vcycle.levels) >= 2
    for level, interp in enumerate(disc.interpolations[1:], start=1):
        block = vcycle.levels[level][0]
        ss, sc, cc = block.blocks
        assert np.shares_memory(block.cs.data, sc.data)
        ours = sp.bmat([[ss, sc], [block.cs, cc]]).tocsr()
        assert ours.shape == reference.shape
        assert abs(ours - reference).max() <= 1e-12 * abs(reference).max()
        doubled = sp.block_diag([interp, interp]).tocsr()
        reference = (doubled.T @ reference @ doubled).tocsr()


@pytest.mark.parametrize("case, shapes", [
    ("box2-65", [(3969, 1922), (961, 225), (225, 49)]),
    ("disc3-25", None),
    # 21 -> 11 -> 6 nodes per axis: the second coarsening reaches an even count
    ("heis3-21", [(6859, 1458), (729, 64)]),
], ids=["box2-65", "disc3-25", "heis3-21"])
def test_vcycle_symmetric_positive(case, shapes):
    disc = _discretization(case)
    if shapes is not None:
        assert [interp.shape for interp in disc.interpolations] == shapes
    assert len(disc.interpolations) >= 2
    # the finest interpolation is [P^+, P^-], P's rows at the nodes where
    # s = +1 in the first column half and those where s = -1 in the second:
    # P's entries once, and [P, S P] = [P^+ + P^-, P^+ - P^-]
    split = disc.interpolations[0]
    stacked, signs = _stacked_coarse_space(disc)
    half = split.shape[1] // 2
    assert 2 * split.nnz == stacked.nnz
    rows = np.repeat(signs, np.diff(split.indptr))
    assert np.array_equal(split.indices >= half, rows < 0)
    hadamard = sp.bmat([[sp.eye(half), sp.eye(half)], [sp.eye(half), -sp.eye(half)]])
    assert abs(split @ hadamard - stacked).max() == 0.0
    rng = child_rng(13, "vcycle", case)
    hess = disc.csr(disc.hessian(rng.normal(size=disc.shape), 3.0, 1e-2))
    vcycle = _VCycle(hess, disc.interpolations)
    for _ in range(5):
        x, y = rng.normal(size=(2, len(disc.free)))
        mx, my = vcycle(x), vcycle(y)
        xmx, ymy = mx @ x, my @ y
        assert xmx > 0 and ymy > 0
        assert abs(mx @ y - x @ my) <= 1e-12 * math.sqrt(xmx * ymy)
        # as an iteration the cycle contracts the error in the energy norm
        err = x - vcycle(hess @ x)
        assert err @ (hess @ err) < x @ (hess @ x)


def test_multigrid_cg_iterations_bounded():
    # the catalog's zhong-log probe system (one p = 2 Newton step from the
    # boundary data): multigrid CG takes the iterations measured with the
    # coupled checkerboard coarse space, and no more than twice as many on
    # the finer grid.  Decoupling its two halves (A_sc zeroed) measured 47
    # and 74
    fix = fixture("zhong-log")
    iterations = {}
    for res in (33, 49):
        dom = GridDomain.disc(fix.domain_radius, (res,) * 3)
        psi = GridFunction.from_callable(
            dom, lambda pts: pts[:, 2] / np.maximum(np.linalg.norm(pts, axis=1), 1e-9))
        disc = _Discretization(euclidean(3), dom, fix.matrix)
        _, grad, cache = disc.energy_gradient(psi.values, 2.0, 1e-8)
        hess = disc.csr(disc.hessian(psi.values, 2.0, 1e-8, cache))
        count = [0]
        _, info = _cg(hess, -grad[disc.free], rtol=CG_RTOL, atol=0.0,
                      maxiter=10 * len(disc.free), M=_VCycle(hess, disc.interpolations),
                      callback=lambda _xk: count.__setitem__(0, count[0] + 1))
        assert info == 0
        iterations[res] = count[0]
    assert iterations[33] <= 43
    assert iterations[49] <= 67
    assert iterations[49] <= 2 * iterations[33]


def _cg_runs(hess, csr, b, precond, rtol, maxiter):
    """(solution, info, callbacks) of `_cg` on `hess` and of scipy's cg on
    the same system as the CSR matrix `csr`."""
    out = []
    for solve, a, m in ((_cg, hess, precond),
                        (spla.cg, csr, spla.LinearOperator(csr.shape, matvec=precond,
                                                           dtype=float))):
        count = [0]
        x, info = solve(a, b, rtol=rtol, atol=0.0, maxiter=maxiter, M=m,
                        callback=lambda _xk: count.__setitem__(0, count[0] + 1))
        out.append((x, info, count[0]))
    return out


@pytest.mark.parametrize("case, rtol, maxiter", [
    # Jacobi-preconditioned Newton systems on small grids of the geometries
    # of the benchmark's three p = 3 solves (box, disc, Heisenberg box)
    ("box2", 1e-3, None),
    ("disc2", 1e-10, None),
    ("heis3", 1e-6, None),
    ("box2", 1e-12, 5),      # runs out at maxiter
    ("zero-rhs", 1e-3, None),
    ("vcycle", CG_RTOL, None),
])
def test_cg_matches_scipy_bitwise(case, rtol, maxiter):
    disc = _discretization({"zero-rhs": "box2", "vcycle": "box2-65"}.get(case, case))
    rng = child_rng(17, "cg", case)
    values = rng.normal(size=disc.shape)
    _, grad, cache = disc.energy_gradient(values, 3.0, 1e-2)
    stencil = disc.hessian(values, 3.0, 1e-2, cache)
    hess, csr = _StencilHessian(disc, stencil), disc.csr(stencil)
    b = np.zeros(len(disc.free)) if case == "zero-rhs" else -grad[disc.free]
    if case == "vcycle":
        hess = csr  # the solver builds a V-cycle only on the CSR matrix
        precond = _VCycle(csr, disc.interpolations)
    else:
        diag = hess.diagonal()
        precond = lambda x: x / diag
    ours, scipys = _cg_runs(hess, csr, b, precond, rtol, maxiter or 10 * len(b))
    assert np.array_equal(ours[0], scipys[0])
    assert ours[1:] == scipys[1:]
    assert ours[1] == (maxiter or 0)
    assert (ours[2] == 0) == (case == "zero-rhs")


def test_solver_frees_previous_hessian(monkeypatch):
    # a V-cycle at every Newton step; when the next step assembles its
    # Hessian, neither the previous CSR matrix, which CG multiplies by, nor
    # the V-cycle holding it is alive
    monkeypatch.setattr(energy, "MULTIGRID_MIN_UNKNOWNS", 0)
    monkeypatch.setattr(energy, "MULTIGRID_MAX_RTOL", 1.0)
    real_hessian, real_csr = _Discretization.hessian, _Discretization.csr
    refs = []

    def hessian(self, *args):
        assert all(ref() is None for ref in refs)
        return real_hessian(self, *args)

    def csr(self, stencil):
        matrix = real_csr(self, stencil)
        refs.append(weakref.ref(matrix))
        return matrix

    monkeypatch.setattr(_Discretization, "hessian", hessian)
    monkeypatch.setattr(_Discretization, "csr", csr)
    dom = GridDomain.box([(-1, 1), (-1, 1)], (25, 25))
    psi = GridFunction.from_callable(dom, lambda x: np.exp(x[:, 0]) * np.cos(x[:, 1]))
    _, rep = solve_dirichlet(I2, 3.0, psi, config=SolverConfig(p=3.0, init="zero"))
    assert {pc for lv in rep.levels for pc in lv["preconditioner"]} == {"multigrid"}
    assert len(refs) == rep.iterations >= 3


def test_newton_step_holds_only_what_cg_reads(monkeypatch):
    # a V-cycle at every Newton step; at each CG solve no array of an
    # evaluation cache (s, alpha, v) is alive, the discretization holds no
    # (K, n) cell centres, and its CSR pattern no (free, 3^n) bool table
    monkeypatch.setattr(energy, "MULTIGRID_MIN_UNKNOWNS", 0)
    monkeypatch.setattr(energy, "MULTIGRID_MAX_RTOL", 1.0)
    real_evaluation, real_cg = _Discretization.energy_gradient, energy.spla.cg
    caches, discs, solves = [], [], []

    def energy_gradient(self, *args):
        out = real_evaluation(self, *args)
        caches.extend(weakref.ref(arr) for arr in out[2])
        discs.append(self)
        return out

    def cg(a, b, **kwargs):
        assert all(ref() is None for ref in caches)
        disc = discs[-1]
        n = len(disc.shape)
        held = [x for value in vars(disc).values()
                for x in (value if isinstance(value, tuple) else (value,))
                if isinstance(x, np.ndarray)]
        assert not [x for x in held if x.shape == (len(disc.corner_idx), n)]
        assert not [x for x in held
                    if x.dtype == bool and x.shape == (len(disc.free), 3 ** n)]
        assert "_pattern" in vars(disc)
        solves.append(len(caches))
        return real_cg(a, b, **kwargs)

    monkeypatch.setattr(_Discretization, "energy_gradient", energy_gradient)
    monkeypatch.setattr(energy.spla, "cg", cg)
    dom = GridDomain.box([(-1, 1), (-1, 1)], (25, 25))
    psi = GridFunction.from_callable(dom, lambda x: np.exp(x[:, 0]) * np.cos(x[:, 1]))
    _, rep = solve_dirichlet(I2, 3.0, psi, config=SolverConfig(p=3.0, init="zero"))
    assert {pc for lv in rep.levels for pc in lv["preconditioner"]} == {"multigrid"}
    assert len(solves) == rep.iterations >= 3
