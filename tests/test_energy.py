import math

import numpy as np
import pytest

from degenlap._rand import child_rng
from degenlap.geometry import heisenberg1
from degenlap.grids import GridDomain, GridFunction
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
)

from oracles import radial_p_harmonic

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
    assert len(g.values) == int(np.count_nonzero(dom.included_cells()))


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
    u, rep = solve_dirichlet(I2, 3.0, psi, dom, cfg)
    assert not rep.converged
    assert np.all(np.isfinite(u.values[dom.mask > 0]))


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
        assert len(lv["cg_rtol"]) == len(lv["cg_info"]) == lv["newton_steps"]
        assert lv["line_search_trials"] >= lv["newton_steps"]
        assert all(CG_RTOL <= r <= 0.1 for r in lv["cg_rtol"])
    assert rep.levels[-1]["stop"] == "tolerance"
    assert rep.to_dict()["levels"] == rep.levels

    capped = SolverConfig(p=3.0, max_iterations=2, init="zero")
    _, rep = solve_dirichlet(I2, 3.0, psi, config=capped)
    assert rep.iterations == 2
    assert rep.levels[-1]["stop"] == "max_iterations"


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
        envelope=(constant_weight(1.0, 2), constant_weight(4.0, 2), 2.0))
    pts = np.linspace(-0.9, 0.9, 20).reshape(10, 2)
    assert field.check_envelope(pts) == 10
    inside = MatrixField.diagonal(
        "inside", [lambda pts: np.full(len(pts), 1.0), lambda pts: np.full(len(pts), 4.0)],
        envelope=(constant_weight(1.0, 2), constant_weight(4.0, 2), 2.0))
    assert inside.check_envelope(pts) == 0


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
    out = field.evaluate_shifted(centers, dom.h, np.array([0.3, 0.0]))
    assert np.all(np.isfinite(out))
    assert field.shifted_evaluations == 1
