import math

import numpy as np
import pytest

from degenlap._rand import child_rng
from degenlap.grids import GridDomain
from degenlap.cli import bump_function
from degenlap.distortion import (
    MappingSpec,
    OrientationReversedError,
    SingularPointError,
    adjugate,
    column_identity_check,
    coordinate_weak_residual,
    distortion_scalars,
    distortion_tensor,
    ellipticity_check,
    jacobian,
    operator_norm,
    radial_exp_map,
    sample_distortion_report,
)
from degenlap.energy import InvalidTestFunctionError


def linear_map(m):
    m = np.asarray(m, dtype=float)
    return MappingSpec("linear", m.shape[0], lambda pts: pts @ m.T)


# --- jacobian -------------------------------------------------------------------

def test_jacobian_identity():
    f = MappingSpec("id", 3, lambda pts: pts)
    assert np.allclose(jacobian(f, [0.3, -0.2, 0.5]), np.eye(3), atol=1e-9)


def test_jacobian_linear_exact():
    m = np.array([[2.0, 1.0], [0.5, -3.0]])
    f = linear_map(m)
    # centered differences are exact on linear maps
    assert np.abs(jacobian(f, [0.4, 0.7], method="fd") - m).max() < 1e-9


def test_jacobian_radial_map_cross_validation():
    f = radial_exp_map(0.1, 3)
    rng = child_rng(0, "jac")
    pts = rng.uniform(-1, 1, (400, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.3][:200]
    da = jacobian(f, pts, method="analytic")
    df = jacobian(f, pts, method="fd", h_fd=1e-6)
    assert np.abs(da - df).max() < 1e-6


def test_jacobian_requires_analytic_when_asked():
    f = MappingSpec("id", 2, lambda pts: pts)
    with pytest.raises(ValueError):
        jacobian(f, [0.0, 0.0], method="analytic")


# --- adjugate / operator norm -----------------------------------------------------

def test_adjugate_identity_on_random_and_singular():
    rng = child_rng(1, "adj")
    mats = rng.normal(size=(100_000, 3, 3))
    mats[::97, :, 2] = mats[::97, :, 0]  # exactly singular rows
    adj = adjugate(mats)
    dets = np.linalg.det(mats)
    residual = np.einsum("kij,kjl->kil", mats, adj) - dets[:, None, None] * np.eye(3)
    norms = operator_norm(mats)
    rel = np.abs(residual).max(axis=(1, 2)) / np.maximum(norms ** 3, 1e-300)
    assert rel.max() <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjugate_sizes(n):
    rng = child_rng(2, "adjn", n)
    m = rng.normal(size=(50, n, n))
    adj = adjugate(m)
    res = np.einsum("kij,kjl->kil", m, adj) - np.linalg.det(m)[:, None, None] * np.eye(n)
    assert np.abs(res).max() < 1e-10 * max(np.abs(m).max() ** n, 1.0)
    # a single matrix given as nested lists
    assert np.array_equal(adjugate(m[0].tolist()), adj[0])


def test_operator_norm_matches_svd():
    rng = child_rng(3, "opn")
    for n in (1, 2, 3, 5):
        m = rng.normal(size=(200, n, n))
        sv = np.linalg.svd(m, compute_uv=False)[:, 0]
        assert np.abs(operator_norm(m) - sv).max() < 1e-12 * sv.max()


# --- distortion scalars ------------------------------------------------------------

def test_scalars_identity():
    sc = distortion_scalars(np.eye(3))
    assert (sc.jacobian_det, sc.op_norm, sc.outer, sc.inner) == (1.0, 1.0, 1.0, 1.0)


def test_scalars_diagonal_case():
    sc = distortion_scalars(np.diag([2.0, 1.0, 1.0]))
    assert sc.jacobian_det == pytest.approx(2.0)
    assert sc.op_norm == pytest.approx(2.0)
    assert sc.outer == pytest.approx(4.0)       # 2^3 / 2
    assert sc.adj_norm == pytest.approx(2.0)    # adj = diag(1, 2, 2)
    assert sc.inner == pytest.approx(2.0)       # 2^3 / 2^2


def test_scalars_orientation_reversed():
    with pytest.raises(OrientationReversedError):
        distortion_scalars(np.diag([-1.0, 1.0, 1.0]))


def test_scalars_singular_matrix_flags():
    sc = distortion_scalars(np.diag([1.0, 1.0, 0.0]))
    assert math.isinf(sc.outer) and math.isinf(sc.inner)


def test_radial_map_distortion_formulas():
    eps, n = 0.1, 3
    f = radial_exp_map(eps, n)
    rng = child_rng(4, "kform")
    pts = rng.uniform(-1, 1, (2000, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.05][:1000]
    dfs = jacobian(f, pts)
    stacked = distortion_scalars(dfs)
    worst_o = worst_i = 0.0
    for k in range(len(pts)):
        sc = distortion_scalars(dfs[k])
        for name in ("jacobian_det", "op_norm", "adj_norm", "outer", "inner"):
            one, many = getattr(sc, name), getattr(stacked, name)[k]
            assert abs(many - one) <= 1e-13 * abs(one)
        r = float(np.linalg.norm(pts[k]))
        ko = r ** (-eps) / eps
        worst_o = max(worst_o, abs(sc.outer - ko) / ko)
        worst_i = max(worst_i, abs(sc.inner - ko ** (n - 1)) / ko ** (n - 1))
        # K-sandwich
        assert sc.inner ** (1.0 / (n - 1)) * (1 - 1e-9) <= sc.outer
        assert sc.outer <= sc.inner ** (n - 1) * (1 + 1e-9)
    assert worst_o < 1e-8
    assert worst_i < 1e-8


# --- distortion tensor -------------------------------------------------------------

def test_tensor_identity():
    assert np.allclose(distortion_tensor(np.eye(3)), np.eye(3), atol=1e-15)


def test_tensor_diagonal():
    g = distortion_tensor(np.diag([2.0, 1.0, 1.0]))
    assert np.allclose(np.diag(g), np.array([4.0, 1.0, 1.0]) / 2.0 ** (2.0 / 3.0))
    assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-9)


def test_tensor_conformal_trivial():
    rng = child_rng(5, "conf")
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    g = distortion_tensor(2.7 * q)
    assert np.abs(g - np.eye(3)).max() < 1e-12


def test_tensor_unimodular_random():
    rng = child_rng(6, "unim")
    for _ in range(200):
        m = rng.normal(size=(3, 3))
        if np.linalg.det(m) <= 1e-6:
            continue
        g = distortion_tensor(m)
        assert abs(np.linalg.det(g) - 1.0) <= 1e-9


# --- ellipticity -------------------------------------------------------------------

def test_ellipticity_identity():
    assert ellipticity_check(np.eye(3), 1.0, 1.0, 3) == 0


def test_ellipticity_diagonal_case():
    df = np.diag([2.0, 1.0, 1.0])
    sc = distortion_scalars(df)
    g_inv = np.linalg.inv(distortion_tensor(df))
    assert ellipticity_check(g_inv, sc.outer, sc.inner, 3) == 0


def test_ellipticity_thin_cone_violation():
    # K_O = 1 forces <G^{-1} xi, xi> >= |xi|^2; the form dips below it only
    # within ~1e-3 of e1, which sampled directions miss
    g_inv = np.diag([1.0 - 1e-6, 2.0, 2.0])
    assert ellipticity_check(g_inv, 1.0, 8.0, 3) == 1
    # a stack counts violating matrices
    stack = np.stack([g_inv, np.diag([1.0, 2.0, 2.0]), g_inv])
    assert ellipticity_check(stack, np.ones(3), np.full(3, 8.0), 3) == 2


def test_ellipticity_radial_map():
    f = radial_exp_map(0.1, 3)
    rng = child_rng(9, "ellr")
    pts = rng.uniform(-1, 1, (4000, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.05][:1000]
    rep = sample_distortion_report(f, pts)
    assert rep.ellipticity_violations == 0
    assert rep.sandwich_violations == 0
    assert rep.det_g_max_error <= 1e-9
    assert rep.epsilon_gate["inner_distortion_class_valid"]


def test_epsilon_gate_flags_invalid():
    f = radial_exp_map(0.6, 3)
    rng = child_rng(11, "gate")
    pts = rng.uniform(0.2, 0.8, (20, 3))
    rep = sample_distortion_report(f, pts)
    assert not rep.epsilon_gate["inner_distortion_class_valid"]


def test_singular_point_guard():
    f = radial_exp_map(0.1, 3)
    with pytest.raises(SingularPointError):
        f(np.zeros((1, 3)))


# --- weak residuals -----------------------------------------------------------------

def test_column_identity_pointwise():
    f = radial_exp_map(0.1, 3)
    rng = child_rng(13, "colid")
    pts = rng.uniform(-1, 1, (400, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.2][:100]
    assert column_identity_check(f, pts) < 1e-8


def test_weak_residual_identity_map():
    # adj Df = I: the quadrature telescopes, residual at rounding level
    dom = GridDomain.box([(-1, 1)] * 2, (33, 33))
    f = MappingSpec("id", 2, lambda pts: pts)
    phi = bump_function(dom, [0.0, 0.0], 0.7)
    tbl = coordinate_weak_residual(f, dom, [phi], tube_widths=[0.0])
    for row in tbl.rows:
        assert abs(row["adj_residual"]) < 1e-12 * max(row["scale"], 1.0)


def test_weak_residual_linear_map():
    m = np.array([[2.0, 0.3], [-0.1, 1.5]])
    dom = GridDomain.box([(-1, 1)] * 2, (33, 33))
    f = linear_map(m)
    phi = bump_function(dom, [0.1, -0.1], 0.6)
    tbl = coordinate_weak_residual(f, dom, [phi], tube_widths=[0.0])
    for row in tbl.rows:
        assert abs(row["adj_residual"]) < 1e-12 * max(row["scale"], 1.0)


def test_weak_residual_two_paths_agree():
    # adj-column route vs p = n weak form with A = G^{-1}: discrete gradients
    # against analytic ones agree to quadrature order
    f = radial_exp_map(0.1, 3)
    dom = GridDomain.box([(-0.5, 0.5)] * 3, (33, 33, 33))
    phi = bump_function(dom, [0.0, 0.0, 0.0], 0.4)
    tbl = coordinate_weak_residual(f, dom, [phi], tube_widths=[0.08])
    for row in tbl.rows:
        assert abs(row["adj_residual"] - row["weak_residual"]) <= 2e-3 * row["scale"]


def test_weak_residual_tube_guard():
    f = radial_exp_map(0.1, 3)
    dom = GridDomain.box([(-0.5, 0.5)] * 3, (17, 17, 17))
    phi = bump_function(dom, [0.0, 0.0, 0.0], 0.3)
    with pytest.raises(InvalidTestFunctionError):
        coordinate_weak_residual(f, dom, [phi], tube_widths=[0.0])


def test_weak_residual_even_resolution_singular_cell():
    # with an even node count a cell center sits on the singular point
    f = radial_exp_map(0.1, 3)
    dom = GridDomain.box([(-0.5, 0.5)] * 3, (16, 16, 16))
    phi = bump_function(dom, [0.0, 0.0, 0.0], 0.3)
    with pytest.raises(SingularPointError):
        coordinate_weak_residual(f, dom, [phi], tube_widths=[0.1])


def test_weak_residual_radial_map_extrapolation_light():
    f = radial_exp_map(0.1, 3)
    dom = GridDomain.box([(-0.5, 0.5)] * 3, (49, 49, 49))
    phi = bump_function(dom, [0.02, -0.01, 0.03], 0.42)
    tbl = coordinate_weak_residual(f, dom, [phi], tube_widths=[0.12, 0.08, 0.04],
                                   ramp_width=0.1)
    assert len(tbl.extrapolated) == 3
    for e in tbl.extrapolated:
        assert abs(e["extrapolated"]) <= 1e-3 * e["scale"]
        for r in e["residuals"]:
            assert abs(r) <= 1e-3 * e["scale"]
