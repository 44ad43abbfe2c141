import math

import numpy as np
import pytest

from degenlap._rand import child_rng
from degenlap.catalog import FixtureNotFoundError, fixture, fixture_names, verify_fixture


def test_fixture_names_and_lookup():
    assert set(fixture_names()) == {
        "constant", "axis-degenerate-planar", "zhong-log", "finite-distortion-radial"}
    for name in fixture_names():
        fix = fixture(name)
        assert fix.name == name
        assert fix.dim >= 2
    with pytest.raises(FixtureNotFoundError):
        fixture("no-such-fixture")


def test_constant_fixture_claims():
    fix = fixture("constant")
    assert fix.claimed["ap_constant"] == 1.0
    assert fix.matrix is not None
    rep = verify_fixture("constant", budget_scale=0.25, seed=1)
    assert rep["passed"]


def test_axis_fixture_metadata():
    fix = fixture("axis-degenerate-planar")
    assert fix.p == 2.0 and fix.q == 3.0
    assert "A_1" in fix.claimed["classes"] and "RH_2" in fix.claimed["classes"]
    assert fix.discontinuity == "hyperplane x1 = 0"
    # solution formula: sign(x) exp(|x|^{2/3}) sin(2y/3)
    val = fix.solution(np.array([[0.5, 0.3]]))[0]
    expected = math.exp(0.5 ** (2.0 / 3.0)) * math.sin(0.2)
    assert val == pytest.approx(expected, rel=1e-12)
    assert fix.solution(np.array([[-0.5, 0.3]]))[0] == pytest.approx(-expected, rel=1e-12)


def test_axis_fixture_ellipticity_sandwich():
    fix = fixture("axis-degenerate-planar")
    rng = child_rng(2, "axis-ell")
    pts = rng.uniform(-1, 1, (100_000, 2))
    pts = pts[np.abs(pts[:, 0]) > 1e-6]
    assert fix.matrix.check_envelope(pts) == 0


def test_zhong_fixture_ellipticity_sandwich():
    fix = fixture("zhong-log")
    rng = child_rng(4, "zh-ell")
    r = math.exp(-1.0)
    pts = rng.uniform(-r, r, (100_000, 3))
    pts = pts[(np.linalg.norm(pts, axis=1) < r) & (np.linalg.norm(pts, axis=1) > 1e-4)]
    assert fix.matrix.check_envelope(pts) == 0


def test_axis_fixture_energy_density_finite_off_axis():
    fix = fixture("axis-degenerate-planar")
    rep = verify_fixture("axis-degenerate-planar", budget_scale=0.25, seed=6)
    by_name = {c["check"]: c for c in rep["checks"]}
    assert by_name["formal-solution-energy-density-finite"]["passed"]
    assert by_name["ellipticity-envelope"]["passed"]


def test_distortion_fixture_verification():
    rep = verify_fixture("finite-distortion-radial", budget_scale=0.25, seed=7)
    by_name = {c["check"]: c for c in rep["checks"]}
    assert by_name["distortion-formulas"]["passed"]
    assert by_name["identity-residual"]["passed"]
    assert rep["passed"]


def test_envelope_pair():
    fix = fixture("axis-degenerate-planar")
    w, v = fix.envelope_pair
    pts = np.array([[0.5, 0.2], [0.1, -0.3]])
    assert np.allclose(w(pts), fix.weight(pts) ** (1.0 - fix.p))
    assert np.allclose(v(pts), fix.weight(pts))
