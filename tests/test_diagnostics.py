import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlap._rand import child_rng
from degenlap.geometry import Ball, Box
from degenlap.grids import GridDomain, GridFunction
from degenlap.weights import constant_weight
from degenlap.energy import MatrixField, SolverConfig, solve_dirichlet
from degenlap.catalog import fixture
from degenlap.diagnostics import (
    NotPositiveError,
    RadiusTooSmallError,
    continuity_map,
    dyadic_radii,
    fit_harnack_constant,
    gamma_factor,
    harnack_quotient,
    holder_exponent,
    oscillation,
)

I2 = MatrixField.identity(2)


# --- oscillation -----------------------------------------------------------------

def test_oscillation_constant(e2):
    dom = GridDomain.box([(-1, 1), (-1, 1)], (33, 33))
    u = GridFunction.from_callable(dom, lambda x: np.full(len(x), 7.0))
    assert oscillation(u, e2, [0.0, 0.0], [0.5, 0.25, 0.125]) == [0.0, 0.0, 0.0]


def test_oscillation_affine(e2):
    dom = GridDomain.box([(-1, 1), (-1, 1)], (65, 65))
    u = GridFunction.from_callable(dom, lambda x: x[:, 0])
    for r in (0.5, 0.25):
        (osc,) = oscillation(u, e2, [0.0, 0.0], [r])
        assert abs(osc - 2 * r) <= 2 * dom.h


def test_oscillation_monotone_in_radius(e2):
    dom = GridDomain.box([(-1, 1), (-1, 1)], (33, 33))
    rng = child_rng(0, "osc")
    u = GridFunction(dom, rng.normal(size=dom.shape))
    radii = [0.125, 0.25, 0.5, 0.9]
    oscs = oscillation(u, e2, [0.1, -0.2], radii)
    assert all(a <= b for a, b in zip(oscs, oscs[1:]))


def test_oscillation_axis_solution_bounded_below(e2):
    fix = fixture("axis-degenerate-planar")
    dom = GridDomain.disc(1.0, (129, 129))
    u = GridFunction.from_callable(dom, fix.solution)
    radii = [0.2 * 2.0 ** (-j) for j in range(4)]
    oscs = oscillation(u, e2, [0.0, 0.5], radii)
    # discontinuity across the axis keeps the oscillation above the jump size
    jump = 2.0 * math.exp(0.0) * math.sin(0.5 / 1.5) * 0.9
    assert min(oscs) >= jump


def test_oscillation_radius_too_small(e2):
    dom = GridDomain.box([(-1, 1), (-1, 1)], (17, 17))
    u = GridFunction(dom, np.zeros(dom.shape))
    with pytest.raises(RadiusTooSmallError):
        oscillation(u, e2, [0.0, 0.0], [dom.h / 10.0])


def test_dyadic_radii():
    radii = dyadic_radii(0.5, h=0.01)
    assert radii[0] == 0.5
    assert radii[-1] >= 4 * 0.01
    assert all(a / b == 2.0 for a, b in zip(radii, radii[1:]))
    with pytest.raises(RadiusTooSmallError):
        dyadic_radii(0.01, h=0.01)


# --- gamma factor ------------------------------------------------------------------

def test_gamma_values():
    assert gamma_factor(1.0, 0.0) == 0.0
    assert gamma_factor(1.0, math.log(3.0)) == pytest.approx(0.5, abs=1e-15)
    assert gamma_factor(1.0, math.inf) == 1.0
    with pytest.raises(ValueError):
        gamma_factor(-1.0, 1.0)


@given(st.floats(min_value=1e-6, max_value=5.0),
       st.floats(min_value=0.0, max_value=6.0))
@settings(max_examples=200, deadline=None)
def test_gamma_range_and_monotone(c, mk):
    # tanh saturates to 1.0 in floating point beyond C*Mk ~ 38; strict
    # inequality is checked on the representable range
    g = gamma_factor(c, mk)
    assert 0.0 <= g < 1.0
    assert gamma_factor(c, mk + 1.0) > g or g > 1 - 1e-12


# --- Harnack ------------------------------------------------------------------------

def test_harnack_constant_function(e2):
    dom = GridDomain.box([(-1, 1), (-1, 1)], (33, 33))
    u = GridFunction.from_callable(dom, lambda x: np.full(len(x), 2.5))
    assert harnack_quotient(u, e2, Ball([0.0, 0.0], 0.3)) == 1.0


def test_harnack_scale_invariance(e2):
    dom = GridDomain.box([(-1, 1), (-1, 1)], (33, 33))
    u = GridFunction.from_callable(dom, lambda x: 2.0 + x[:, 0])
    q1 = harnack_quotient(u, e2, Ball([0.0, 0.0], 0.25))
    u2 = GridFunction(dom, 17.0 * u.values)
    q2 = harnack_quotient(u2, e2, Ball([0.0, 0.0], 0.25))
    assert q1 == q2


def test_harnack_positive_harmonic(e2):
    dom = GridDomain.box([(-1, 1), (-1, 1)], (65, 65))
    psi = GridFunction.from_callable(dom, lambda x: 2.0 + x[:, 0])
    u, _ = solve_dirichlet(I2, 2.0, psi, config=SolverConfig(p=2.0, init="zero"))
    ball = Ball([0.0, 0.0], 0.25)
    quot = harnack_quotient(u, e2, ball)
    assert quot >= 1.0
    one = constant_weight(1.0)
    c = fit_harnack_constant(u, one, one, 2.0, e2, [ball], budget=512, seed=1)
    assert quot <= math.exp(c * 1.0) * (1 + 1e-9)


def test_harnack_rejects_nonpositive(e2):
    dom = GridDomain.box([(-1, 1), (-1, 1)], (33, 33))
    u = GridFunction.from_callable(dom, lambda x: x[:, 0])
    with pytest.raises(NotPositiveError):
        harnack_quotient(u, e2, Ball([0.0, 0.0], 0.3))


# --- Holder exponent ------------------------------------------------------------------

def test_holder_affine(e2):
    dom = GridDomain.box([(-1, 1), (-1, 1)], (129, 129))
    u = GridFunction.from_callable(dom, lambda x: x[:, 0])
    radii = dyadic_radii(0.4, dom.h)
    fit = holder_exponent(u, e2, [0.0, 0.0], radii)
    assert abs(fit.alpha - 1.0) <= 0.05
    assert not fit.no_decay


def test_holder_sqrt(e2):
    dom = GridDomain.box([(-1, 1), (-1, 1)], (257, 257))
    u = GridFunction.from_callable(dom, lambda x: np.linalg.norm(x, axis=1) ** 0.5)
    radii = dyadic_radii(0.4, dom.h)
    fit = holder_exponent(u, e2, [0.0, 0.0], radii)
    assert abs(fit.alpha - 0.5) <= 0.05
    assert not fit.no_decay


def test_holder_axis_solution_no_decay(e2):
    fix = fixture("axis-degenerate-planar")
    dom = GridDomain.disc(1.0, (257, 257))
    u = GridFunction.from_callable(dom, fix.solution)
    radii = dyadic_radii(0.25, dom.h)
    fit = holder_exponent(u, e2, [0.0, 0.5], radii)
    assert fit.no_decay
    smooth = holder_exponent(u, e2, [0.5, 0.5], radii)
    assert not smooth.no_decay
    assert smooth.alpha > 0.05


def test_holder_constant_certified(e2):
    dom = GridDomain.box([(-1, 1), (-1, 1)], (65, 65))
    u = GridFunction.from_callable(dom, lambda x: np.full(len(x), 1.0))
    fit = holder_exponent(u, e2, [0.0, 0.0], dyadic_radii(0.4, dom.h))
    assert not fit.no_decay
    assert math.isinf(fit.alpha)


# --- continuity map ----------------------------------------------------------------------

def test_continuity_map_uniform_weight(e2):
    dom = GridDomain.box([(-1, 1), (-1, 1)], (65, 65))
    psi = GridFunction.from_callable(dom, lambda x: x[:, 0] ** 2 - x[:, 1] ** 2)
    u, _ = solve_dirichlet(I2, 2.0, psi, config=SolverConfig(p=2.0, init="zero"))
    box = Box([[-1, 1], [-1, 1]])
    probes = np.array([[0.0, 0.0], [0.3, -0.2], [-0.4, 0.4]])
    rep = continuity_map(u, constant_weight(1.0), e2, box, probes,
                         contraction_constant=1.0, budget=512, seed=3)
    assert all(r.continuity_class == "continuous-predicted" for r in rep.probes)
    assert not rep.discrepancies
    assert all(not r.no_decay for r in rep.probes)


def test_continuity_map_axis_fixture_light(e2):
    fix = fixture("axis-degenerate-planar")
    dom = GridDomain.disc(1.0, (129, 129))
    u = GridFunction.from_callable(dom, fix.solution)
    probes = np.array([[0.0, 0.45], [0.0, -0.3], [0.4, 0.2], [-0.5, -0.4]])
    rep = continuity_map(u, fix.weight, e2, fix.domain, probes,
                         contraction_constant=1.0, budget=1024, seed=4)
    on_axis = [r for r in rep.probes if r.point[0] == 0.0]
    off_axis = [r for r in rep.probes if r.point[0] != 0.0]
    assert all(math.isinf(r.mk_value) and r.gamma == 1.0 and r.no_decay for r in on_axis)
    assert all(r.continuity_class == "discontinuous-suspected" for r in on_axis)
    assert all(not r.mk_diverging and r.gamma < 1.0 for r in off_axis)
    assert all(r.alpha > 0.05 for r in off_axis)


def test_continuity_map_radial_map_origin(e3):
    # inner distortion of the radial map: only the origin is flagged
    fix = fixture("finite-distortion-radial")
    dom = GridDomain.box([(-0.6, 0.6)] * 3, (49, 49, 49))

    def coord1(pts):
        r = np.maximum(np.linalg.norm(pts, axis=1), 1e-12)
        return pts[:, 0] / r * np.exp(r ** 0.1)

    u = GridFunction.from_callable(dom, coord1)
    probes = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, -0.35, 0.1]])
    rep = continuity_map(u, fix.weight, e3, Box([[-0.6, 0.6]] * 3), probes,
                         contraction_constant=1.0, budget=1024, seed=5)
    origin, others = rep.probes[0], rep.probes[1:]
    assert origin.mk_diverging and origin.gamma == 1.0 and origin.no_decay
    assert all(not r.mk_diverging for r in others)
    assert all(r.alpha > 0.05 for r in others)


def test_continuity_map_one_gradient_field_same_records(e2, monkeypatch):
    # every probe's Holder fit reads one gradient field, and each record is
    # what maximal_function and holder_exponent give for that probe alone
    from degenlap import diagnostics
    from degenlap._rand import subseed
    from degenlap.weights import maximal_function

    fix = fixture("axis-degenerate-planar")
    dom = GridDomain.disc(1.0, (65, 65))
    u = GridFunction.from_callable(dom, fix.solution)
    probes = np.array([[0.0, 0.45], [0.0, -0.3], [0.4, 0.2], [-0.5, -0.4], [0.1, 0.0]])
    fields = []
    real = diagnostics.horizontal_gradient
    monkeypatch.setattr(diagnostics, "horizontal_gradient",
                        lambda *args: fields.append(args) or real(*args))
    rep = continuity_map(u, fix.weight, e2, fix.domain, probes,
                         contraction_constant=1.0, budget=256, seed=4)
    assert len(fields) == 1
    lengths = fix.domain.lengths
    mk_radii = [0.25 * float(np.min(lengths)) * 2.0 ** (-j) for j in range(8)]
    osc_radii = dyadic_radii(max(0.125 * float(np.min(lengths)), 8.0 * dom.h), dom.h)
    for i, (x, rec) in enumerate(zip(probes, rep.probes)):
        mk = maximal_function(fix.weight, e2, x, mk_radii, 256, subseed(4, ("cmap", i)),
                              fix.domain)
        fit = holder_exponent(u, e2, x, osc_radii)
        mk_val = math.inf if mk.diverging else mk.value
        alone = (tuple(float(c) for c in x), mk_val, mk.diverging,
                 gamma_factor(1.0, mk_val), fit.alpha, fit.no_decay,
                 "discontinuous-suspected" if mk.diverging else "continuous-predicted")
        assert repr(alone) == repr((rec.point, rec.mk_value, rec.mk_diverging, rec.gamma,
                                    rec.alpha, rec.no_decay, rec.continuity_class))
