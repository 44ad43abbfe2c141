import math
import os
import signal
import time

import numpy as np
import pytest

from degenlap import catalog
from degenlap._rand import child_rng
from degenlap.catalog import FixtureNotFoundError, fixture, fixture_names, verify_fixture
from degenlap.weights import ap_constant, rh_constant


def test_fixture_names_and_lookup():
    assert set(fixture_names()) == {
        "constant", "axis-degenerate-planar", "zhong-log", "finite-distortion-radial"}
    for name in fixture_names():
        fix = fixture(name)
        assert fix.name == name
        assert fix.space.n >= 2
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



@pytest.mark.parametrize("estimate, seed", [("rh3", 4), ("rh3", 7), ("a2", 6)])
def test_zhong_log_constants_not_flagged(estimate, seed):
    """The zhong-log degeneracy k is in A_2 and RH_3, and at the catalog's
    settings these seeds are not flagged unbounded-suspected.  It pins seeds:
    which seeds flag moves with every stream, and ROADMAP item 1 replaces the
    rule itself."""
    fix = fixture("zhong-log")
    args = (fix.space, fix.domain, (2e-3, 0.5))
    if estimate == "rh3":
        trace = rh_constant(fix.weight, 3.0, *args, balls=512, budget=2048, seed=seed).rh_estimate
    else:
        trace = ap_constant(fix.weight, 2.0, *args, balls=512, budget=2048, seed=seed).ap_estimate
    assert not trace.unbounded_suspected


# The zhong-log solve probe runs in a forked worker (catalog._ProbeWorker).
# These cases use the cheap 33^3 probe (budget_scale < 1) at one seed.
PROBE_ARGS = (0.25, 3)


@pytest.fixture
def reaped():
    """After the case, this process has no child left, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Turns a hang into a failure: SIGALRM after 60 s raises TimeoutError."""
    def expire(signum, frame):
        raise TimeoutError("the probe's worker was not joined within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def probe_in_process():
    return catalog._zhong_solve_probe(fixture("zhong-log"), PROBE_ARGS[0])


def zhong_probe_record(report):
    (check,) = [c for c in report["checks"] if c["check"] == "solve-probe-origin-oscillation"]
    return {key: value for key, value in check.items() if key not in ("check", "passed")}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_zhong_probe_worker_matches_in_process(monkeypatch, reaped, probe_in_process):
    forks = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    report = verify_fixture("zhong-log", *PROBE_ARGS)
    assert len(forks) == 1 and forks[0] > 0
    assert [c["check"] for c in report["checks"]] == [
        "ellipticity-envelope", "a2-finite", "rh3-finite", "solve-probe-origin-oscillation"]
    # bit for bit: repr round-trips every float exactly
    assert repr(zhong_probe_record(report)) == repr(probe_in_process)


def test_zhong_probe_fork_error_falls_back_in_process(monkeypatch, reaped, probe_in_process):
    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    report = verify_fixture("zhong-log", *PROBE_ARGS)
    assert repr(zhong_probe_record(report)) == repr(probe_in_process)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_zhong_probe_worker_exception_reaches_parent(monkeypatch, reaped, deadline):
    def failing(*args):
        raise ValueError(f"probe failed in pid {os.getpid()}")

    monkeypatch.setattr(catalog, "_zhong_solve_probe", failing)
    with catalog._ProbeWorker(PROBE_ARGS[0]) as probe:
        with pytest.raises(ValueError, match="probe failed in pid") as info:
            probe.result()
    assert str(info.value) != f"probe failed in pid {os.getpid()}"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_zhong_probe_worker_killed_raises_promptly(monkeypatch, reaped, deadline):
    monkeypatch.setattr(catalog, "_zhong_solve_probe",
                        lambda *args: os.kill(os.getpid(), signal.SIGKILL))
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=r"killed by signal 9 \(SIGKILL\)"):
        verify_fixture("zhong-log", *PROBE_ARGS)
    assert time.monotonic() - start < 30


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_zhong_probe_worker_killed_when_parent_raises(monkeypatch, reaped, deadline):
    monkeypatch.setattr(catalog, "_zhong_solve_probe", lambda *args: time.sleep(600))
    start = time.monotonic()
    with pytest.raises(KeyError):
        with catalog._ProbeWorker(PROBE_ARGS[0]) as probe:
            assert probe.pid > 0
            raise KeyError("a check of another fixture failed")
    assert time.monotonic() - start < 30


def test_zhong_probe_builds_one_gradient_field(monkeypatch, probe_in_process):
    # the origin's and the off-origin point's Holder fits share one field
    from degenlap import diagnostics

    fields = []
    real = diagnostics.horizontal_gradient
    monkeypatch.setattr(diagnostics, "horizontal_gradient",
                        lambda *args: fields.append(args) or real(*args))
    probe = catalog._zhong_solve_probe(fixture("zhong-log"), PROBE_ARGS[0])
    assert probe["resolution"] == 33 and len(fields) == 1
    assert repr(probe) == repr(probe_in_process)
