import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reebplug.numerics import RadialFunction
from reebplug.profile import (ProfileCurve, ProfileError, ProfileParams,
                              design_profile, tau_profile, to_rotform,
                              verify_profile)
from reebplug.rotorus import contact_check, orbit_enumerate, return_system

# shared across tests and the acceptance suite
PARAM_SETS = [
    (0.01, 0.1, 0.5, 0.1, 0.3),
    (0.02, 0.05, 0.8, 0.15, 0.5),
    (0.005, 0.2, 1.0, 0.05, 0.25),
]


@pytest.fixture(scope="module")
def curve():
    return design_profile(ProfileParams(*PARAM_SETS[0]))


def test_params_validation():
    with pytest.raises(ValueError):
        ProfileParams(0.01, 0.1, 0.5, 0.3, 0.1)   # r0 > r1
    with pytest.raises(ValueError):
        ProfileParams(0.01, 0.1, 1.1, 0.1, 0.3)   # rho > 1
    with pytest.raises(ValueError):
        ProfileParams(-0.01, 0.1, 0.5, 0.1, 0.3)
    with pytest.raises(ValueError):
        ProfileParams(0.01, 0.1, 0.5, 0.1, 0.6)   # r1 > rho


def test_infeasible_params_raise():
    # s (1 - r1^2) = 0.182 > delta = 0.05
    with pytest.raises(ProfileError, match="infeasible"):
        design_profile(ProfileParams(0.2, 0.05, 0.5, 0.1, 0.3))


@pytest.mark.parametrize("params", PARAM_SETS)
def test_design_passes_verify(params):
    p = ProfileParams(*params)
    c = design_profile(p)
    report = verify_profile(c)
    assert report.passed, report.first_failure()
    # strictly negative violation quantities on the open conditions
    assert report.condition("B2").margin < 0.0
    assert report.condition("B4").margin < 0.0
    assert report.condition("B5").margin <= 0.0
    assert c.gap() == pytest.approx(1.9 * p.delta, rel=1e-12)
    assert c.gap() <= 2.0 * p.delta


def test_b1_exact_outer_arc(curve):
    p = curve.params
    rr = np.linspace(p.r1, p.rho, 301)
    assert np.max(np.abs(curve.f(rr) - 1.0)) < 1e-14
    assert np.max(np.abs(curve.g(rr) - p.s * (1.0 - rr ** 2))) < 1e-14


def test_b3_line_and_parabola_exact(curve):
    p = curve.params
    rr = np.linspace(0.0, p.r0, 301)
    assert np.max(np.abs(curve.f(rr) + curve.g(rr) - (1.0 + p.delta))) < 1e-13
    ra = np.linspace(0.0, 0.25 * p.r0, 101)
    assert np.max(np.abs(curve.f(ra) - ra ** 2)) < 1e-15
    assert np.max(np.abs(curve.g(ra) - (1.0 + p.delta - ra ** 2))) < 1e-14


def test_contact_quantity_limit(curve):
    # (f'g - fg')/r -> f''(0) g(0) = 2 (1 + delta) as r -> 0
    p = curve.params
    for r in (1e-6, 1e-4, 1e-3):
        fp = curve.f.derivative(r)
        gp = curve.g.derivative(r)
        q = (fp * curve.g(r) - curve.f(r) * gp) / r
        assert q == pytest.approx(2.0 * (1.0 + p.delta), rel=1e-6)


def test_tau_endpoint_values(curve):
    p = curve.params
    tau, report = tau_profile(curve)
    assert tau(0.0) == pytest.approx(1.0, abs=1e-12)
    rr = np.linspace(0.0, p.r0, 200)
    assert np.max(np.abs(tau(rr) - 1.0)) < 1e-12
    assert tau(p.rho) == pytest.approx(1.0 / (1.0 + p.delta), rel=1e-14)
    assert report.passed


def test_tau_monotone_and_bounds(curve):
    p = curve.params
    _, report = tau_profile(curve)
    assert report.monotone_margin <= 1e-10
    assert report.max_value <= 1.0 + 1e-10
    assert report.min_value >= 1.0 / (1.0 + p.delta) - 1e-10
    bound = p.delta / (1.0 + p.delta)
    assert report.sup_deviation <= bound + 1e-12
    # the bound is attained exactly at r = rho
    assert report.sup_deviation == pytest.approx(bound, rel=1e-12)


def test_tau_matches_return_system(curve):
    # independent path through the rotational-form return-time formula
    form = to_rotform(curve)
    rs = return_system(form, "disk-angle")
    tau, _ = tau_profile(curve)
    rr = np.linspace(0.0, curve.params.rho, 500)
    assert np.max(np.abs(rs.tau(rr) - tau(rr))) < 1e-10


def test_shift_values_on_line_and_outer(curve):
    p = curve.params
    form = to_rotform(curve)
    rs = return_system(form, "disk-angle")
    rr = np.linspace(0.01 * p.r0, p.r0, 120)
    shifts = rs.shift(rr)
    # -2 pi = +2 pi mod 2 pi on the page
    assert np.max(np.abs(shifts - 2.0 * math.pi
                         * np.round(shifts / (2.0 * math.pi)))) < 1e-10
    out = np.linspace(p.r1, p.rho, 120)
    assert np.max(np.abs(rs.shift(out))) < 1e-12


def test_to_rotform_contact_and_core_period(curve):
    p = curve.params
    form = to_rotform(curve)
    margin = contact_check(form)
    assert margin > 0.0
    # contact margin limit at the core: 2(1+delta) kappa^2
    limit = 2.0 * (1.0 + p.delta) * form.kappa ** 2
    assert margin <= limit * (1.0 + 1e-9)
    # binding orbit has period exactly 1
    assert 2.0 * math.pi * form.d(0.0) == pytest.approx(1.0, abs=1e-14)
    records = orbit_enumerate(form, t_max=1.01, q_max=1)
    core = next(rec for rec in records if rec.kind == "core")
    assert core.period == pytest.approx(1.0, abs=1e-12)


def test_planted_b2_violation(curve):
    g = curve.g
    ders = g.derivs.copy()
    i = int(np.searchsorted(g.knots, curve.params.r1))
    ders[i] = +0.5
    bad = ProfileCurve(curve.f, RadialFunction(g.knots, g.values, ders,
                                               parity=g.parity), curve.params)
    report = verify_profile(bad)
    cond = report.condition("B2")
    assert not cond.passed
    assert curve.params.r0 < cond.r_at <= curve.params.rho


def test_planted_narrow_b2_bump():
    # on [0.3, 1], g = 0.5 + 1e-9 r - (r - r*)^3 / 3: g' = 1e-9 - (r - r*)^2 is
    # positive only over a width of 6.3e-5 < rho / 10000 around r*, which
    # sits halfway between two points of a 10000-point grid on [0, 1]
    p = ProfileParams(0.01, 0.1, 1.0, 0.3, 0.8)
    r_star = 6000.5 / 9999.0
    knots = np.array([0.0, 0.3, 1.0])
    g_fn = lambda r: 0.5 + 1e-9 * r - (r - r_star) ** 3 / 3.0
    g_der = lambda r: 1e-9 - (r - r_star) ** 2
    g = RadialFunction(knots, np.array([g_fn(0.3) - 0.15 * g_der(0.3), g_fn(0.3), g_fn(1.0)]),
                       np.array([0.0, g_der(0.3), g_der(1.0)]), parity="even")
    f = RadialFunction(knots, knots * knots, 2.0 * knots, parity="even")
    assert g.derivative(r_star) > 0.0                 # the bump is real
    cond = verify_profile(ProfileCurve(f, g, p)).condition("B2")
    assert not cond.passed
    assert cond.r_at == pytest.approx(r_star, abs=1e-4)


def test_planted_b3_violation(curve):
    f = curve.f
    vals = f.values.copy()
    vals[1] += 1e-3   # knot at r_arc, inside the line segment
    bad = ProfileCurve(RadialFunction(f.knots, vals, f.derivs,
                                      parity=f.parity), curve.g, curve.params)
    report = verify_profile(bad)
    cond = report.condition("B3")
    assert not cond.passed
    assert cond.r_at <= curve.params.r0 + 1e-12
    assert cond.margin > 0.0


def test_planted_b4_violation():
    # f dips while g barely moves: the argument of gamma increases
    p = ProfileParams(0.01, 0.1, 1.0, 0.3, 0.8)
    knots = np.array([0.0, 0.4, 0.7, 1.0])
    f = RadialFunction(knots, np.array([0.0, 0.6, 0.4, 1.0]),
                       np.array([0.0, 0.0, -2.0, 0.0]), parity="even")
    g = RadialFunction(knots, np.array([1.1, 0.5, 0.45, 0.1]),
                       np.array([0.0, -0.2, -0.1, -0.5]), parity="even")
    report = verify_profile(ProfileCurve(f, g, p))
    assert not report.condition("B4").passed


def test_planted_b5_violation():
    # late acceleration: gamma' swings counterclockwise from (0,-) to (+,-0)
    p = ProfileParams(0.01, 0.1, 1.0, 0.3, 0.8)
    knots = np.array([0.0, 0.5, 1.0])
    f = RadialFunction(knots, np.array([0.0, 0.25, 1.0]),
                       np.array([0.0, 0.0, 3.0]), parity="even")
    g = RadialFunction(knots, np.array([1.1, 0.9, 0.05]),
                       np.array([0.0, -0.5, -0.02]), parity="even")
    report = verify_profile(ProfileCurve(f, g, p))
    assert not report.condition("B5").passed


def test_tau_requires_b2():
    p = ProfileParams(0.01, 0.1, 1.0, 0.3, 0.8)
    knots = np.array([0.0, 0.5, 1.0])
    f = RadialFunction(knots, np.array([0.0, 0.25, 1.0]),
                       np.array([0.0, 1.0, 1.0]), parity="even")
    g = RadialFunction(knots, np.array([1.1, 1.2, 0.1]),
                       np.array([0.0, 0.0, -0.5]), parity="even")
    with pytest.raises(ProfileError, match="g'"):
        tau_profile(ProfileCurve(f, g, p))


def test_report_serialization(curve):
    report = verify_profile(curve)
    blob = json.dumps(report.to_dict())
    back = json.loads(blob)
    assert back["passed"] is True
    assert {c["name"] for c in back["conditions"]} \
        >= {"B1", "B2", "B3", "B4", "B5"}


def test_curve_serialization_roundtrip(curve):
    blob = json.dumps(curve.to_dict())
    back = ProfileCurve.from_dict(json.loads(blob))
    rr = np.linspace(0.0, curve.params.rho, 137)
    assert np.array_equal(back.f(rr), curve.f(rr))
    assert np.array_equal(back.g(rr), curve.g(rr))
    assert verify_profile(back).passed


@settings(max_examples=8, deadline=None)
@given(
    s=st.floats(0.001, 0.05),
    delta=st.floats(0.02, 0.3),
    rho=st.floats(0.4, 1.0),
    u0=st.floats(0.1, 0.3),
    u1=st.floats(0.3, 0.7),
)
# tau's minimum 1/(1 + delta) sits on the knot r1, where the bridge piece's
# end value reads 1.6e-12 low (its rounding bound is 5e-10) and the outer
# arc's start value is within 6e-15
@example(s=0.0018488303433513984, delta=0.20854788573953909, rho=0.4057795911341834,
         u0=0.3, u1=0.4189844474992267)
# s (1 - r1^2) + (2/3) s r1 (r1 - r0) > delta: a one-cubic bridge pinned by
# B1's end speed g'(r1) = -2 s r1 turns counterclockwise and fails B5
@example(s=0.046875, delta=0.03125, rho=1.0, u0=0.25, u1=0.5)
@example(s=0.048828125, delta=0.044921875, rho=0.5, u0=0.25, u1=0.5)
@example(s=0.03515625, delta=0.02734375, rho=0.75, u0=0.25, u1=0.625)
def test_design_property(s, delta, rho, u0, u1):
    r0 = rho * u0
    r1 = r0 + (rho - r0) * u1
    params = ProfileParams(s, delta, rho, r0, r1)
    assume(params.feasible())
    c = design_profile(params)
    assert verify_profile(c).passed
    _, report = tau_profile(c)
    assert report.passed


def _property_params(s, delta, rho, u0, u1):
    r0 = rho * u0
    return ProfileParams(s, delta, rho, r0, r0 + (rho - r0) * u1)


ORACLE_SETS = [ProfileParams(*ps) for ps in PARAM_SETS] + [
    # the first pinned example of test_design_property
    _property_params(0.0018488303433513984, 0.20854788573953909, 0.4057795911341834,
                     0.3, 0.4189844474992267),
    # s (1 - r1^2) + (2/3) s r1 (r1 - r0) = 0.0359 > delta: no one-cubic bridge
    # passes B5 here
    ProfileParams(0.046875, 0.03125, 1.0, 0.25, 0.625),
]


@pytest.mark.parametrize("p", ORACLE_SETS)
def test_stacked_family_matches_per_candidate_design(p):
    # the constructed curve passes every condition and the tau report
    c = design_profile(p)
    report = verify_profile(c)
    assert report.passed, report.first_failure()
    assert report.condition("B5").margin <= 0.0
    _, tau = tau_profile(c)
    assert tau.passed, tau.to_dict()
    assert c.gap() == pytest.approx(1.9 * p.delta, rel=1e-12)


def test_design_builds_no_curve_per_candidate(monkeypatch):
    built = []
    check = RadialFunction.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(RadialFunction, "__post_init__", counted)
    c = design_profile(ProfileParams(*PARAM_SETS[0]))
    # f and g, and nothing else
    assert len(built) == 2 and built[0] is c.f and built[1] is c.g
