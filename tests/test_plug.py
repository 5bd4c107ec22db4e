import json
import math

import numpy as np
import pytest

from reebplug.diskmap import BumpHarmonic, DiskMap, HamiltonianStep, RadialTwist, compose
from reebplug.numerics import RadialFunction
from reebplug.plug import (PlugError, PlugSystem, make_plug, orbit_periods,
                           realize_rotational, rescale_plug, verify_a, verify_b)
from reebplug.rotorus import orbit_enumerate, return_system, volume


def twist_map(c: float, support: float = 1.0, radius: float = 1.0) -> DiskMap:
    # rho(r) = -c (1 - (r/support)^2)^3, the closed-form action benchmark
    return DiskMap(radius, (RadialTwist(RadialFunction.bump(-c, support)),))


def identity_map(radius: float = 1.0) -> DiskMap:
    return DiskMap(radius, ())


def test_make_plug_identity():
    plug = make_plug(identity_map(0.7), 1.0)
    assert plug.tau_min == pytest.approx(1.0, abs=1e-15)
    zz = np.array([0.0, 0.2 + 0.1j, 0.5j, -0.6])
    assert np.max(np.abs(plug.tau(zz) - 1.0)) < 1e-15
    assert plug.volume() == pytest.approx(math.pi * 0.49, rel=1e-12)


def test_make_plug_twist_accepted():
    # sigma(0) = -c/8 for the cubic bump on support 1
    plug = make_plug(twist_map(4.0), 1.0)
    assert plug.tau_min == pytest.approx(0.5, abs=1e-9)
    assert abs(plug.tau_argmin) < 1e-6


def test_make_plug_twist_rejected_with_witness():
    with pytest.raises(PlugError, match="tau"):
        make_plug(twist_map(16.0), 1.0)


def test_sigma_center_oracle():
    # sigma(0) = integral of t rho(t) dt = amplitude * support^2 / 8
    plug = make_plug(DiskMap(1.0, (RadialTwist(RadialFunction.bump(-2.0, 0.8)),)),
                     1.0)
    # tolerance set by the 257-knot sampling of the analytic bump
    assert plug.sigma.radial_profile(0.0) == pytest.approx(-2.0 * 0.64 / 8.0,
                                                           abs=1e-9)


@pytest.mark.parametrize("L", [0.0, float("nan"), float("inf")])
def test_fiber_length_must_be_positive_and_finite(L):
    with pytest.raises(PlugError, match="fiber length"):
        make_plug(identity_map(0.5), L)


def test_orbit_periods_identity():
    plug = make_plug(identity_map(0.5), 1.0)
    found = orbit_periods(plug, k_max=3)
    assert found
    assert (found.search, found.note) == ({"k_max": 3, "method": "closed-form families"},
                                          "closed-form families, exact for periods <= 3")
    for orb, T in found:
        assert orb.period == 1
        assert T == pytest.approx(1.0, abs=1e-9)


def test_orbit_periods_fixed_point_action():
    plug = make_plug(twist_map(4.0), 1.0)
    found = orbit_periods(plug, k_max=1)
    center = [(o, T) for o, T in found if abs(o.point) < 1e-6]
    assert center
    assert center[0][1] == pytest.approx(0.5, abs=1e-9)


def ham_plug_map(with_twist: bool) -> DiskMap:
    # the ham_plug benchmark's m = 2 step, alone or after its smoothstep twist
    a = 0.3
    h2 = DiskMap(a, (HamiltonianStep((BumpHarmonic(2, "cos", 0.05, a),), time=0.1),))
    if not with_twist:
        return h2
    twist = RadialFunction(np.array([0.0, a]), np.array([-1.0, 0.0]), np.zeros(2),
                           parity="even")
    return compose(DiskMap(a, (RadialTwist(twist),)), h2)


@pytest.mark.parametrize("with_twist", [False, True], ids=["h2", "twist_after_h2"])
def test_orbit_witnesses_are_critical_points(with_twist):
    # a3's shortest orbit and b3's least action sit at the origin or at a
    # critical point of H on r = a/sqrt 5, never in the identity collar
    plug = make_plug(ham_plug_map(with_twist), 1.0, n_r=12, n_theta=8)
    checks = [verify_a(plug, eps=1.0, k_max=2).check("a3"),
              verify_b(plug, n=2, eps=1.0).check("b3")]
    for c in checks:
        r = abs(complex(*c.witness))
        assert r < 1e-9 or abs(r - 0.3 / math.sqrt(5.0)) < 1e-9, (c.name, r)
    if with_twist:
        assert all(abs(complex(*c.witness)) < 1e-9 for c in checks)
    fixed = [o for o, _ in orbit_periods(plug, 1)]
    assert [abs(o.point) for o in fixed if abs(o.point) > 0.2] == [0.3]


def test_volume_identity_three_plug_kinds():
    plugs = [
        make_plug(identity_map(0.8), 1.5),
        make_plug(twist_map(3.0), 2.0),
        make_plug(DiskMap(1.0, (HamiltonianStep(
            (BumpHarmonic(2, "cos", 0.05, 0.7),), time=1.0),)), 1.0),
    ]
    for plug in plugs:
        assert plug.volume_quadrature() == pytest.approx(plug.volume(),
                                                         abs=1e-7)
    # the identity plug has the exact closed form
    assert plugs[0].volume() == pytest.approx(1.5 * math.pi * 0.64, rel=1e-12)


def test_verify_b_identity_map():
    report = verify_b(make_plug(identity_map(1.0), 1.0), n=2, eps=0.1)
    assert report.check("b1").passed
    assert not report.check("b2").passed   # CAL = 0 is not < -pi + 0.1
    assert report.check("b3").passed
    assert report.check("b4").passed
    assert report.t_min == pytest.approx(1.0, abs=1e-9)


def test_verify_b_negative_twist_fails_b3():
    plug = make_plug(DiskMap(1.0, (RadialTwist(RadialFunction.bump(-2.0, 0.8)),)), 1.0)
    report = verify_b(plug, n=2, eps=10.0)
    b3 = report.check("b3")
    assert not b3.passed
    assert b3.margin == pytest.approx(0.16, abs=1e-6)
    assert math.hypot(*b3.witness) < 1e-6


def test_verify_b_planted_fixed_circle():
    # combined profile crosses zero inside the support: a circle of
    # fixed points with negative action
    p1 = RadialFunction.bump(-3.0, 0.8)
    p2 = RadialFunction.bump(3.3, 0.4)
    phi = DiskMap(1.0, (RadialTwist(p1), RadialTwist(p2)))
    total = p1 + p2
    from scipy.optimize import brentq
    r0 = brentq(total, 1e-6, 0.4 - 1e-9)
    plug = make_plug(phi, 1.0)
    assert plug.sigma.radial_profile(r0) < -0.01
    report = verify_b(plug, n=2, eps=10.0)
    b3 = report.check("b3")
    assert not b3.passed
    assert b3.margin > 0.1


def test_verify_b_positive_twist_passes():
    phi = DiskMap(1.0, (RadialTwist(RadialFunction.bump(2.0, 0.8)),))
    eps = math.pi + (2.0 * 0.64 * math.pi / 20.0) * 0.8 ** 2 + 1.0
    report = verify_b(make_plug(phi, 1.0), n=3, eps=eps)
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]


def test_verify_a_identity_examples():
    plug = make_plug(identity_map(0.3), 1.0)
    report = verify_a(plug, eps=0.5, k_max=2)
    assert report.passed
    assert report.t_min == pytest.approx(1.0, abs=1e-9)
    big = make_plug(identity_map(0.5), 1.0)
    report = verify_a(big, eps=0.5, k_max=2)
    assert not report.check("a4").passed
    assert report.check("a3").passed


def test_verify_a_requires_unit_fiber():
    plug = make_plug(identity_map(0.3), 2.0)
    with pytest.raises(PlugError, match="L = 1"):
        verify_a(plug, eps=1.0)


@pytest.mark.parametrize("c,support,n", [(2.0, 0.8, 3), (1.0, 0.5, 4),
                                         (3.0, 1.0, 2)])
def test_verify_b_implies_verify_a(c, support, n):
    phi = DiskMap(1.0, (RadialTwist(RadialFunction.bump(c, support)),))
    plug = make_plug(phi, 1.0)
    eps = plug.volume() + 0.01
    rb = verify_b(plug, n=n, eps=eps)
    assert rb.passed
    ra = verify_a(plug, eps=eps, k_max=max(n, 2))
    assert ra.passed


def test_rescale_identity_arithmetic():
    plug = make_plug(identity_map(0.5), 1.0)
    big = rescale_plug(plug, 2.0)
    assert big.radius == pytest.approx(1.0)
    assert big.L == pytest.approx(4.0)
    assert big.volume() == pytest.approx(16.0 * plug.volume(), rel=1e-12)
    assert big.tau_min == pytest.approx(4.0 * plug.tau_min, rel=1e-12)


def test_rescale_action_scaling_law():
    plug = make_plug(twist_map(3.0), 1.0)
    f = 0.35
    small = rescale_plug(plug, f)
    zz = np.array([0.1, 0.3 + 0.2j, 0.6j, -0.8 + 0.1j])
    lhs = small.sigma(f * zz)
    rhs = f ** 2 * plug.sigma(zz)
    assert np.max(np.abs(lhs - rhs)) < 1e-8
    assert np.max(np.abs(small.tau(f * zz) - f ** 2 * plug.tau(zz))) < 1e-8


def test_realize_zero_twist_is_trivial_form():
    rho = RadialFunction(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2),
                         parity="even")
    form = realize_rotational(rho, L=0.7, R=1.0, n_knots=129)
    rr = np.linspace(0.0, 1.0, 57)
    assert np.max(np.abs(form.d(rr) - 1.0)) < 1e-15
    assert np.max(np.abs(form.c(rr) - 0.5 * rr ** 2)) < 1e-15
    sys = return_system(form, "core-angle")
    assert np.max(np.abs(sys.tau(rr) - 0.7)) < 1e-12
    assert np.max(np.abs(sys.shift(rr))) < 1e-12


# (map, R, bounds on |tau error|, |W L - r tau|, |shift error| for
# r >= 2 % R, |shift error| overall)
REALIZE_CASES = {
    "unit_disk": (RadialFunction.bump(-4.0, 1.0), 1.0, (1e-10, 1e-10, 1e-10, 5e-7)),
    "bench": (RadialFunction.bump(3.5, 0.04), 0.05, (1e-11, 1e-11, 1e-7, 1e-5)),  # twist_plug's map
}


@pytest.mark.parametrize("case", sorted(REALIZE_CASES))
def test_realize_twist_reproduces_return_system(case):
    rho, R, (tol_tau, tol_w, tol_body, tol_shift) = REALIZE_CASES[case]
    plug = make_plug(DiskMap(R, (RadialTwist(rho),)), 1.0)
    form = realize_rotational(rho, L=1.0, R=R)
    sys = return_system(form, "core-angle")
    # probe off the knots too
    rr = np.linspace(0.0, R, 2311)
    tau_true = 1.0 + plug.sigma.radial_profile(rr)
    assert np.max(np.abs(sys.tau(rr) - tau_true)) < tol_tau
    # W L = r tau pointwise
    W = form.wronskian(rr)
    assert np.max(np.abs(W * 1.0 - rr * tau_true)) < tol_w
    # shift is the ratio -L d'/r: pointwise away from the core, at the
    # core only to the error of d' from cubic Hermite data, divided by a
    # vanishing r
    body = rr[rr >= 0.02 * R]
    assert np.max(np.abs(sys.shift(body) - rho(body))) < tol_body
    assert np.max(np.abs(sys.shift(rr) - rho(rr))) < tol_shift


def test_realize_mesh_follows_the_profile():
    # each of the 256 profile pieces is split only as far as the rounding
    # of d's values allows (1 776 knots)
    form = realize_rotational(RadialFunction.bump(3.5, 0.04), L=1.0, R=0.05)
    assert form.d.knots.size <= 2048


def test_realize_flat_tail_is_one_band():
    # rho is read from its data at the support end, so rho(0.04) = 0 and
    # the (0,1) identity band is exactly [support, R]
    form = realize_rotational(RadialFunction.bump(3.5, 0.04), L=1.0, R=0.05)
    bands = [rec for rec in orbit_enumerate(form, t_max=3.0, q_max=3)
             if (rec.p, rec.q) == (0, 1) and rec.is_band()]
    assert [(rec.r_lo, rec.r_hi) for rec in bands] == [(0.04, 0.05)]


def test_realize_volume_three_ways():
    plug = make_plug(twist_map(4.0), 1.0)
    form = realize_rotational(plug.map.combined_profile(), L=1.0, R=1.0)
    vol = volume(form)
    assert vol.spread < 1e-12
    assert vol.value == pytest.approx(plug.volume(), abs=1e-7)


def test_realize_rejects_nonpositive_tau():
    with pytest.raises(PlugError, match="tau"):
        realize_rotational(RadialFunction.bump(-16.0, 1.0), L=1.0, R=1.0)


def test_realize_resonant_torus_dictionary():
    # rho crosses -2 pi: circle of fixed points making one full turn
    eta = 1.4
    rho = RadialFunction.bump(-2.0 * math.pi * eta, 0.9)
    r_star = 0.9 * math.sqrt(1.0 - eta ** (-1.0 / 3.0))
    plug = make_plug(DiskMap(1.0, (RadialTwist(rho),)), 1.0)
    form = realize_rotational(rho, L=1.0, R=1.0)
    records = orbit_enumerate(form, t_max=2.5, q_max=2)
    match = [rec for rec in records
             if rec.q == 1 and rec.p == -1 and not rec.is_band()]
    assert len(match) == 1
    rec = match[0]
    assert rec.r == pytest.approx(r_star, abs=1e-9)
    expected = 1.0 + plug.sigma.radial_profile(r_star)
    assert rec.period == pytest.approx(expected, abs=1e-8)


def test_period_two_orbit_dictionary():
    # rho crosses -pi: a genuine period-2 orbit of the twist
    rho = RadialFunction.bump(-3.5, 0.8)
    r2 = 0.8 * math.sqrt(1.0 - (math.pi / 3.5) ** (1.0 / 3.0))
    plug = make_plug(DiskMap(1.0, (RadialTwist(rho),)), 1.0)
    found = orbit_periods(plug, k_max=2)
    pairs = [(o, T) for o, T in found
             if o.period == 2 and abs(abs(o.point) - r2) < 1e-6]
    assert pairs
    T_plug = pairs[0][1]
    assert T_plug == pytest.approx(2.0 * (1.0 + plug.sigma.radial_profile(r2)),
                                   abs=1e-9)
    form = realize_rotational(rho, L=1.0, R=1.0)
    records = orbit_enumerate(form, t_max=3.0, q_max=2)
    match = [rec for rec in records
             if rec.q == 2 and rec.p == -1 and not rec.is_band()]
    assert len(match) == 1
    assert match[0].period == pytest.approx(T_plug, abs=1e-8)


def test_plug_serialization_roundtrip():
    plug = make_plug(twist_map(4.0), 1.0)
    back = PlugSystem.from_dict(json.loads(json.dumps(plug.to_dict())))
    assert back.radius == plug.radius
    assert back.L == plug.L
    assert back.tau_min == pytest.approx(plug.tau_min, rel=1e-12)
    zz = np.array([0.1, 0.4 + 0.3j])
    assert np.max(np.abs(back.tau(zz) - plug.tau(zz))) < 1e-12
