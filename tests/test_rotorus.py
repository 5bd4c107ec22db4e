"""Tests for rotational contact forms on the solid torus.

Expected values are derived by hand from the coefficient pairs used
below and frozen here:

  * c = r^2/2, d = 1 (the do-nothing plug form): W = r, Reeb = d/dpsi,
    core-section tau = L, volume = L pi R^2.
  * c = k r^2, d = k (1+delta-r^2) with k = 1/(2 pi (1+delta)) (inner
    binding arc): both angular rates = 2 pi everywhere, W/r =
    1/(2 pi^2 (1+delta)), disk-section tau = 1, shift +2 pi, volume on
    [0, r0] = r0^2/(1+delta), every radius on a (1,1)-resonant torus of
    period 1.
  * c = r^2/2, d = 1 + (1-r^2)^2: rotation ratio u = (2/pi)(1-r^2), so
    (1,2) and (1,3) tori sit at r^2 = 1 - pi/4 and 1 - pi/6 with
    periods T = q (d - r d'/2) there.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from reebplug.numerics import PiecewisePoly, RadialFunction, find_root_1d
from reebplug import rotorus as rt

TWO_PI = 2.0 * math.pi


def quad_plug_form(L: float = 1.0, R: float = 1.0, n: int = 41) -> rt.RotForm:
    r = np.linspace(0.0, R, n)
    c = RadialFunction(r, r * r / 2.0, r, parity="even")
    d = RadialFunction(r, np.ones(n), np.zeros(n), parity="even")
    return rt.RotForm(R, L, c, d)


def binding_inner_form(delta: float = 0.1, r0: float = 0.4, n: int = 41) -> rt.RotForm:
    k = 1.0 / (TWO_PI * (1.0 + delta))
    r = np.linspace(0.0, r0, n)
    c = RadialFunction(r, k * r * r, 2.0 * k * r, parity="even")
    d = RadialFunction(r, k * (1.0 + delta - r * r), -2.0 * k * r, parity="even")
    return rt.RotForm(r0, TWO_PI, c, d, kappa=k)


def quartic_d_form(n: int = 201) -> rt.RotForm:
    r = np.linspace(0.0, 1.0, n)
    c = RadialFunction(r, r * r / 2.0, r, parity="even")
    d = RadialFunction(r, 1.0 + (1.0 - r * r) ** 2,
                       -4.0 * r * (1.0 - r * r), parity="even")
    return rt.RotForm(1.0, 1.0, c, d)


def flat_outer_form() -> rt.RotForm:
    # c follows r^2/2, then eases to a constant; d = 1.5 - r^2 keeps W > 0
    knots = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    c = RadialFunction(knots, np.array([0.0, 0.02, 0.08, 0.14, 0.14, 0.14]),
                       np.array([0.0, 0.2, 0.4, 0.0, 0.0, 0.0]), parity="even")
    d = RadialFunction(knots, 1.5 - knots * knots, -2.0 * knots, parity="even")
    return rt.RotForm(1.0, 1.0, c, d)


def close_tori_form() -> rt.RotForm:
    # c = r^2/2 and, on [0.3, 1], d = 10 - 2 pi (r^2/2 + (r - a)^3/3 - 4e-10 r):
    # the (1,1) resonance -d'/(2 pi) = c' reads (r - a)^2 = 4e-10, two tori
    # 4e-5 apart with period W/c' = 10 + O(1e-9); on [0, 0.3] d is an even
    # cubic through the same data at 0.3
    a = 0.61803
    knots = np.array([0.0, 0.3, 1.0])
    d_fn = lambda r: 10.0 - TWO_PI * (r * r / 2.0 + (r - a) ** 3 / 3.0 - 4e-10 * r)
    d_der = lambda r: -TWO_PI * (r + (r - a) ** 2 - 4e-10)
    c = RadialFunction(knots, knots * knots / 2.0, knots, parity="even")
    d = RadialFunction(knots, np.array([d_fn(0.0) + 0.05, d_fn(0.3), d_fn(1.0)]),
                       np.array([0.0, d_der(0.3), d_der(1.0)]), parity="even")
    return rt.RotForm(1.0, 1.0, c, d)


def narrow_dip_form() -> rt.RotForm:
    # c = r^2/2, so W/r = d - r d'/2.  On [0.3, 1], d = 960 - 1e-9 - 4800 r
    # - (40000/9) r^3 gives W/r = 960 - 1e-9 - 2400 r + (20000/9) r^3, whose
    # minimum -1e-9 at r = 0.6 is negative only over a width of about 1e-6;
    # on [0, 0.3], d = 300 - 10000 r^2 keeps W/r = 300
    knots = np.array([0.0, 0.3, 1.0])
    k3 = 40000.0 / 9.0
    d_fn = lambda r: 960.0 - 1e-9 - 4800.0 * r - k3 * r ** 3
    d_der = lambda r: -4800.0 - 3.0 * k3 * r * r
    c = RadialFunction(knots, knots * knots / 2.0, knots, parity="even")
    d = RadialFunction(knots, np.array([300.0, d_fn(0.3), d_fn(1.0)]),
                       np.array([0.0, d_der(0.3), d_der(1.0)]), parity="even")
    return rt.RotForm(1.0, 1.0, c, d)


# -- Reeb field -------------------------------------------------------------

def test_plug_reeb_field_exact():
    form = quad_plug_form(L=0.7)
    for r in (0.0, 0.3, 0.9):
        v = rt.reeb_field(form, (r, 0.0, 0.0))
        assert np.allclose(v, [0.0, 0.0, 1.0], atol=1e-14)


def test_binding_reeb_rates_frozen():
    form = binding_inner_form(delta=0.1)
    for r in (0.0, 1e-3, 0.1, 0.25, 0.4):
        rate_disk, rate_core = rt.angular_rates(form, r)
        assert rate_disk == pytest.approx(TWO_PI, abs=1e-11)
        assert rate_core == pytest.approx(TWO_PI, abs=1e-11)


def test_reeb_against_linear_system():
    # independent oracle: solve [[c, d], [c', d']] v = (1, 0) directly
    for form in (binding_inner_form(0.2, r0=0.5), quartic_d_form()):
        for r in np.linspace(form.radius / 20.0, form.radius, 20):
            A = np.array([
                [float(form.c(r)), float(form.d(r))],
                [float(form.c.derivative(r)), float(form.d.derivative(r))]])
            expected = np.linalg.solve(A, np.array([1.0, 0.0]))
            v = rt.reeb_field(form, (r, 0.1, 0.2))
            assert v[0] == 0.0
            assert np.max(np.abs(v[1:] - expected)) < 1e-10
            assert rt.alpha_pairing(form, r, v) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rt.dalpha_contraction(form, r, v))) < 1e-12


def test_contact_margins():
    assert rt.contact_check(quad_plug_form()) == pytest.approx(1.0, abs=1e-12)
    delta = 0.1
    expected = 1.0 / (2.0 * math.pi ** 2 * (1.0 + delta))
    assert rt.contact_check(binding_inner_form(delta)) == pytest.approx(
        expected, rel=1e-12)


def test_contact_check_raises():
    n = 61
    r = np.linspace(0.0, 1.2, n)
    c = RadialFunction(r, r * r / 2.0, r, parity="even")
    d = RadialFunction(r, (1.0 - r * r) ** 2, -4.0 * r * (1.0 - r * r),
                       parity="even")
    form = rt.RotForm(1.2, 1.0, c, d)
    with pytest.raises(rt.ContactError):
        rt.contact_check(form)


def test_contact_check_catches_narrow_dip():
    form = narrow_dip_form()
    r = np.linspace(0.599, 0.601, 20001)
    assert np.min(form.wronskian(r) / r) < 0.0    # the dip is real
    with pytest.raises(rt.ContactError):
        rt.contact_check(form)


def test_rotform_validation():
    r = np.linspace(0.0, 1.0, 5)
    good_c = RadialFunction(r, r * r / 2.0, r, parity="even")
    good_d = RadialFunction(r, np.ones(5), np.zeros(5), parity="even")
    with pytest.raises(ValueError):
        rt.RotForm(-1.0, 1.0, good_c, good_d)
    with pytest.raises(ValueError):  # c(0) != 0
        rt.RotForm(1.0, 1.0, RadialFunction(r, r * r / 2 + 0.1, r, parity="even"),
                   good_d)
    with pytest.raises(ValueError):  # c''(0) <= 0
        rt.RotForm(1.0, 1.0, RadialFunction(r, r ** 4, 4 * r ** 3, parity="even"),
                   good_d)
    with pytest.raises(ValueError):  # d(0) = 0
        rt.RotForm(1.0, 1.0, good_c,
                   RadialFunction(r, r * r, 2 * r, parity="even"))
    with pytest.raises(ValueError):  # parity
        rt.RotForm(1.0, 1.0,
                   RadialFunction(r, r * r / 2.0, r, parity="none"), good_d)


# -- flow -------------------------------------------------------------------

def test_exact_flow_basics():
    form = quartic_d_form()
    start = (0.6, 0.4, -0.2)
    assert np.allclose(rt.exact_flow(form, start, 0.0), start, atol=0.0)
    a = rt.exact_flow(form, rt.exact_flow(form, start, 0.3), 1.1)
    b = rt.exact_flow(form, start, 1.4)
    assert np.max(np.abs(a - b)) < 1e-12


def test_ode_matches_exact_flow():
    for form, start in ((quad_plug_form(L=0.8), (0.7, 0.3, 0.1)),
                        (binding_inner_form(0.1), (0.25, 1.0, 2.0))):
        horizon = 10.0 * form.core_period
        assert rt.ode_check(form, start, horizon) < 1e-6


def test_ode_radius_drift():
    form = quartic_d_form()
    start = (0.55, 0.0, 0.0)
    horizon = 10.0 * form.core_period

    # re-run the same cartesian integration to expose the radius directly
    from reebplug.numerics import ode_flow

    def field(t, y):
        rad = math.hypot(y[0], y[1])
        rate_disk, rate_core = rt.angular_rates(form, rad)
        return np.array([-y[1] * rate_disk, y[0] * rate_disk, rate_core])

    out = ode_flow(field, np.array([0.55, 0.0, 0.0]), horizon)
    assert abs(math.hypot(out.state[0], out.state[1]) - 0.55) < 1e-8
    assert rt.ode_check(form, start, horizon) < 1e-6


# -- return systems ---------------------------------------------------------

def test_return_system_core_plug():
    form = quad_plug_form(L=0.7)
    sys = rt.return_system(form, "core-angle")
    assert sys.fiber == pytest.approx(0.7)
    rr = np.linspace(0.0, 1.0, 11)
    assert np.allclose(sys.tau(rr), 0.7, atol=1e-13)
    assert np.allclose(sys.shift(rr), 0.0, atol=1e-13)


def test_return_system_disk_binding():
    form = binding_inner_form(delta=0.1)
    sys = rt.return_system(form, "disk-angle")
    rr = np.linspace(0.0, 0.4, 9)
    assert np.allclose(sys.tau(rr), 1.0, atol=1e-12)
    shifts = sys.shift(rr)
    assert np.allclose(np.abs(shifts), TWO_PI, atol=1e-11)
    wrapped = np.abs(shifts - TWO_PI * np.round(shifts / TWO_PI))
    assert np.max(wrapped) < 1e-10


def test_return_system_core_binding():
    form = binding_inner_form(delta=0.1)
    sys = rt.return_system(form, "core-angle")
    assert sys.tau(0.0) == pytest.approx(
        form.core_period * float(form.d(0.0)), abs=1e-13)
    assert sys.tau(1e-4) == pytest.approx(sys.tau(0.0), abs=1e-8)
    assert sys.tau(0.3) == pytest.approx(1.0, abs=1e-12)


def test_return_system_takes_only_the_section_names():
    form = binding_inner_form(delta=0.1)
    for alias in ("disk", "core"):
        with pytest.raises(ValueError, match="unknown section"):
            rt.return_system(form, alias)


def test_return_time_matches_flow_root():
    # independent path: solve for the time the section angle advances a fiber
    form = quartic_d_form()
    sys = rt.return_system(form, "core-angle")
    for r in (0.35, 0.8):
        rate = rt.angular_rates(form, r)[1]
        t = find_root_1d(
            lambda t: rt.exact_flow(form, (r, 0.0, 0.0), t)[2] - form.core_period,
            seed=0.5 / rate)
        assert abs(t - sys.tau(r)) < 1e-10

    form2 = binding_inner_form(0.1)
    sys2 = rt.return_system(form2, "disk-angle")
    rate = rt.angular_rates(form2, 0.2)[0]
    t = find_root_1d(
        lambda t: rt.exact_flow(form2, (0.2, 0.0, 0.0), t)[1] - TWO_PI,
        seed=0.5 / rate)
    assert abs(t - sys2.tau(0.2)) < 1e-10


def test_section_errors():
    with pytest.raises(rt.SectionError):
        rt.return_system(flat_outer_form(), "core-angle")
    with pytest.raises(rt.SectionError):
        rt.return_system(quad_plug_form(), "disk-angle")  # d' = 0 everywhere
    with pytest.raises(ValueError):
        rt.return_system(quad_plug_form(), "meridian")


# -- orbits -----------------------------------------------------------------

def test_orbit_enumerate_plug_band():
    form = quad_plug_form(L=0.5, R=1.0)
    records = rt.orbit_enumerate(form, t_max=1.2, q_max=3)
    kinds = sorted(o.kind for o in records)
    assert kinds == ["core", "resonant-torus"]
    core = next(o for o in records if o.kind == "core")
    band = next(o for o in records if o.kind == "resonant-torus")
    assert core.period == pytest.approx(0.5, abs=1e-12)
    assert band.period == pytest.approx(0.5, abs=1e-12)
    assert (band.p, band.q) == (0, 1)
    assert band.is_band()
    assert band.r_hi == pytest.approx(1.0, abs=1e-12)
    assert band.r_lo < 1e-2
    assert band.residual < 1e-10


def test_orbit_enumerate_binding_band():
    form = binding_inner_form(delta=0.1)
    records = rt.orbit_enumerate(form, t_max=3.0, q_max=2)
    assert sorted(o.kind for o in records) == ["core", "resonant-torus"]
    assert all(o.period == pytest.approx(1.0, abs=1e-11) for o in records)
    band = next(o for o in records if o.kind == "resonant-torus")
    assert (band.p, band.q) == (1, 1)
    assert band.is_band()
    assert band.r_hi == pytest.approx(0.4, abs=1e-12)


def test_orbit_enumerate_isolated_resonances():
    form = quartic_d_form()
    records = rt.orbit_enumerate(form, t_max=6.0, q_max=3)
    tori = [o for o in records if o.kind == "resonant-torus"]
    # (0,1) is the boundary torus: d'(1) = 0 exactly, so u(1) = 0, T = W/c' = 1
    assert sorted((o.p, o.q) for o in tori) == [(0, 1), (1, 2), (1, 3)]
    by_q = {o.q: o for o in tori if o.p != 0}
    boundary = next(o for o in tori if o.p == 0)
    assert boundary.r == pytest.approx(1.0, abs=1e-12)
    assert boundary.period == pytest.approx(1.0, abs=1e-10)
    # hand-derived radii and periods for u = (2/pi)(1-r^2), T = q(d - r d'/2)
    assert by_q[2].r == pytest.approx(math.sqrt(1.0 - math.pi / 4.0), abs=1e-6)
    assert by_q[3].r == pytest.approx(math.sqrt(1.0 - math.pi / 6.0), abs=1e-6)
    t12 = 2.0 * (1.0 + (math.pi / 4.0) ** 2 + (math.pi / 2.0) * (1.0 - math.pi / 4.0))
    t13 = 3.0 * (1.0 + (math.pi / 6.0) ** 2 + (math.pi / 3.0) * (1.0 - math.pi / 6.0))
    assert by_q[2].period == pytest.approx(t12, abs=5e-7)
    assert by_q[3].period == pytest.approx(t13, abs=5e-7)
    assert all(not o.is_band() and o.residual < 1e-8 for o in tori)
    core = next(o for o in records if o.kind == "core")
    assert core.period == pytest.approx(2.0, abs=1e-12)  # P * d(0) = 1 * 2

    # tighter caps prune long-period tori; a short t_max leaves the boundary
    fewer = rt.orbit_enumerate(form, t_max=6.0, q_max=2)
    assert sorted((o.p, o.q) for o in fewer if o.kind == "resonant-torus") == \
        [(0, 1), (1, 2)]
    short = rt.orbit_enumerate(form, t_max=1.5, q_max=3)
    assert [(o.p, o.q) for o in short] == [(0, 1)]


def test_orbit_enumerate_finds_close_tori():
    form = close_tori_form()
    records = rt.orbit_enumerate(form, t_max=40.0, q_max=1)
    tori = sorted(o.r for o in records
                  if (o.p, o.q) == (1, 1) and not o.is_band())
    assert len(tori) == 2
    assert tori[0] == pytest.approx(0.61803 - 2e-5, abs=1e-9)
    assert tori[1] == pytest.approx(0.61803 + 2e-5, abs=1e-9)
    assert rt.tmin(form, t_max=40.0, q_max=1).value == pytest.approx(10.0, abs=1e-8)


# -- oracle: the pair-by-pair search that the batched one replaced -----------

def _reference_record(form, r, p, q, t_max, r_lo=None, r_hi=None):
    W = float(form.wronskian(r))
    if q != 0:
        period = q * form.core_period * W / abs(float(form.c.derivative(r)))
    else:
        period = abs(p) * TWO_PI * W / abs(float(form.d.derivative(r)))
    if not (0.0 < period <= t_max):
        return None, False
    _, phi, psi = rt.exact_flow(form, (r, 0.0, 0.0), period)
    p_rec = int(round(phi / TWO_PI))
    q_rec = int(round(psi / form.core_period))
    res = max(abs(phi - p_rec * TWO_PI), abs(psi - q_rec * form.core_period))
    if q_rec < 0 or (q_rec == 0 and p_rec < 0):
        p_rec, q_rec = -p_rec, -q_rec
    if res > 1e-8 * max(1.0, period):
        return None, True
    return rt.OrbitRecord("resonant-torus", r, p_rec, q_rec, period,
                          r if r_lo is None else r_lo,
                          r if r_hi is None else r_hi, res), False


def reference_orbit_enumerate(form, t_max, q_max):
    """orbit_enumerate as it was before batching: one pass per (p, q)."""
    cp, dp, W = rt._contact(form)
    records, dropped = [], 0
    core_T = form.core_period * float(form.d(0.0))
    if core_T <= t_max:
        _, phi, psi = rt.exact_flow(form, (0.0, 0.0, 0.0), core_T)
        res = max(abs(phi - round(phi / TWO_PI) * TWO_PI),
                  abs(psi - round(psi / form.core_period) * form.core_period))
        records.append(rt.OrbitRecord("core", 0.0, 0, 1, core_T, 0.0, 0.0, res))
    sup_d, sup_c = (max(rate.extreme(W, largest=True)[0], (-rate).extreme(W, largest=True)[0])
                    for rate in (dp, cp))
    p_max = int(math.ceil(t_max * sup_d / TWO_PI))
    q_cap = int(math.ceil(t_max * sup_c / form.core_period))
    q_eff = min(q_max, max(q_cap, 0))
    clamped = p_max > 10000
    p_max = min(p_max, 10000)
    coef_q = -dp.coef / TWO_PI
    coef_p = cp.coef / form.core_period
    to_bernstein = np.array([[1.0, 1.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.0, 1.0]])
    bern_q, bern_p = (coef @ to_bernstein for coef in (coef_q, coef_p))
    ends_q, ends_p = np.abs(bern_q[:, ::2]), np.abs(bern_p[:, ::2])
    gap = 1e-12 * max(1.0, form.radius)
    pairs = [(1, 0)] + [(p, q) for q in range(1, q_eff + 1)
                        for p in range(-p_max, p_max + 1) if math.gcd(abs(p), q) == 1]
    for p, q in pairs:
        g = q * coef_q - p * coef_p
        b = q * bern_q - p * bern_p
        b_lo = np.minimum(np.minimum(b[:, 0], b[:, 1]), b[:, 2])
        b_hi = np.maximum(np.maximum(b[:, 0], b[:, 1]), b[:, 2])
        scale = abs(q) * ends_q + abs(p) * ends_p
        tol = 1e-12 * np.maximum(scale[:, 0], scale[:, 1])
        zero = np.maximum(b_hi, -b_lo) <= tol
        bands = []
        if zero.any():
            edge = np.diff(np.concatenate([[0], zero.astype(int), [0]]))
            for i, j in zip(np.flatnonzero(edge == 1), np.flatnonzero(edge == -1)):
                lo, hi = float(cp.lo[i]), float(cp.hi[j - 1])
                rate, fn = (cp, form.c) if q != 0 else (dp, form.d)
                sign = 1.0 if fn.derivative(0.5 * (lo + hi)) > 0.0 else -1.0
                r = W.restrict(lo, hi).extreme(rate.restrict(lo, hi) * sign)[1]
                rec, bad = _reference_record(form, r if r > 0.0 else hi, p, q, t_max,
                                             r_lo=lo, r_hi=hi)
                dropped += bad
                if rec is not None:
                    records.append(rec)
                bands.append((lo - gap, hi + gap))
        live = np.flatnonzero(~zero & (b_lo <= tol) & (b_hi >= -tol))
        candidates = PiecewisePoly(cp.lo[live], cp.hi[live], g[live],
                                      np.zeros_like(g[live]))
        for r in (candidates.roots() if live.size else ()):
            if any(lo <= r <= hi for lo, hi in bands):
                continue
            rec, bad = _reference_record(form, float(r), p, q, t_max)
            dropped += bad
            if rec is not None:
                records.append(rec)
    records.sort(key=lambda o: (o.period, o.r, o.q, o.p))
    return records, q_cap, clamped, dropped


def _designed_form(i: int) -> rt.RotForm:
    from reebplug.profile import ProfileParams, design_profile, to_rotform
    sets = [(0.01, 0.1, 0.5, 0.1, 0.3), (0.02, 0.05, 0.8, 0.15, 0.5),
            (0.005, 0.2, 1.0, 0.05, 0.25)]
    return to_rotform(design_profile(ProfileParams(*sets[i])))


def _realized_twist_form() -> rt.RotForm:
    from reebplug.plug import realize_rotational
    return realize_rotational(RadialFunction.bump(3.5, 0.04), L=1.0, R=0.05)


@pytest.mark.parametrize("build, t_max, q_max", [
    (lambda: _designed_form(0), 12.0, 16),
    (lambda: _designed_form(1), 12.0, 16),
    (lambda: _designed_form(2), 12.0, 16),
    (_realized_twist_form, 3.0, 3),
    (lambda: quad_plug_form(L=0.5, R=1.0), 1.2, 3),
    (lambda: binding_inner_form(delta=0.1), 3.0, 2),
    (quartic_d_form, 6.0, 3),
    (quartic_d_form, 1.5, 3),
    (close_tori_form, 40.0, 1),
], ids=["design0", "design1", "design2", "realized-twist", "plug-band",
        "binding-band", "isolated", "isolated-short", "close-tori"])
def test_orbit_enumerate_matches_pairwise_reference(build, t_max, q_max):
    form = build()
    found = rt.orbit_enumerate(form, t_max, q_max)
    records, q_cap, clamped, dropped = reference_orbit_enumerate(form, t_max, q_max)
    assert list(found) == records   # dataclass equality: floats bit for bit
    assert (found.q_cap, found.clamped, found.dropped) == (q_cap, clamped, dropped)


def test_grouped_roots_keep_each_pairs_knot_root():
    # Two pairs whose resonance functions both vanish on the shared knot
    # 0.5.  (A contact form cannot plant this: c' = d' = 0 there would
    # make W vanish.)  Each pair reports its knot root once, and the two
    # pairs' roots are not merged although they coincide.
    lo = np.array([0.2, 0.5, 0.2, 0.5])
    hi = np.array([0.5, 0.8, 0.5, 0.8])
    # g0 = r - 0.5 and g1 = (0.5 - r)(r - 0.3) in the local variable t
    coef = np.array([[-0.3, 0.3, 0.0], [0.0, 0.3, 0.0],
                     [-0.03, 0.12, -0.09], [0.0, -0.06, -0.09]])
    poly = PiecewisePoly(lo, hi, coef, np.zeros_like(coef))
    r, pair = poly.roots(groups=np.array([0, 0, 1, 1]))
    assert pair.tolist() == [0, 1, 1]
    assert r == pytest.approx([0.5, 0.3, 0.5], abs=1e-12)
    assert poly.roots() == pytest.approx([0.3, 0.5], abs=1e-12)


def test_tmin_plug():
    est = rt.tmin(quad_plug_form(L=0.5), t_max=2.0, q_max=2)
    assert est.value == pytest.approx(0.5, abs=1e-12)
    assert est.kind == "core"
    assert est.heuristic
    assert (est.t_max, est.q_max) == (2.0, 2)


def test_tmin_complete_search_is_not_heuristic():
    # c'/W = 1/L = 2, so at most q_cap = ceil(2.0 * 2 / 0.5) = 4 core turns
    # fit below t_max; d' = 0 keeps the disk-turn bound at 0
    est = rt.tmin(quad_plug_form(L=0.5), t_max=2.0, q_max=4)
    assert est.value == pytest.approx(0.5, abs=1e-12)
    assert not est.heuristic


# -- volume -----------------------------------------------------------------

def test_volume_plug_exact():
    form = quad_plug_form(L=0.7, R=0.8)
    vol = rt.volume(form)
    expected = 0.7 * math.pi * 0.64
    assert vol.closed_form == pytest.approx(expected, rel=1e-12)
    assert vol.section == pytest.approx(expected, rel=1e-12)
    assert vol.spread < 1e-9


def test_volume_binding_frozen():
    delta, r0 = 0.1, 0.4
    vol = rt.volume(binding_inner_form(delta, r0))
    assert vol.value == pytest.approx(r0 * r0 / (1.0 + delta), rel=1e-12)
    assert vol.spread < 1e-9


def test_volume_section_fallback():
    # core-angle section is non-transverse here; the disk-angle one is used
    form = flat_outer_form()
    with pytest.raises(rt.SectionError):
        rt.return_system(form, "core-angle")
    vol = rt.volume(form)
    assert vol.section_name == "disk-angle"
    assert vol.spread < 1e-12


# -- serialization ----------------------------------------------------------

def test_rotform_roundtrip():
    form = quartic_d_form(n=31)
    data = json.loads(json.dumps(form.to_dict()))
    back = rt.RotForm.from_dict(data)
    rr = np.linspace(0.0, 1.0, 17)
    assert np.allclose(back.c(rr), form.c(rr), atol=0.0)
    assert np.allclose(back.d(rr), form.d(rr), atol=0.0)
    assert back.core_period == form.core_period
    assert back.kappa == form.kappa
