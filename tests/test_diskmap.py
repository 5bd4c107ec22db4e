import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import reebplug.diskmap as diskmap_module
from reebplug.cli import main
from reebplug.diskmap import (
    LAM0,
    ActionField,
    BumpHarmonic,
    DiskMap,
    HamiltonianStep,
    PeriodicOrbit,
    PrimitiveOneForm,
    RadialTwist,
    _collar_radii,
    _step_drift,
    _terms_jet,
    action,
    calabi,
    compose,
    periodic_points,
    rescale,
)
from reebplug.numerics import QuadratureSpec, RadialFunction, gauss_piecewise, integrate_disk
from reebplug.plug import make_plug, verify_b

# ---------------------------------------------------------------------------
# Frozen oracles for the twist rho(r) = -c (1 - r^2)^3 on the unit disk.
# sigma' = r^2 rho' / 2 integrates to
#   sigma(r) = -c (1/8 - 3 r^4/4 + r^6 - 3 r^8/8),      sigma(0) = -c/8,
# and CAL = 2 pi int_0^1 sigma r dr = -pi c / 20.
# ---------------------------------------------------------------------------


def sigma_exact(r, c):
    r = np.asarray(r, dtype=float)
    return -c * (0.125 - 0.75 * r ** 4 + r ** 6 - 0.375 * r ** 8)


def cal_exact(c):
    return -np.pi * c / 20.0


def cubed_twist(c, n_knots=1025, radius=1.0):
    prof = RadialFunction.bump(-c, 1.0, power=3, n_knots=n_knots)
    return DiskMap(radius, (RadialTwist(prof),))


def test_twist_rotation_value():
    # rho(1/2) = -27 c / 64 for c = 1
    phi = cubed_twist(1.0)
    z = phi.evaluate(0.5 + 0.0j)
    expected = 0.5 * np.exp(-27j / 64.0)
    assert abs(z - expected) < 1e-9


def test_twist_identity_outside_support():
    prof = RadialFunction.bump(1.0, 0.6, power=3)
    phi = DiskMap(1.0, (RadialTwist(prof),))
    for t in np.linspace(0.0, 2 * np.pi, 17):
        z = 0.9 * np.exp(1j * t)
        assert abs(phi.evaluate(z) - z) < 1e-10
        zb = 1.0 * np.exp(1j * t)
        assert abs(phi.evaluate(zb) - zb) < 1e-10


def test_area_preservation_random_points():
    rng = np.random.default_rng(7)
    phi = DiskMap(1.0, (
        RadialTwist(RadialFunction.bump(0.8, 0.9, power=3)),
        HamiltonianStep((BumpHarmonic(2, "cos", 0.05, 0.7),
                         BumpHarmonic(0, "cos", 0.1, 0.8)), time=0.4),
    ))
    pts = 0.85 * rng.random(12) * np.exp(2j * np.pi * rng.random(12))
    J = phi.evaluate_with_differential(pts)[1]
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    assert np.max(np.abs(det - 1.0)) < 1e-8


def test_action_closed_form_radial():
    c = 2.0
    phi = cubed_twist(c)
    sig = action(phi)
    r = np.linspace(0.0, 1.0, 101)
    z = r.astype(complex)
    assert np.max(np.abs(sig(z) - sigma_exact(r, c))) < 1e-8
    assert abs(sig(0.0 + 0.0j) - (-c / 8.0)) < 1e-9


def test_action_path_vs_radial_kernel():
    # the generic ray integral must agree with the exact radial reduction
    c = 1.3
    phi = cubed_twist(c, n_knots=257)
    sig = action(phi)
    generic = [sig._sigma_path(complex(r)) for r in (0.15, 0.4, 0.77)]
    fast = [sig.radial_profile(r) for r in (0.15, 0.4, 0.77)]
    assert np.max(np.abs(np.array(generic) - np.array(fast))) < 1e-8


def test_action_anchor_and_support():
    phi = cubed_twist(1.0)
    sig = action(phi)
    assert sig(1.0 + 0.0j) == 0.0
    prof = RadialFunction.bump(0.5, 0.5, power=3)
    psi = DiskMap(1.0, (RadialTwist(prof),))
    s2 = action(psi)
    assert s2(0.75 + 0.0j) == 0.0


@st.composite
def hermite_twist_cases(draw):
    """Random even cubic-Hermite profiles ending in whole turns, and radii
    in their support: (knots, values, derivs, radii)."""
    n = draw(st.integers(2, 9))
    support = draw(st.floats(0.05, 2.0))
    cuts = np.cumsum(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    knots = support * np.concatenate([[0.0], cuts / cuts[-1]])
    turns = draw(st.integers(-1, 1))
    values = np.append(draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)),
                       2.0 * np.pi * turns)
    derivs = np.insert(draw(st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n)),
                       0, 0.0) / support
    radii = np.concatenate([knots, support * np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)))])
    return knots, values, derivs, radii


# subnormal data: scale underflows, and the two routes differ by a few
# subnormals (sigma by one, CAL by four)
@example(case=(np.array([0.0, 0.75, 1.5]), np.zeros(3), np.array([0.0, 0.0, 5e-324]),
               np.array([0.0, 0.75, 1.5, 0.0])))
@settings(max_examples=60, deadline=None)
@given(hermite_twist_cases())
def test_twist_action_and_calabi_match_gauss_quadrature(case):
    # sigma and CAL integrate polynomials on the mirrored pieces, while
    # gauss_piecewise samples rho' through the profile's own evaluator, so
    # the two routes share no code
    knots, values, derivs, radii = case
    support = knots[-1]
    prof = RadialFunction(knots, values, derivs, parity="even")
    twist = RadialTwist(prof)
    # an absolute floor at the subnormal scale; above it the bounds are relative
    floor = 8 * np.finfo(float).smallest_subnormal

    def dsigma(r):
        return 0.5 * r * r * prof.derivative(r)

    scale = support * np.max(np.abs(dsigma(np.linspace(0.0, support, 1001))))
    gauss = np.array([-gauss_piecewise(dsigma, knots, r, support) for r in radii])
    assert np.max(np.abs(twist.action(radii) - gauss)) <= max(1e-13 * scale, floor)
    cal = gauss_piecewise(lambda r: 2.0 * np.pi * r * twist.action(r), knots, 0.0, support)
    assert abs(twist.calabi() - cal) <= max(1e-13 * np.pi * support ** 2 * scale, floor)
    assert twist.action(support) == 0.0 and not np.signbit(twist.action(support))


@pytest.mark.parametrize("amplitude", [3.5 * 0.99, 3.5, 3.5 * 1.01])
@pytest.mark.parametrize("support", [0.04 * 0.99, 0.04, 0.04 * 1.01])
def test_positive_bump_twist_sigma_is_never_below_zero(amplitude, support):
    # rho' has a double root at the support of a positive bump, and sigma,
    # exactly 0 there, is positive just inside it: at the root of rho' that
    # the Hermite data put within an ulp of the support it must not come
    # out as rounding noise below 0, or b1 fails at n = 1 (floor 0)
    twist = RadialTwist(RadialFunction.bump(amplitude, support))
    assert twist.action(support) == 0.0
    plug = make_plug(DiskMap(0.05, (twist,)), 1.0)
    assert plug.sigma_min == 0.0
    b1 = verify_b(plug, 1, 10.0).checks[0]
    assert b1.name == "b1" and b1.passed


def test_positive_bump_twists_have_sigma_min_zero():
    # a positive bump's sigma is >= 0 with its minimum 0 at the support; a
    # fixed sweep of amplitudes and supports (rounding of either sign
    # near the support showed up on about one in ten of them)
    rng = np.random.default_rng(24)
    for amplitude, support in zip(rng.uniform(0.5, 6.0, 40), rng.uniform(0.01, 0.09, 40)):
        plug = make_plug(DiskMap(0.1, (RadialTwist(RadialFunction.bump(amplitude, support)),)), 1.0)
        assert plug.sigma_min == 0.0, (amplitude, support)


def test_calabi_closed_form():
    for c in (1.0, 2.5):
        phi = cubed_twist(c)
        assert abs(calabi(phi) - cal_exact(c)) < 1e-8


def test_calabi_identity_zero():
    phi = DiskMap(1.0, ())
    assert calabi(phi) == 0.0


def test_twist_composition_adds_profiles():
    a = RadialFunction.bump(0.7, 1.0, power=3, n_knots=257)
    b = RadialFunction.bump(-0.4, 0.8, power=4, n_knots=257)
    phi = DiskMap(1.0, (RadialTwist(a),))
    psi = DiskMap(1.0, (RadialTwist(b),))
    comp = compose(phi, psi)
    total = comp.combined_profile()
    r = np.linspace(0, 1, 157)
    assert np.max(np.abs(total(r) - (a(r) + b(r)))) < 1e-12
    z = 0.33 * np.exp(0.9j)
    assert abs(comp.evaluate(z) - z * np.exp(1j * total(abs(z)))) < 1e-12


def cocycle_action(phi, psi, z):
    """sigma of phi o psi by the cocycle rule: sigma_phi(psi(z)) + sigma_psi(z)."""
    return action(phi)(psi.evaluate(z)) + action(psi)(z)


def test_compose_action_cocycle():
    a = cubed_twist(1.1, n_knots=257)
    b = cubed_twist(-0.6, n_knots=257)
    direct = action(compose(a, b))
    z = np.array([0.2 + 0.1j, 0.5 - 0.3j, 0.05 + 0.6j])
    assert np.max(np.abs(cocycle_action(a, b, z) - direct(z))) < 1e-9


def test_calabi_additive_under_composition():
    a = cubed_twist(1.1, n_knots=513)
    b = cubed_twist(-0.6, n_knots=513)
    assert abs(calabi(compose(a, b)) - (calabi(a) + calabi(b))) < 1e-7


def test_rescale_laws():
    c, r = 1.4, 0.6
    phi = cubed_twist(c, n_knots=513)
    phir = rescale(phi, r)
    assert abs(phir.radius - r) < 1e-15
    sig = action(phi)
    sigr = action(phir)
    for x in (0.1, 0.25, 0.5):
        z = x + 0.0j
        assert abs(sigr(z * r) - r ** 2 * sig(z)) < 1e-8
    assert abs(calabi(phir) - r ** 4 * calabi(phi)) < 1e-7


def test_lambda_change_pointwise():
    # sigma_{lam0 + du} - sigma_{lam0} = u(phi(z)) - u(z)
    phi = cubed_twist(1.0, n_knots=257)
    u = (BumpHarmonic(1, "cos", 0.2, 0.9), BumpHarmonic(0, "cos", 0.15, 0.8))
    lam = PrimitiveOneForm(u)
    s0 = action(phi)
    s1 = action(phi, lam)
    for z in (0.3 + 0.2j, -0.5 + 0.1j, 0.05 - 0.55j):
        w = complex(phi.evaluate(z))
        delta = lam.u(np.asarray(w)) - lam.u(np.asarray(z))
        assert abs((s1(z) - s0(z)) - delta) < 2e-8


def test_calabi_lambda_independent():
    phi = cubed_twist(0.9, n_knots=257)
    lam = PrimitiveOneForm((BumpHarmonic(2, "sin", 0.1, 0.8),))
    c0 = calabi(phi)
    c1 = calabi(phi, lam, QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10))
    assert abs(c1 - c0) < 2e-8


def test_dsigma_is_pullback_difference():
    # finite differences of sigma against phi*lam - lam at sample points
    phi = DiskMap(1.0, (
        HamiltonianStep((BumpHarmonic(2, "cos", 0.08, 0.7),), time=0.5),
    ))
    sig = action(phi)
    h = 1e-4
    for z in (0.2 + 0.1j, 0.35 - 0.2j):
        for v in (1.0 + 0.0j, 0.0 + 1.0j):
            fd = (sig(z + h * v) - sig(z - h * v)) / (2.0 * h)
            form = sig._pullback_minus(np.asarray(z), v)
            assert abs(fd - float(form)) < 1e-6


def test_path_independence_diagnostic():
    phi = cubed_twist(1.0, n_knots=257)
    sig = action(phi)
    assert sig.path_independence_check(0.4 + 0.3j) < 1e-8
    ham = DiskMap(1.0, (HamiltonianStep((BumpHarmonic(1, "sin", 0.1, 0.6),), time=0.3),))
    sh = action(ham)
    assert sh.path_independence_check(0.25 + 0.15j) < 1e-6


def test_hamiltonian_preserves_hamiltonian():
    # the flow conserves H: H(phi(z)) = H(z)
    step = HamiltonianStep((BumpHarmonic(3, "sin", 0.12, 0.8),), time=0.7)
    phi = DiskMap(1.0, (step,))
    for z in (0.3 + 0.1j, 0.1 - 0.4j, 0.5 + 0.2j):
        assert abs(step.hamiltonian(phi.evaluate(z)) - step.hamiltonian(z)) < 1e-10


def test_periodic_points_identity():
    # the identity's fixed points are one annulus, the whole disk
    phi = DiskMap(1.0, ())
    orbits = periodic_points(phi, k_max=3, n_r=4, n_theta=4)
    assert len(orbits) == 1
    o = orbits[0]
    assert (o.period, o.r_lo, o.r_hi, o.action_sum) == (1, 0.0, 1.0, 0.0)


def test_periodic_points_resonant_circle():
    # rho(r*) = -2 pi / 3 gives period-3 orbits on that circle
    c = 3.0
    phi = cubed_twist(c, n_knots=513)
    rstar = float(np.sqrt(1.0 - (2.0 * np.pi / (3.0 * c)) ** (1.0 / 3.0)))
    orbits = periodic_points(phi, k_max=3, n_r=12, n_theta=6)
    threes = [o for o in orbits if o.period == 3]
    assert threes, "no period-3 orbits found"
    for o in threes:
        assert abs(abs(o.point) - rstar) < 1e-6
        assert abs(o.action_sum - 3.0 * float(sigma_exact(rstar, c))) < 1e-6
    # the only fixed point inside the support is the origin
    ones = [o for o in orbits if o.period == 1 and abs(o.point) < 0.99]
    assert len(ones) == 1 and abs(ones[0].point) < 1e-9


def test_periodic_points_no_interior_resonance():
    # rho < 0 on (0, R), rho(0) > -2 pi: only the origin is fixed inside
    phi = cubed_twist(2.0, n_knots=257)  # rho(0) = -2 > -2 pi
    orbits = periodic_points(phi, k_max=2, n_r=10, n_theta=6)
    interior = [o for o in orbits if abs(o.point) < 0.995]
    assert len(interior) == 1
    assert interior[0].period == 1 and abs(interior[0].point) < 1e-9


# ---------------------------------------------------------------------------
# The seed-by-seed Newton search that the array-wide periodic_points
# replaced, kept as its reference.
# ---------------------------------------------------------------------------

def _iterate(phi, z, k):
    out = np.asarray(z, dtype=complex)
    for _ in range(k):
        out = phi.evaluate(out)
    return out


def _orbit_of(phi, z, k):
    pts = [z]
    for _ in range(k - 1):
        pts.append(complex(phi.evaluate(pts[-1])))
    return tuple(pts)


def _same_orbit(a, b, tol):
    if len(a) != len(b):
        return False
    for pa in a:
        if min(abs(pa - pb) for pb in b) > tol:
            return False
    return True


def _seed_by_seed_periodic_points(phi, k_max, n_r=24, n_theta=16,
                                  accept_tol=1e-9, dedup_tol=1e-6, crawl=True):
    """One seed at a time, with the same rules: a seed settles on a small
    residual and a small step; seeds at or past r_c(k) are not searched,
    a seed whose step would enter the collar is dropped, and so, when
    crawl, is a seed whose last two step ratios lie in [1/2, 1) and whose
    steps' geometric limit lies in the collar; the collar is one period-1
    record at |z| = support."""
    R = phi.radius
    sig = action(phi)
    collar = ([np.inf] * k_max if phi.is_radial
              else _collar_radii(phi, k_max, accept_tol * max(1.0, R)))
    radii = np.linspace(R / n_r, R * (1.0 - 1e-9), n_r)
    thetas = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    seeds = [0.0 + 0.0j]
    for r in radii:
        for t in thetas:
            seeds.append(r * np.exp(1j * t))
    found = []
    scale = max(1.0, R)
    for k in range(1, k_max + 1):
        divisors = [j for j in range(1, k) if k % j == 0]
        k_found = []
        rc = collar[k - 1]
        for z0 in seeds:
            if abs(z0) >= rc:
                continue
            z = complex(z0)
            ok = False
            last, ratio = np.inf, 0.0
            for _ in range(40):
                its, J = phi.iterate_differential(z, k)
                zk = its[-1]
                F = np.array([zk.real - z.real, zk.imag - z.imag])
                res = float(np.hypot(F[0], F[1]))
                A = J - np.eye(2)
                step, *_ = np.linalg.lstsq(A, F, rcond=None)
                if res < 1e-12 * scale and np.hypot(*step) < 1e-6:
                    ok = True
                    break
                if not np.all(np.isfinite(step)):
                    break
                nz = z - complex(step[0], step[1])
                if abs(nz) > R * (1.0 + 1e-9):
                    break
                if abs(nz) >= rc:
                    z = None
                    break
                size = float(np.hypot(*step))
                q = size / last if last > 0.0 else 0.0
                if (crawl and 0.5 <= q < 1.0 and 0.5 <= ratio < 1.0
                        and abs(nz - complex(step[0], step[1]) * q / (1.0 - q)) >= rc):
                    z = None
                    break
                last, ratio = size, q
                z = nz
            else:
                its, _ = phi.iterate_differential(z, k)
                res = abs(its[-1] - z)
                ok = res < accept_tol * scale
            if z is None:
                continue
            if not ok:
                zk = _iterate(phi, z, k)
                if abs(zk - z) >= accept_tol * scale:
                    continue
            minimal = True
            for j in divisors:
                if abs(_iterate(phi, z, j) - z) < 1e-8 * scale:
                    minimal = False
                    break
            if not minimal:
                continue
            orbit = _orbit_of(phi, z, k)
            if any(_same_orbit(orbit, o.orbit, dedup_tol) for o in k_found):
                continue
            act = float(np.sum(sig(np.array(orbit))))
            zk = _iterate(phi, z, k)
            k_found.append(PeriodicOrbit(z, k, act, orbit, abs(zk - z), abs(z), abs(z)))
        if k == 1 and np.isfinite(rc):
            edge = complex(phi.support)
            k_found.append(PeriodicOrbit(edge, 1, 0.0, (edge,), 0.0, rc, R))
        found.extend(k_found)
    return found


def m2_step():
    return DiskMap(1.0, (HamiltonianStep((BumpHarmonic(2, "cos", 0.05, 0.7),)),))


def twist_after_m3_step():
    # no symmetry gives the points of its period-2 orbits equal actions,
    # so its action sums read every point of the orbit
    step = DiskMap(1.0, (HamiltonianStep((BumpHarmonic(3, "sin", 0.05, 0.7),)),))
    return compose(DiskMap(1.0, (RadialTwist(RadialFunction.bump(4.0, 0.8)),)), step)


@pytest.mark.parametrize("phi, k_max, n_r, n_theta", [
    (DiskMap(1.0, ()), 3, 6, 6),
    (DiskMap(1.0, (RadialTwist(RadialFunction.bump(4.0, 0.8)),)), 2, 12, 8),
    (DiskMap(1.0, (RadialTwist(RadialFunction.bump(-7.0, 1.0)),)), 1, 12, 8),
    (cubed_twist(3.0, n_knots=513), 3, 12, 6),
    (m2_step(), 1, 6, 6),
    (m2_step(), 2, 4, 4),
    (twist_after_m3_step(), 2, 4, 4),
], ids=["identity_k3", "positive_twist_k2", "negative_twist_k1", "cubed_twist_k3",
        "m2_step_k1", "m2_step_k2", "twist_after_m3_step_k2"])
def test_periodic_points_matches_seed_by_seed(phi, k_max, n_r, n_theta):
    new = periodic_points(phi, k_max, n_r=n_r, n_theta=n_theta)
    ref = _seed_by_seed_periodic_points(phi, k_max, n_r=n_r, n_theta=n_theta)
    if phi.is_radial:
        # one record per family: every reference orbit lies on one, and
        # every family is hit by some seed
        hit = [_family_of(o, new, phi) for o in ref]
        assert None not in hit
        assert set(hit) == set(range(len(new)))
        assert all(f.residual < 1e-9 for f in new)
        # distinct families of one period neither overlap nor touch
        for a, b in zip(new[:-1], new[1:]):
            assert a.period < b.period or a.r_hi + 1e-7 < b.r_lo
        return
    assert [o.period for o in new] == [o.period for o in ref]
    for a, b in zip(new, ref):
        assert abs(abs(a.point) - abs(b.point)) < 1e-7
        assert abs(a.action_sum - b.action_sum) < 1e-9
        if b.r_lo < b.r_hi:   # the identity collar
            assert (a.point, a.r_lo, a.r_hi) == (b.point, b.r_lo, b.r_hi)
        assert a.residual < 1e-9


def _families(records):
    return [(o.period, o.action_sum, abs(o.point)) for o in records]


def _same_families(a, b):
    """Every record of a has one in b of its period, with its action sum
    within 1e-9 and its radius within 1e-7."""
    return all(any(k == kb and abs(s - sb) < 1e-9 and abs(r - rb) < 1e-7 for kb, sb, rb in b)
               for k, s, r in a)


@pytest.mark.parametrize("name, n_r", [
    ("m2_step", 6), ("twist_after_m3_step", 4), ("two_term_step", 4), ("m0_step", 4)])
def test_crawl_rule_keeps_every_family(name, n_r):
    # seeds that crawl linearly toward the flat support edge are dropped
    # early; the search without that rule finds the same families
    phi = {"m2_step": m2_step, "twist_after_m3_step": twist_after_m3_step}.get(
        name, lambda: collar_map(name))()
    new = periodic_points(phi, 2, n_r=n_r, n_theta=4)
    assert sum(new.search["dropped_crawling"]) > 0
    ref = _families(_seed_by_seed_periodic_points(phi, 2, n_r=n_r, n_theta=4, crawl=False))
    assert _same_families(_families(new), ref) and _same_families(ref, _families(new))


def _family_of(orbit, families, phi, accept_tol=1e-9):
    """Index of the family of the same period and action sum (within 1e-9)
    that holds the reference orbit, or None.

    The orbit is on the family when its radius is within 1e-7 of the
    family's or inside [r_lo, r_hi].  Newton accepts |phi^k(z) - z| <
    accept_tol, which near a tangential edge (rho - 2 pi p vanishing to
    third order) also holds on a collar about 2e-5 wide; a reference
    point there is the family's when |phi^k - id| stays below accept_tol
    on the whole segment from it to the family.
    """
    r, k = abs(orbit.point), orbit.period
    for j, f in enumerate(families):
        if f.period != k or abs(f.action_sum - orbit.action_sum) >= 1e-9:
            continue
        if abs(r - abs(f.point)) <= 1e-7 or f.r_lo <= r <= f.r_hi:
            return j
        seg = np.linspace(r, min(max(r, f.r_lo), f.r_hi), 65).astype(complex)
        if np.all(np.abs(_iterate(phi, seg, k) - seg) < accept_tol * max(1.0, phi.radius)):
            return j
    return None


def test_radial_families_identity_tail():
    # a profile may end within 1e-12 of 2 pi Z; past its support the
    # twist is the identity all the same, so that annulus is one band
    prof = RadialFunction(np.array([0.0, 0.5]), np.array([1.0, 1e-13]), np.zeros(2),
                          parity="even")
    families = periodic_points(DiskMap(1.0, (RadialTwist(prof),)), k_max=2)
    assert [(f.period, f.r_lo, f.r_hi, f.action_sum) for f in families][1:] == [
        (1, 0.5, 1.0, 0.0)]
    assert (families[0].period, families[0].r_hi) == (1, 0.0)


@pytest.mark.parametrize("amplitude, support, radius", [(-4.0, 1.0, 1.0), (-1.0, 0.3, 0.3),
                                                        (-1.0, 0.3, 0.5)])
def test_negative_calabi_twist_has_a_mean_action_witness(amplitude, support, radius):
    # Hutchings (J. Modern Dynamics 10, 2016): a map with CAL < 0 has a
    # periodic orbit of mean action at most CAL / (pi R^2).  For a bump
    # twist the fixed origin is one: sigma(0) = a S^2 / 8 against
    # CAL / (pi R^2) = a S^4 / (20 R^2)
    phi = DiskMap(radius, (RadialTwist(RadialFunction.bump(amplitude, support)),))
    mean = calabi(phi) / (np.pi * radius ** 2)
    assert mean < 0.0
    witness = min(o.action_sum / o.period for o in periodic_points(phi, 1))
    assert witness <= mean
    assert witness == pytest.approx(amplitude * support ** 2 / 8.0, rel=1e-9)


def test_radial_periodic_points_evaluate_no_map(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the radial search evaluated the map")

    for name in ("evaluate", "evaluate_with_differential", "iterate_differential"):
        monkeypatch.setattr(DiskMap, name, refuse)
    monkeypatch.setattr(RadialTwist, "evaluate", refuse)
    families = periodic_points(cubed_twist(3.0, n_knots=513), k_max=3)
    assert [(f.period, f.r_lo == f.r_hi) for f in families] == [(1, True), (1, True), (3, True)]
    assert families.search == {"k_max": 3, "method": "closed-form families"}
    assert families.note == "closed-form families, exact for periods <= 3"
    with pytest.raises(AssertionError, match="evaluated the map"):
        periodic_points(m2_step(), k_max=1, n_r=2, n_theta=2)


def test_hamiltonian_map_on_no_points():
    phi = m2_step()
    none = np.array([], dtype=complex)
    assert phi.evaluate(none).shape == (0,)
    assert action(phi)(none).shape == (0,)
    w, J = phi.evaluate_with_differential(none)
    assert w.shape == (0,) and J.shape == (0, 2, 2)


NAN, INF = float("nan"), float("inf")


def _term(**over):
    return {"m": 2, "trig": "cos", "coef": 0.05, "support": 0.7, "power": 4, **over}


@pytest.mark.parametrize("make", [
    lambda: BumpHarmonic(2, "cos", NAN, 0.7),
    lambda: BumpHarmonic(2, "cos", INF, 0.7),
    lambda: BumpHarmonic(2, "cos", 0.05, NAN),
    lambda: BumpHarmonic(2, "cos", 0.05, INF),
    lambda: HamiltonianStep((BumpHarmonic(2, "cos", 0.05, 0.7),), time=NAN),
    lambda: HamiltonianStep((BumpHarmonic(2, "cos", 0.05, 0.7),), time=-INF),
    lambda: DiskMap(NAN, ()),
    lambda: DiskMap(INF, ()),
    lambda: BumpHarmonic.from_dict(_term(m=2.5)),
    lambda: BumpHarmonic.from_dict(_term(power=4.9)),
    lambda: BumpHarmonic.from_dict(_term(m=NAN)),
], ids=["coef_nan", "coef_inf", "support_nan", "support_inf", "time_nan", "time_inf",
        "radius_nan", "radius_inf", "m_fraction", "power_fraction", "m_nan"])
def test_bad_map_data_is_refused(make):
    with pytest.raises(ValueError):
        make()


def test_whole_number_fields_read_integral_floats():
    term = BumpHarmonic.from_dict(_term(m=2.0, power=4.0))
    assert (term.m, term.power) == (2, 4) and type(term.m) is type(term.power) is int


@pytest.mark.parametrize("where, field, value", [
    ("term", "coef", NAN), ("term", "support", NAN), ("term", "support", INF),
    ("term", "m", 2.5), ("term", "power", 4.9), ("step", "time", NAN), ("map", "radius", INF),
], ids=["coef_nan", "support_nan", "support_inf", "m_fraction", "power_fraction",
        "time_nan", "radius_inf"])
def test_disk_periodic_refuses_bad_map_data(tmp_path, capsys, where, field, value):
    # a NaN support once left the search spinning inside DOP853
    d = m2_step().to_dict()
    owner = {"map": d, "step": d["primitives"][0], "term": d["primitives"][0]["terms"][0]}
    owner[where][field] = value
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps(d))
    assert main(["disk", "periodic", str(mp), "--kmax", "1", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "periodic.json").exists()


def test_twist_must_end_in_whole_turns(tmp_path):
    # past its support a twist rotates by the profile's last value
    knots = np.array([0.0, 0.5])
    with pytest.raises(ValueError, match="2 pi Z"):
        RadialTwist(RadialFunction(knots, np.array([1.0, 0.4]), np.zeros(2), parity="even"))
    turn = RadialTwist(RadialFunction(knots, np.array([7.0, 2.0 * np.pi]), np.zeros(2),
                                      parity="even"))
    assert abs(DiskMap(1.0, (turn,)).evaluate(0.9 + 0.0j) - 0.9) < 1e-12
    bad = {"radius": 1.0, "primitives": [{"kind": "radial_twist", "profile": {
        "knots": [0.0, 0.5], "values": [1.0, 0.4], "derivs": [0.0, 0.0], "parity": "even"}}]}
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps(bad))
    assert main(["disk", "periodic", str(mp), "--kmax", "1", "--out", str(tmp_path)]) == 2


def test_twist_differential_matches_fd():
    phi = cubed_twist(1.7, n_knots=513)
    z = 0.4 + 0.25j
    J = phi.evaluate_with_differential(z)[1]
    h = 1e-6
    fd = np.empty((2, 2))
    for j, e in enumerate((h, 1j * h)):
        d = (phi.evaluate(z + e) - phi.evaluate(z - e)) / (2 * h)
        fd[0, j], fd[1, j] = d.real, d.imag
    assert np.max(np.abs(J - fd)) < 1e-7


def test_hamiltonian_differential_matches_fd():
    phi = DiskMap(1.0, (HamiltonianStep((BumpHarmonic(2, "cos", 0.1, 0.7),), time=0.6),))
    z = 0.3 - 0.2j
    J = phi.evaluate_with_differential(z)[1]
    h = 1e-6
    fd = np.empty((2, 2))
    for j, e in enumerate((h, 1j * h)):
        d = (phi.evaluate(z + e) - phi.evaluate(z - e)) / (2 * h)
        fd[0, j], fd[1, j] = d.real, d.imag
    assert np.max(np.abs(J - fd)) < 1e-6


def test_diskmap_roundtrip_dict():
    phi = DiskMap(1.0, (
        RadialTwist(RadialFunction.bump(0.5, 0.8, power=3, n_knots=65)),
        HamiltonianStep((BumpHarmonic(1, "sin", 0.05, 0.6),), time=0.25),
    ))
    back = DiskMap.from_dict(phi.to_dict())
    z = 0.3 + 0.3j
    assert abs(back.evaluate(z) - phi.evaluate(z)) < 1e-12


# ---------------------------------------------------------------------------
# BumpHarmonic.jet against the term-by-term formulas it replaced: B(u) =
# s^p with s = 1 - u/a^2 and its u-derivatives times T = Re or Im (z/a)^m
# and its x, y derivatives, each order on its own.
# ---------------------------------------------------------------------------

def _term_formulas(term, z, magnitude=False):
    """(H, H_x, H_y, H_xx, H_xy, H_yy) of one term; with magnitude, the same
    sums with every summand and factor replaced by its absolute value, the
    scale of the rounding error of evaluating them."""
    a, a2, p, m = term.support, term.support ** 2, term.power, term.m
    x, y = np.real(z), np.imag(z)
    u = x * x + y * y
    s = np.clip(1.0 - u / a2, 0.0, None)
    inside = u < a2
    B = s ** p * inside
    Bp = -(p / a2) * s ** (p - 1) * inside
    Bpp = (p * (p - 1) / a2 ** 2) * s ** (p - 2) * inside
    F = (z / a) ** m
    Fp = m * z ** (m - 1) / a ** m if m >= 1 else 0.0 * z
    Fpp = m * (m - 1) * z ** (m - 2) / a ** m if m >= 2 else 0.0 * z
    if term.trig == "cos":
        T, Tx, Ty, Txx, Txy = np.real(F), np.real(Fp), -np.imag(Fp), np.real(Fpp), -np.imag(Fpp)
    else:
        T, Tx, Ty, Txx, Txy = np.imag(F), np.imag(Fp), np.real(Fp), np.imag(Fpp), np.real(Fpp)
    Tyy = -Txx
    c = term.coef
    if magnitude:
        x, y, Bp, c = np.abs(x), np.abs(y), np.abs(Bp), abs(c)
        T, Tx, Ty, Txx, Txy, Tyy = (np.abs(F),) + (np.abs(Fp),) * 2 + (np.abs(Fpp),) * 3
    H = c * B * T
    gx = c * (Bp * 2.0 * x * T + B * Tx)
    gy = c * (Bp * 2.0 * y * T + B * Ty)
    Hxx = c * (4.0 * x * x * Bpp * T + 2.0 * Bp * T + 4.0 * x * Bp * Tx + B * Txx)
    Hxy = c * (4.0 * x * y * Bpp * T + 2.0 * y * Bp * Tx + 2.0 * x * Bp * Ty + B * Txy)
    Hyy = c * (4.0 * y * y * Bpp * T + 2.0 * Bp * T + 4.0 * y * Bp * Ty + B * Tyy)
    return H, gx, gy, Hxx, Hxy, Hyy


def _jet_rows(jet):
    """A jet's outputs as the rows (H, H_x, H_y, H_xx, H_xy, H_yy), cut at its
    order; the Hessian rows are formed from its parts (P, Q) as P + Re Q,
    Im Q and P - Re Q."""
    rows = [jet[0]]
    if len(jet) > 1:
        rows += [np.real(jet[1]), np.imag(jet[1])]
    if len(jet) > 2:
        P, Q = jet[2]
        assert np.isrealobj(P)
        rows += [P + Q.real, Q.imag, P - Q.real]
    return rows


def _assert_jet_matches(jet, ref, mag):
    """Each order within 1e-15 of its rounding scale: the summed magnitudes of
    H, of the gradient's larger entry, and of the Hessian's largest entry."""
    rows = _jet_rows(jet)
    scale = [mag[0], np.maximum(mag[1], mag[2]), np.maximum.reduce(mag[3:])]
    for i, got in enumerate(rows):
        order = (i + 1) // 2 if i < 3 else 2
        err = np.abs(got - ref[i])
        assert np.all(err <= 1e-15 * scale[order]), (i, float(np.max(err / scale[order])))


def _probe_points(rng, a, n=400):
    """Points inside, on and outside the support circle of radius a."""
    r = a * np.concatenate([np.sqrt(rng.random(n)), np.ones(n // 8),
                            1.0 + 0.3 * rng.random(n // 8), [0.0]])
    return r * np.exp(2j * np.pi * rng.random(r.size))


@pytest.mark.parametrize("power", [3, 4, 6])
@pytest.mark.parametrize("m,trig", [(0, "cos"), (1, "cos"), (1, "sin"), (2, "cos"),
                                    (2, "sin"), (3, "cos"), (3, "sin")])
def test_jet_matches_term_formulas(m, trig, power):
    rng = np.random.default_rng(100 * m + 10 * power + (trig == "sin"))
    term = BumpHarmonic(m, trig, 0.07, 0.3, power)
    z = _probe_points(rng, term.support)
    ref, mag = _term_formulas(term, z), _term_formulas(term, z, magnitude=True)
    for order in (0, 1, 2):
        jet = term.jet(z, order)
        assert len(jet) == order + 1
        _assert_jet_matches(jet, ref, mag)
    outside = np.abs(z) > term.support * (1.0 + 1e-12)
    assert all(np.all(row[outside] == 0.0) for row in _jet_rows(term.jet(z, 2)))
    assert np.isclose(term.jet(complex(z[0]), 2)[0], ref[0][0], rtol=0, atol=1e-15 * mag[0][0])


@pytest.mark.parametrize("terms", [
    (BumpHarmonic(0, "cos", 0.05, 0.3), BumpHarmonic(2, "cos", -0.03, 0.3, 6)),
    (BumpHarmonic(3, "sin", 0.12, 0.8, 3), BumpHarmonic(1, "cos", 0.04, 0.5)),
], ids=["m0+m2", "m3+m1"])
def test_terms_jet_matches_summed_formulas(terms):
    z = _probe_points(np.random.default_rng(5), max(t.support for t in terms))
    parts = [_term_formulas(t, z) for t in terms]
    mags = [_term_formulas(t, z, magnitude=True) for t in terms]
    ref = [sum(rows) for rows in zip(*parts)]
    mag = [sum(rows) for rows in zip(*mags)]
    for order in (0, 1, 2):
        _assert_jet_matches(_terms_jet(terms, z, order), ref, mag)


def h2_map():
    """The ham_plug benchmark's m = 2 step: support 0.3 = R, time 0.1, coef 0.05."""
    return DiskMap(0.3, (HamiltonianStep((BumpHarmonic(2, "cos", 0.05, 0.3),), time=0.1),))


def test_ham_plug_maps_match_term_formula_outputs():
    """The ham_plug maps' outputs against tests/data/ham_plug_reference.json,
    made with the term-by-term formulas, all held to 1e-15.  The fixed
    points of h2 are the origin, the four critical points at r = a/sqrt 5
    and one identity-collar record at |z| = a covering [r_c(1), a]; no
    seed crawls toward the flat support edge any more, so no record lies
    just inside it."""
    ref = json.loads((Path(__file__).parent / "data" / "ham_plug_reference.json").read_text())
    a, t = 0.3, 0.1
    h0 = DiskMap(a, (HamiltonianStep((BumpHarmonic(0, "cos", 0.05, a),), time=t),))
    h2 = h2_map()
    twist = RadialFunction(np.array([0.0, a]), np.array([-1.0, 0.0]), np.zeros(2),
                           parity="even")
    comp = compose(DiskMap(a, (RadialTwist(twist),)), h2)
    du = PrimitiveOneForm((BumpHarmonic(2, "sin", 0.02, a),))
    pts = np.array([complex(*p) for p in ref["points"]])

    def close(got, want, tol=1e-15):
        assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= tol

    for name, sig in (("h0", action(h0)), ("h2", action(h2)), ("comp", action(comp)),
                      ("h2 du", action(h2, du))):
        close(sig(pts), ref["action"][name])
    w, J = h2.evaluate_with_differential(pts)
    close(w, [complex(*v) for v in ref["map h2"]])
    close(J, ref["jacobian h2"])
    close([calabi(h0), calabi(h0, du), calabi(comp)], list(ref["calabi"].values()))
    close(make_plug(h2, 1.0, n_r=12, n_theta=8).tau_min, ref["tau_min h2"])

    orbs = periodic_points(h2, 1, n_r=4, n_theta=4)
    assert [o.period for o in orbs] == [r["period"] for r in ref["periodic h2"]]
    for o, r in zip(orbs, ref["periodic h2"]):
        close(o.point, complex(*r["point"]))
        close(o.action_sum, r["action_sum"])
    assert not any(0.2999 < abs(o.point) < a for o in orbs)
    # the search says how it ran: on the grid it was given, up to the collar
    # it stopped at
    r_c = orbs[-1].r_lo
    assert orbs.search == {"k_max": 1, "method": "newton grid", "n_r": 4, "n_theta": 4,
                           "accept_tol": 1e-9, "collar_radius": [r_c],
                           "dropped_at_collar": [0], "dropped_crawling": [4]}
    assert orbs.note == ("newton grid, up to search completeness (k_max = 1, grid = 4x4, "
                         f"identity collar from r = {r_c:.9g}, seeds stepping into it or "
                         "crawling toward it (two step ratios in [0.5, 1)) dropped)")
    assert (orbs[-1].r_hi, orbs[-1].residual) == (a, 0.0)
    assert all(o.r_lo == o.r_hi for o in orbs[:-1])


def test_periodic_points_h2_work_count(monkeypatch):
    # 5 Newton sweeps, one variational flow each, and one action flow for
    # the kept points.  The four seeds of the r = 0.225 ring crawl toward
    # the flat support edge, each step about 0.6 times the last (Newton's
    # linear rate is 2/3 at the edge, a zero of multiplicity 3); in the
    # fifth sweep the limit of their steps lies in the collar and they
    # are dropped, where stepping into it took the eleventh.  Orbits
    # flowed again after their settling sweep would add flows too.
    flowed = []
    flow = diskmap_module.ode_flow
    monkeypatch.setattr(diskmap_module, "ode_flow",
                        lambda *args: flowed.append(args[1].copy()) or flow(*args))
    orbs = periodic_points(h2_map(), 1, n_r=4, n_theta=4)
    assert len(flowed) == 6
    # the variational flows carry z then the two columns of D phi, all complex
    sweeps = [y[:y.size // 3].view(complex) for y in flowed[:-1]]
    assert [z.size for z in sweeps] == [13, 8, 8, 8, 4]
    ring = sweeps[0][np.abs(np.abs(sweeps[0]) - 0.225) < 1e-6]
    assert ring.size == 4 == sum(orbs.search["dropped_crawling"])
    assert orbs.search["dropped_at_collar"] == [0]
    # the last sweep carries only the crawlers, still on the ring's rays
    last = sweeps[-1]
    assert np.all((0.29 < np.abs(last)) & (np.abs(last) < orbs.search["collar_radius"][0]))
    assert np.max(np.abs(np.angle(last / ring))) < 0.02


# ---------------------------------------------------------------------------
# The identity collar: past r_c(k), phi^k moves no point by the acceptance
# tolerance, checked against flows that share no code with the map's.
# ---------------------------------------------------------------------------

def _own_map(phi, z):
    """phi(z) from the term-by-term formulas under solve_ivp (DOP853 at
    1e-13) for steps, and z exp(i rho(|z|)) for twists."""
    for p in reversed(phi.primitives):
        if isinstance(p, RadialTwist):
            z = z * np.exp(1j * p.profile(np.abs(z)))
            continue
        n = z.size

        def field(t, y, terms=p.terms, n=n):
            rows = [_term_formulas(term, y[:n] + 1j * y[n:]) for term in terms]
            return np.concatenate([sum(r[2] for r in rows), -sum(r[1] for r in rows)])
        sol = solve_ivp(field, (0.0, p.time), np.concatenate([z.real, z.imag]),
                        method="DOP853", rtol=1e-13, atol=1e-13)
        z = sol.y[:n, -1] + 1j * sol.y[n:, -1]
    return z


def collar_map(name):
    return {
        "h2": h2_map,
        "m0_step": lambda: DiskMap(1.0, (HamiltonianStep(
            (BumpHarmonic(0, "cos", 0.1, 0.8),), time=0.5),)),
        "two_term_step": lambda: DiskMap(1.0, (HamiltonianStep(
            (BumpHarmonic(3, "sin", 0.12, 0.8, 3), BumpHarmonic(1, "cos", 0.04, 0.5)),
            time=0.7),)),
        "twist_after_step": twist_after_step,
    }[name]()


def test_step_drift_bounds_the_hamiltonian_speed():
    # the collar's per-step bound, t |X_H| <= drift(r), at |w| = r
    rng = np.random.default_rng(7)
    for name in ("h2", "m0_step", "two_term_step"):
        phi = collar_map(name)
        step = phi.primitives[0]
        w = phi.radius * np.sqrt(rng.random(4000)) * np.exp(2j * np.pi * rng.random(4000))
        rows = [_term_formulas(term, w) for term in step.terms]
        speed = step.time * np.hypot(sum(r[1] for r in rows), sum(r[2] for r in rows))
        bound = np.array([_step_drift(step, r) for r in np.abs(w)])
        assert np.all(speed <= bound * (1.0 + 1e-12)), name


@pytest.mark.parametrize("name", ["h2", "m0_step", "two_term_step", "twist_after_step"])
def test_identity_collar_lemma(name):
    phi = collar_map(name)
    R, k_max = phi.radius, 3
    tol = 1e-9 * max(1.0, R)   # periodic_points' acceptance tolerance
    r_c = _collar_radii(phi, k_max, tol)
    assert all(a <= b for a, b in zip(r_c, r_c[1:]))      # the collar narrows as k grows
    assert r_c[-1] < phi.support                          # and reaches inside the support
    rng = np.random.default_rng(11)
    for k, r0 in enumerate(r_c, start=1):
        r = r0 + (R - r0) * np.concatenate([[0.0], rng.random(95) ** 3])
        z = r * np.exp(2j * np.pi * rng.random(r.size))
        w = z
        for _ in range(k):
            w = _own_map(phi, w)
        assert np.max(np.abs(w - z)) < tol, (k, float(np.max(np.abs(w - z))))


def test_identity_collar_is_one_record():
    # the default seeds at r >= 0.7 lie where the step is the identity, and
    # those just inside once crawled toward it; the collar is one record
    phi = m2_step()
    orbs = periodic_points(phi, 1)
    r_c = orbs.search["collar_radius"][0]
    outer = [o for o in orbs if abs(o.point) > 0.5]
    assert [(o.point, o.period, o.action_sum, o.residual, o.r_lo, o.r_hi) for o in outer] == [
        (0.7 + 0.0j, 1, 0.0, 0.0, r_c, 1.0)]
    assert 0.69 < r_c < 0.7


# ---------------------------------------------------------------------------
# Closed forms against checks that share no code with them: sigma against the
# line integral of phi*lam - lam, CAL against the disk quadrature of sigma.
# ---------------------------------------------------------------------------

def twist_after_step():
    twist = DiskMap(1.0, (RadialTwist(RadialFunction.bump(-1.0, 0.7, power=3, n_knots=65)),))
    step = DiskMap(1.0, (HamiltonianStep((BumpHarmonic(2, "cos", 0.08, 0.7),), time=0.5),))
    return compose(twist, step)


def test_cocycle_sum_matches_line_integral():
    lam = PrimitiveOneForm((BumpHarmonic(1, "sin", 0.1, 0.9),))
    sig = action(twist_after_step(), lam)
    for z in (0.15 + 0.1j, -0.3 + 0.35j, 0.05 - 0.6j, 0.72 + 0.2j):
        assert sig.path_independence_check(z) < 1e-8


@pytest.mark.parametrize("phi", [
    DiskMap(1.0, (HamiltonianStep((BumpHarmonic(0, "cos", 0.1, 0.8),), time=0.5),)),
    DiskMap(1.0, (HamiltonianStep((BumpHarmonic(2, "sin", 0.08, 0.7),), time=0.7),)),
    twist_after_step(),
], ids=["m0", "m2", "twist_after_step"])
def test_calabi_closed_form_matches_disk_quadrature(phi):
    sig = action(phi)
    quad = integrate_disk(lambda x, y: sig(np.asarray(x) + 1j * np.asarray(y)),
                          phi.radius, QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10))
    assert abs(calabi(phi) - quad.value) < 1e-9
