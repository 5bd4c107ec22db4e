import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebplug.numerics import (
    NonConvergenceError,
    PiecewisePoly,
    QuadratureSpec,
    RadialFunction,
    find_root_1d,
    gauss_piecewise,
    integrate_1d,
    integrate_disk,
    ode_flow,
    resonances,
)

# Frozen oracle: int_0^1 s(1-s^2)^3 ds = 1/8  (antiderivative -(1-s^2)^4/8).
MOMENT_CUBED = 0.125


def test_integrate_1d_bump_moment():
    res = integrate_1d(lambda s: s * (1.0 - s * s) ** 3, 0.0, 1.0)
    assert res.converged
    assert abs(res.value - MOMENT_CUBED) < 1e-12


def test_integrate_1d_polynomial_exactness():
    # degree 10, exact antiderivative on [0, 2]
    coeffs = np.array([3.0, -1.0, 0.5, 2.0, -0.25, 1.5, 0.0, -2.0, 0.75, 1.0, -0.5])
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(2.0) - poly.integ()(0.0)
    res = integrate_1d(poly, 0.0, 2.0)
    assert res.converged
    assert abs(res.value - exact) < 1e-12


def test_integrate_1d_reports_error_estimate():
    res = integrate_1d(np.sin, 0.0, np.pi)
    assert res.converged
    assert abs(res.value - 2.0) <= max(res.error, 1e-13)


def test_integrate_disk_constant():
    res = integrate_disk(lambda x, y: np.ones_like(np.asarray(x) + np.asarray(y)), 2.0)
    assert res.converged
    assert abs(res.value - np.pi * 4.0) < 1e-8


def test_integrate_disk_radial_agreement():
    f = lambda x, y: np.exp(-(x * x + y * y))
    res = integrate_disk(f, 1.5)
    radial = integrate_1d(lambda r: 2.0 * np.pi * r * np.exp(-r * r), 0.0, 1.5)
    assert res.converged and radial.converged
    assert abs(res.value - radial.value) < 1e-8


def test_integrate_disk_nonradial():
    # x^2 over disk of radius R: pi R^4 / 4
    res = integrate_disk(lambda x, y: np.asarray(x) ** 2, 1.0)
    assert abs(res.value - np.pi / 4.0) < 1e-8


def test_gauss_piecewise_exact_for_products():
    rf = RadialFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.3, 0.0]),
                        np.array([0.0, -1.2, 0.0]), parity="even")
    # integrand rf(r)^2 is degree 6 on each piece; 5-point Gauss is exact
    val = gauss_piecewise(lambda r: rf(r) ** 2, rf.knots, 0.0, 1.0, npts=5)
    ref = integrate_1d(lambda r: rf(float(r)) ** 2, 0.0, 1.0).value
    assert abs(val - ref) < 1e-12


# ---------------------------------------------------------------------------
# RadialFunction
# ---------------------------------------------------------------------------

def _quadratic_rf(n=9):
    r = np.linspace(0.0, 1.0, n)
    return RadialFunction(r, r * r, 2.0 * r)


def test_radial_function_reproduces_knot_data():
    rf = _quadratic_rf()
    assert np.allclose(rf(rf.knots), rf.values, rtol=0, atol=0)
    assert np.allclose(rf.derivative(rf.knots), rf.derivs, rtol=0, atol=0)
    # the decided checks read the same pieces, which nobody can change
    pieces = PiecewisePoly.from_radial(rf)
    assert PiecewisePoly.from_radial(rf, upto=1.0) is pieces
    assert np.array_equal(pieces.knots, rf.knots)
    with pytest.raises(ValueError):
        pieces.coef[0, 0] = 1.0
    with pytest.raises(ValueError):
        pieces.err[0, 0] = 1.0


def test_radial_function_cubic_exact():
    # a cubic sampled at knots is reproduced exactly between knots (its
    # slope at 0 is not 0, so the knots start past 0)
    p = np.polynomial.Polynomial([0.3, -1.0, 2.0, 0.7])
    dp = p.deriv()
    knots = np.array([0.1, 0.4, 1.1, 2.0])
    rf = RadialFunction(knots, p(knots), dp(knots))
    x = np.linspace(0.1, 2.0, 400)
    assert np.max(np.abs(rf(x) - p(x))) < 1e-13
    assert np.max(np.abs(rf.derivative(x) - dp(x))) < 1e-12


def test_radial_function_c1_at_knots():
    rf = RadialFunction.bump(1.0, 1.0, power=3, n_knots=33)
    eps = 1e-9
    for k in rf.knots[1:-1]:
        left = rf.derivative(k - eps)
        right = rf.derivative(k + eps)
        assert abs(left - right) < 1e-6  # C1 up to eps*|f''|
    # exact one-sided limits agree by construction of shared knot data
    x = rf.knots[1:-1]
    assert np.allclose(rf.derivative(x), rf.derivs[1:-1], atol=1e-12)


def test_radial_function_parity_validation():
    with pytest.raises(ValueError, match="even parity"):
        RadialFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                       np.array([1.0, 0.0]), parity="even")
    # every radial function is even: no other parity is accepted, from a
    # caller or from a file, nor is a file without one
    data = _quadratic_rf().to_dict()
    assert data["parity"] == "even"
    assert RadialFunction.from_dict(data).to_dict() == data
    for parity in ("odd", "none"):
        with pytest.raises(ValueError, match="parity must be 'even'"):
            RadialFunction(np.array([0.0, 1.0]), np.array([0.5, 1.0]),
                           np.array([0.0, 0.0]), parity=parity)
        with pytest.raises(ValueError, match="parity must be 'even'"):
            RadialFunction.from_dict({**data, "parity": parity})
    del data["parity"]
    with pytest.raises(ValueError, match="parity must be 'even'"):
        RadialFunction.from_dict(data)


def test_radial_function_refuses_bad_hermite_data():
    x = np.array([0.0, 0.5, 1.0])
    v, d = np.ones_like(x), np.zeros_like(x)
    RadialFunction(x, v, d)
    with pytest.raises(ValueError, match="even parity"):
        RadialFunction(x, v, np.array([1.0, 0.0, 0.0]))
    for bad in ([0.0, 0.5, 0.5], [-0.5, 0.0, 0.5]):
        with pytest.raises(ValueError, match=">= 0 and strictly increasing"):
            RadialFunction(np.array(bad), v, d)
    with pytest.raises(ValueError, match="non-finite"):
        RadialFunction(x, v, np.array([np.nan, 0.0, 0.0]))


def test_radial_function_constant_extension():
    rf = RadialFunction.bump(2.0, 0.7, power=3)
    assert rf(0.9) == 0.0
    assert rf.derivative(0.9) == 0.0
    # below the first knot, the first value with zero slope
    r = np.linspace(0.2, 1.0, 5)
    rf = RadialFunction(r, r * r, 2.0 * r)
    assert rf(0.1) == rf(-0.5) == rf.values[0]
    assert rf.derivative(0.1) == rf.second_derivative(0.1) == 0.0
    assert rf.integral(-0.5, 0.2) == 0.7 * rf.values[0]


def test_radial_function_integral_exact():
    rf = _quadratic_rf()
    assert abs(rf.integral(0.0, 1.0) - 1.0 / 3.0) < 1e-14
    assert abs(rf.integral(0.2, 0.9) - (0.9 ** 3 - 0.2 ** 3) / 3.0) < 1e-14


def test_radial_function_add_and_scale():
    a = RadialFunction.bump(1.0, 1.0, power=3, n_knots=65)
    b = RadialFunction.bump(-0.5, 0.8, power=4, n_knots=49)
    s = a + b
    x = np.linspace(0.0, 1.0, 301)
    assert np.max(np.abs(s(x) - (a(x) + b(x)))) < 1e-13
    assert np.max(np.abs(a.scaled(2.0)(x) - 2.0 * a(x))) < 1e-14


@settings(max_examples=30, deadline=None)
@given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
def test_radial_function_scaled_law(lo, hi):
    rf = RadialFunction.bump(1.3, 1.0, power=3, n_knots=33)
    g = rf.scaled(2.0, arg_scale=0.5)
    r = 0.3 * (1.0 + lo) + 1e-3
    assert abs(g(r) - 2.0 * rf(r / 0.5)) < 1e-12


# ---------------------------------------------------------------------------
# ODE flow
# ---------------------------------------------------------------------------

def _rotation_field(t, y):
    return np.array([-y[1], y[0]])


def test_ode_flow_rotation():
    res = ode_flow(_rotation_field, np.array([1.0, 0.0]), np.pi / 2.0)
    assert np.max(np.abs(res.state - np.array([0.0, 1.0]))) < 1e-9
    assert res.n_steps > 0


def test_ode_flow_error_estimate_consistent():
    res = ode_flow(_rotation_field, np.array([1.0, 0.0]), 7.0)
    exact = np.array([math.cos(7.0), math.sin(7.0)])
    assert np.max(np.abs(res.state - exact)) < res.error


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ode_flow_nan_detection():
    def bad(t, y):
        return np.array([np.inf])
    with pytest.raises(NonConvergenceError):
        ode_flow(bad, np.array([1.0]), 1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ode_flow_nan_mid_flow():
    def blows_up(t, y):
        return np.array([np.nan if t > 0.3 else 1.0])
    with pytest.raises(NonConvergenceError):
        ode_flow(blows_up, np.array([1.0]), 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("start, value", [
    ([np.nan, 0.0], 1.0), ([1.0, -np.inf], 1.0), ([1.0, 0.0], np.nan), ([1.0, 0.0], np.inf),
], ids=["nan_state", "inf_state", "nan_field", "inf_field"])
def test_ode_flow_refuses_a_non_finite_start(start, value):
    # DOP853's first step would be NaN, and its step loop would never end;
    # the refusal warns of nothing on the way
    with pytest.raises(NonConvergenceError, match="start"):
        ode_flow(lambda t, y: np.full_like(y, value), np.array(start), 1.0)


def test_ode_flow_backward_time():
    fwd = ode_flow(_rotation_field, np.array([1.0, 0.0]), 0.7)
    back = ode_flow(_rotation_field, fwd.state, -0.7)
    assert np.max(np.abs(back.state - np.array([1.0, 0.0]))) < 1e-9


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def test_find_root_1d_bracketed():
    root = find_root_1d(lambda x: x * x - 2.0, bracket=(0.0, 2.0))
    assert abs(root - np.sqrt(2.0)) < 1e-12


def test_find_root_1d_seed_expansion():
    root = find_root_1d(np.cos, seed=1.4)
    assert abs(root - np.pi / 2.0) < 1e-12


def test_find_root_1d_failure_reported():
    with pytest.raises(NonConvergenceError):
        find_root_1d(lambda x: 1.0 + x * x, seed=0.3)


def test_find_root_1d_rejects_jump_without_root():
    # Brent converges onto the jump of a step function, where the residual is 1
    with pytest.raises(NonConvergenceError):
        find_root_1d(lambda x: 1.0 if x > 0.5 else -1.0, bracket=(0.0, 1.0))


# ---------------------------------------------------------------------------
# PiecewisePoly: sign decisions against an exact rational reference
# ---------------------------------------------------------------------------

def _exact_hermite(x0, x1, v0, d0, v1, d1):
    """Power coefficients in t of the Hermite cubic on [x0, x1], exactly."""
    h, dv = x1 - x0, v1 - v0
    return [v0, h * d0, 3 * dv - h * (2 * d0 + d1), -2 * dv + h * (d0 + d1)]


def _exact_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _exact_bernstein(a):
    n = len(a) - 1
    return [sum(Fraction(math.comb(j, i), math.comb(n, i)) * a[i] for i in range(j + 1))
            for j in range(n + 1)]


def _exact_halves(b):
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = [(p + q) / 2 for p, q in zip(b[:-1], b[1:])]
        left.append(b[0])
        right.append(b[-1])
    return left, right[::-1]


def _exact_min_bounds(a, depth=40, keep=3):
    """(lower, upper) bounds on the exact minimum of a polynomial on [0, 1],
    by exact Bernstein subdivision of the pieces that can hold it."""
    pieces = [_exact_bernstein(a)]
    upper = min(pieces[0][0], pieces[0][-1])
    floor = None  # smallest lower bound among pieces set aside
    for _ in range(depth):
        split = [h for b in pieces for h in _exact_halves(b)]
        upper = min([upper] + [min(b[0], b[-1]) for b in split])
        split.sort(key=min)
        live = [b for b in split if min(b) < upper]
        for b in live[keep:]:
            floor = min(b) if floor is None else min(floor, min(b))
        pieces = live[:keep]
        if not pieces:
            break
    lowers = [min(b) for b in pieces] + ([floor] if floor is not None else [])
    return (min(lowers) if lowers else upper), upper


def _exact_leading_zeros_removed(a):
    z = 0
    while z < len(a) - 1 and a[z] == 0:
        z += 1
    return a[z:]


# Hermite data of one function, with no parity asked of them
Hermite = namedtuple("Hermite", "knots values derivs")


def _pieces(fn):
    return PiecewisePoly.from_hermite(fn.knots, [(fn.values, fn.derivs)])


def _random_hermite(rng, at_core: bool, knots=None):
    """Full-precision random data (every float is a dyadic rational, so the
    exact reference sees the same numbers); at_core starts at 0 with
    f = f' = 0."""
    if knots is None:
        knots = np.sort(rng.uniform(0.05, 1.0, size=rng.integers(2, 5)))
        knots = np.concatenate([[0.0], knots]) if at_core else knots
    v = rng.uniform(-3.0, 3.0, size=knots.size)
    d = rng.uniform(-3.0, 3.0, size=knots.size)
    if at_core:
        v[0] = d[0] = 0.0
    return Hermite(knots, v, d)


def _exact_pieces(fn):
    x = [Fraction(t) for t in fn.knots]
    v = [Fraction(t) for t in fn.values]
    d = [Fraction(t) for t in fn.derivs]
    return [_exact_hermite(x[i], x[i + 1], v[i], d[i], v[i + 1], d[i + 1])
            for i in range(len(x) - 1)]


def _exact_derivative(pieces, knots):
    return [[k * a[k] / (Fraction(x1) - Fraction(x0)) for k in range(1, len(a))]
            for a, x0, x1 in zip(pieces, knots[:-1], knots[1:])]


def _exact_cut(a, x0, x1, lo, hi):
    """The piece a on [x0, x1] in the local variable of [lo, hi], exactly."""
    h = Fraction(x1) - Fraction(x0)
    al, be = (Fraction(lo) - Fraction(x0)) / h, (Fraction(hi) - Fraction(lo)) / h
    return [be ** k * sum(math.comb(m, k) * al ** (m - k) * a[m] for m in range(k, len(a)))
            for k in range(len(a))]


def _exact_on(pieces, knots, lo, hi):
    """Exact pieces of a function with the given knots, on pieces [lo, hi]."""
    out = []
    for l, h in zip(lo, hi):
        i = min(int(np.searchsorted(knots, l, side="right")) - 1, len(knots) - 2)
        out.append(_exact_cut(pieces[i], knots[i], knots[i + 1], l, h))
    return out


def _exposed(poly, exact):
    """poly minus its own float coefficients (taken as exact) plus a tiny
    delta > 0: in floats every coefficient reads delta, while the exact
    sign is set by poly's rounding errors, which only its bounds cover."""
    delta = 2.0 ** -60 * float(np.abs(poly.coef).max())
    fixed = PiecewisePoly(poly.lo, poly.hi, poly.coef.copy(), np.zeros_like(poly.coef))
    return poly - fixed + delta, [
        [e - Fraction(c) + (Fraction(delta) if k == 0 else 0) for k, (e, c) in enumerate(zip(a, row))]
        for a, row in zip(exact, poly.coef)]


def _check_against_exact(poly, exact, seed, mags=None):
    fails = poly.failures()
    for i, a in enumerate(exact):
        mag = sum(abs(c) for c in (a if mags is None else mags[i]))
        core = poly.lo[i] == 0.0
        lower, upper = _exact_min_bounds(_exact_leading_zeros_removed(a) if core else a)
        if np.isnan(fails[i]):
            assert lower > 0, (seed, i, float(lower))   # decided positive: exactly so
        elif lower > 0:
            # undecided, not negative: only within rounding of zero
            assert upper <= Fraction(1e-12) * mag, (seed, i, float(upper))


@pytest.mark.parametrize("seed", range(16))
def test_positive_never_contradicts_exact_sign(seed):
    rng = np.random.default_rng(seed)
    f = _random_hermite(rng, at_core=seed % 3 == 0)
    g = _random_hermite(rng, at_core=False, knots=f.knots)
    F, G = _pieces(f), _pieces(g)
    ef, eg = _exact_pieces(f), _exact_pieces(g)
    efp = _exact_derivative(ef, f.knots)
    # a shift that makes F^2 + shift vanish at a knot, up to the rounding of v^2
    v = f.values[rng.integers(1, f.knots.size)]
    shift = -(v * v) + [0.0, 1e-14, -1e-14][seed % 3]
    cases = [
        (F, ef),
        (F.derivative(), efp),
        (F * G, [_exact_mul(a, b) for a, b in zip(ef, eg)]),                  # degree 6
        (F.derivative() * G, [_exact_mul(a, b) for a, b in zip(efp, eg)]),    # degree 5
        (F * F + shift, [[c + (Fraction(shift) if k == 0 else 0)
                          for k, c in enumerate(_exact_mul(a, a))] for a in ef]),
    ]
    # cut to an interval that ends off the knots, and a sum over the union
    # of two knot sets (both re-expressed on the new pieces)
    a, b = np.sort(rng.uniform(f.knots[0], f.knots[-1], size=2))
    cut = (F * G).restrict(a, b)
    cases.append((cut, _exact_on([_exact_mul(p, q) for p, q in zip(ef, eg)], f.knots,
                                 cut.lo, cut.hi)))
    cut = F.restrict(a, b)
    cases.append((cut, _exact_on(ef, f.knots, cut.lo, cut.hi)))
    h = _random_hermite(rng, at_core=False,
                        knots=np.sort(rng.uniform(f.knots[0], f.knots[-1], size=3)))
    both = F.restrict(h.knots[0], h.knots[-1]) + _pieces(h)
    eh = _exact_pieces(h)
    cases.append((both, [[p + q for p, q in zip(u, w)] for u, w in zip(
        _exact_on(ef, f.knots, both.lo, both.hi), _exact_on(eh, h.knots, both.lo, both.hi))]))
    for poly, exact in cases:
        _check_against_exact(poly, exact, seed)
        _check_against_exact(*_exposed(poly, exact), seed, mags=exact)


def test_positive_factors_parity_zeros_at_the_core():
    r = np.linspace(0.0, 1.0, 5)
    c = PiecewisePoly.from_radial(RadialFunction(r, r * r / 2.0, r, parity="even"))
    d = PiecewisePoly.from_radial(RadialFunction(r, 1.0 - 0.25 * r * r, -0.5 * r,
                                                 parity="even"))
    W = c.derivative() * d - c * d.derivative()      # W = r exactly
    assert W.coef[0, 0] == 0.0 and W.err[0, 0] == 0.0
    assert W.positive() is None                      # decided on (0, 1]
    value, r_at = W.extreme(W.radius())              # W/r, its limit at 0 included
    assert value == pytest.approx(1.0, abs=1e-12)
    assert (-W).positive() == 0.0


def test_extreme_and_roots_closed_forms():
    r = np.linspace(0.0, 1.0, 4)
    f = _pieces(Hermite(r, (r - 0.4) ** 2, 2.0 * (r - 0.4)))
    value, r_at = f.extreme()
    assert value == pytest.approx(0.0, abs=1e-15)
    assert r_at == pytest.approx(0.4, abs=1e-8)
    top, r_top = f.extreme(largest=True)
    assert top == pytest.approx(0.36, abs=1e-15) and r_top == 1.0
    # H' = (r - 0.3)(r - 0.5) for the cubic H, cut to [0.2, 0.9]; the root
    # 0.5 lies on no knot, 0.3 on none either, and the knot 1/3 is shared
    H = Hermite(r, r ** 3 / 3.0 - 0.4 * r ** 2 + 0.15 * r, (r - 0.3) * (r - 0.5))
    roots = _pieces(H).derivative().restrict(0.2, 0.9).roots()
    assert np.allclose(roots, [0.3, 0.5], atol=1e-14)
    # a root on a shared knot is reported once
    K = Hermite(r, r ** 3 / 3.0 - r ** 2 / 3.0, r * r - 2.0 * r / 3.0)
    assert np.allclose(_pieces(K).derivative().roots(), [2.0 / 3.0], atol=1e-14)


# ---------------------------------------------------------------------------
# PiecewisePoly.roots on cubic pieces against exact rational roots
# ---------------------------------------------------------------------------

def _exact_value(a, t):
    return sum(c * t ** k for k, c in enumerate(a))


def _exact_root_intervals(a, depth=48):
    """[lo, hi] in t of width <= 2^-depth (or a point), around every root of
    the exact polynomial a in [0, 1], by exact Bernstein subdivision: a
    part whose nonzero Bernstein coefficients share one sign holds no
    root inside."""
    out, stack = [], [(Fraction(0), Fraction(1), _exact_bernstein(a))]
    while stack:
        lo, hi, b = stack.pop()
        out += [(t, t) for t, v in ((lo, b[0]), (hi, b[-1])) if v == 0]
        signs = {c > 0 for c in b if c != 0}
        if len(signs) < 2:
            continue
        if hi - lo <= Fraction(1, 2 ** depth):
            out.append((lo, hi))
            continue
        left, right = _exact_halves(b)
        mid = (lo + hi) / 2
        stack += [(lo, mid, left), (mid, hi, right)]
    return out


def _exact_roots(fn, target):
    """Roots in r of the exact Hermite data of fn minus target, as
    Fractions, merged when within 2^-40 of each other."""
    found = []
    for a, x0, x1 in zip(_exact_pieces(fn), fn.knots[:-1], fn.knots[1:]):
        a = [a[0] - Fraction(target)] + a[1:]
        if not any(a):
            continue   # identically equal to the target: a band, not roots
        h = Fraction(x1) - Fraction(x0)
        found += [Fraction(x0) + h * (lo + hi) / 2 for lo, hi in _exact_root_intervals(a)]
    found.sort()
    merged = found[:1]
    for r in found[1:]:
        if r - merged[-1] > Fraction(1, 2 ** 40):
            merged.append(r)
    return merged


def test_cubic_roots_planted_cases():
    # (t - 1/4)^2 (t + 1) on one piece: a tangency at 1/4 and at the
    # critical point of the cubic, reported once
    tangent = Hermite(np.array([0.0, 1.0]), np.array([0.0625, 1.125]),
                      np.array([-0.4375, 3.5625]))
    assert _pieces(tangent).roots().tolist() == [0.25]
    assert _exact_roots(tangent, 0.0) == [Fraction(1, 4)]
    # t (t - 1/2) (t - 1) on [0.25, 0.75]: roots at both piece ends
    ends = Hermite(np.array([0.25, 0.75]), np.zeros(2), np.ones(2))
    assert _pieces(ends).roots().tolist() == [0.25, 0.5, 0.75]
    assert _exact_roots(ends, 0.0) == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    # a piece equal to the target on [0.4, 0.9] is a band: it adds no
    # roots, its neighbours meet the target at its ends, each reported once
    knots = np.array([0.125, 0.375, 0.875, 1.0])
    band = Hermite(knots, np.array([1.0, 2.0, 2.0, 3.0]), np.zeros(4))
    assert (_pieces(band) - 2.0).roots().tolist() == [0.375, 0.875]
    assert _exact_roots(band, 2.0) == [Fraction(3, 8), Fraction(7, 8)]
    # a simple root on a shared knot is reported once
    knot = Hermite(np.array([0.0, 0.5, 1.0]), np.array([-1.0, 0.0, 1.0]),
                   np.array([3.0, 1.0, 3.0]))
    assert _pieces(knot).roots().tolist() == [0.5]
    # a double root on the support of a bump: the closed-form local t is
    # one ulp short of 1, and the root is the knot itself
    bump = RadialFunction.bump(3.5, 0.04)
    assert 0.04 in PiecewisePoly.from_radial(bump).derivative().roots().tolist()


@pytest.mark.parametrize("seed", range(12))
def test_cubic_roots_match_exact(seed):
    rng = np.random.default_rng(seed)
    f = _random_hermite(rng, at_core=False,
                        knots=np.sort(rng.uniform(0.0, 1.0, size=rng.integers(3, 7))))
    # every other seed plants a root on a shared knot
    target = float(f.values[1]) if seed % 2 else float(np.median(f.values))
    got = (_pieces(f) - target).roots()
    want = _exact_roots(f, target)
    assert len(got) == len(want), (seed, got, [float(r) for r in want])
    for r, w in zip(got, want):
        assert abs(Fraction(float(r)) - w) <= Fraction(1e-12), (seed, float(r), float(w))


def _exact_integral(pieces, lo, hi):
    return sum((Fraction(h) - Fraction(l)) * sum(c / (k + 1) for k, c in enumerate(a))
               for a, l, h in zip(pieces, lo, hi))


@pytest.mark.parametrize("seed", range(6))
def test_integral_matches_exact(seed):
    rng = np.random.default_rng(seed)
    f = _random_hermite(rng, at_core=seed % 2 == 0)
    g = _random_hermite(rng, at_core=False, knots=f.knots)
    F, G = _pieces(f), _pieces(g)
    ef, eg = _exact_pieces(f), _exact_pieces(g)
    efp, egp = _exact_derivative(ef, f.knots), _exact_derivative(eg, g.knots)
    W = F.derivative() * G - F * G.derivative()
    ew = [[p - q for p, q in zip(_exact_mul(a, b), _exact_mul(c, d))]
          for a, b, c, d in zip(efp, eg, ef, egp)]
    for poly, exact in ((F, ef), (W, ew)):
        h = poly.hi - poly.lo
        w = 1.0 / np.arange(1, poly.coef.shape[1] + 1)
        n = poly.lo.size + poly.coef.shape[1] + 2
        gamma = n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53)
        # the data's error bounds, plus rounding of h, 1/(k + 1) and the sums
        bound = np.sum(h * (poly.err @ w)) + gamma * np.sum(h * (np.abs(poly.coef) @ w))
        gap = abs(Fraction(poly.integral()) - _exact_integral(exact, poly.lo, poly.hi))
        assert gap <= Fraction(float(bound)), (seed, float(gap), float(bound))


def test_from_hermite_sums_terms_and_extends_flat():
    # a function ending short of `upto`: its pieces are those of the
    # RadialFunction of the summed data plus one flat piece to `upto`,
    # and the sum is taken in the data
    x = np.array([0.0, 0.25, 0.5])
    v, d = np.array([1.0, 0.3, 0.1]), np.array([0.0, -2.0, 0.5])
    w = np.array([-1.0, 0.7, 0.9])
    for terms in ([(v, d)], [(v, d), (w, -d)]):
        p = PiecewisePoly.from_hermite(x, terms, upto=1.0)
        fns = [RadialFunction(x, *t) for t in terms]
        one = PiecewisePoly.from_radial(*fns, upto=1.0)
        assert p.lo.tolist() == [0.0, 0.25, 0.5] and p.hi.tolist() == [0.25, 0.5, 1.0]
        for name in ("lo", "hi", "coef", "err"):
            assert np.array_equal(getattr(p, name), getattr(one, name)), name
        assert p.coef[-1].tolist() == [sum(t[0][-1] for t in terms), 0.0, 0.0, 0.0]
        assert np.array_equal(PiecewisePoly.from_hermite(x, terms, upto=0.5).lo, x[:-1])
    # f + g with cancelling data: an exact zero, not a rounding residue
    zero = PiecewisePoly.from_hermite(x, [(v, d), (-v, -d)])
    assert not zero.coef.any() and not zero.err.any()


def test_extremes_take_a_shared_knot_from_the_tighter_side():
    # f = 1 - r on [0, 1], 2 r - 1 on [1, 2]: the minimum 0 sits on the
    # shared knot.  The left piece's end value reads 1e-12 low and carries
    # a rounding bound of 1e-9; the right piece's start value is exact.
    f = PiecewisePoly(np.array([0.0, 1.0]), np.array([1.0, 2.0]),
                      np.array([[1.0, -1.0 - 1e-12], [0.0, 1.0]]),
                      np.array([[0.0, 1e-9], [0.0, 0.0]]))
    assert f.extreme() == (0.0, 1.0)
    # with the bounds swapped, the low value is the better-founded one
    g = PiecewisePoly(f.lo, f.hi, f.coef, np.array([[0.0, 0.0], [1e-9, 0.0]]))
    assert g.extreme() == (1.0 + (-1.0 - 1e-12), 1.0)


# ---------------------------------------------------------------------------
# resonances: the shared zero rule, band merge and own-band root filter
# ---------------------------------------------------------------------------

def _lines(lo, hi, value, slope):
    """value(lo) + slope (r - lo) on each piece, as local coefficients."""
    return np.stack([value, slope * (hi - lo)], axis=1)


def test_resonances_merge_a_band_and_drop_only_its_own_roots():
    # pieces [0, 1/4], ..., [3/4, 1] twice; b = 1.  Label 0 (pieces 0-3)
    # poses a - b = 0 on [1/4, 3/4], 1/4 - r before and r - 3/4 after it;
    # label 1 (pieces 4-7) poses a - b = r - 3/4.
    knots = np.linspace(0.0, 1.0, 5)
    lo, hi = np.tile(knots[:-1], 2), np.tile(knots[1:], 2)
    gap0 = np.array([0.25 - lo[0], 0.0, 0.0, lo[3] - 0.75])
    slope0 = np.array([-1.0, 0.0, 0.0, 1.0])
    coef = np.concatenate([_lines(lo[:4], hi[:4], 1.0 + gap0, slope0),
                           _lines(lo[4:], hi[4:], 1.0 + lo[4:] - 0.75, np.ones(4))])
    a = PiecewisePoly(lo, hi, coef, np.zeros_like(coef))
    b = a.constant(1.0)
    label = np.repeat([0, 1], 4)
    (band, band_lo, band_hi), (r, own) = resonances(
        a, b, [(label, np.arange(8), np.ones(8), np.ones(8))])
    # one band across pieces 1 and 2, with its [lo, hi]
    assert band.tolist() == [0]
    assert (band_lo.tolist(), band_hi.tolist()) == ([0.25], [0.75])
    # label 0's knot roots 1/4 and 3/4 touch its band and are dropped;
    # label 1's root 3/4, at the same radius, stays
    assert own.tolist() == [1]
    assert r == pytest.approx([0.75], abs=1e-15)
    # vanishing pieces of two labels stay two bands, even when consecutive
    flat = PiecewisePoly(np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.ones((2, 1)),
                         np.zeros((2, 1)))
    (band, band_lo, band_hi), _ = resonances(
        flat, flat, [(np.array([0, 1]), np.array([0, 1]), np.ones(2), np.ones(2))])
    assert (band.tolist(), band_lo.tolist(), band_hi.tolist()) == ([0, 1], [0.0, 1.0],
                                                                   [1.0, 2.0])


@pytest.mark.parametrize("share, vanishes", [(1e-13, True), (3e-13, True),
                                             (3e-12, False), (1e-11, False)])
def test_resonances_zero_rule_is_one_part_in_1e12(share, vanishes):
    # a - b = eps (1 - 2 t) on [0, 1] with b = 1: |m||a| + |n||b| is about
    # 2 at both ends, and eps is `share` of it
    eps = 2.0 * share
    a = PiecewisePoly(np.array([0.0]), np.array([1.0]), np.array([[1.0 + eps, -2.0 * eps]]),
                      np.zeros((1, 2)))
    (band, band_lo, band_hi), (r, own) = resonances(
        a, a.constant(1.0), [(np.array([0]), np.array([0]), np.ones(1), np.ones(1))])
    if vanishes:
        assert (band.tolist(), band_lo.tolist(), band_hi.tolist()) == ([0], [0.0], [1.0])
        assert r.size == 0
    else:
        assert band.size == 0
        assert r == pytest.approx([0.5], abs=1e-4)   # eps is rounded against 1
