import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebplug.numerics import (
    NonConvergenceError,
    OdeSpec,
    QuadratureSpec,
    RadialFunction,
    find_root_1d,
    gauss_piecewise,
    integrate_1d,
    integrate_disk,
    ode_flow,
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
    ref = integrate_1d(lambda r: rf(float(r)) ** 2, 0.0, 1.0, points=rf.knots).value
    assert abs(val - ref) < 1e-12


# ---------------------------------------------------------------------------
# RadialFunction
# ---------------------------------------------------------------------------

def _quadratic_rf(n=9, parity="even"):
    r = np.linspace(0.0, 1.0, n)
    return RadialFunction(r, r * r, 2.0 * r, parity=parity)


def test_radial_function_reproduces_knot_data():
    rf = _quadratic_rf()
    assert np.allclose(rf(rf.knots), rf.values, rtol=0, atol=0)
    assert np.allclose(rf.derivative(rf.knots), rf.derivs, rtol=0, atol=0)


def test_radial_function_cubic_exact():
    # a cubic sampled at knots is reproduced exactly between knots
    p = np.polynomial.Polynomial([0.3, -1.0, 2.0, 0.7])
    dp = p.deriv()
    knots = np.array([0.0, 0.4, 1.1, 2.0])
    rf = RadialFunction(knots, p(knots), dp(knots))
    x = np.linspace(0.0, 2.0, 400)
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
    with pytest.raises(ValueError):
        RadialFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                       np.array([1.0, 0.0]), parity="even")
    with pytest.raises(ValueError):
        RadialFunction(np.array([0.0, 1.0]), np.array([0.5, 1.0]),
                       np.array([0.0, 0.0]), parity="odd")


def test_radial_function_even_reflection():
    rf = _quadratic_rf()
    assert abs(rf(-0.5) - rf(0.5)) < 1e-14
    assert abs(rf.derivative(-0.5) + rf.derivative(0.5)) < 1e-14


def test_radial_function_constant_extension():
    rf = RadialFunction.bump(2.0, 0.7, power=3)
    assert rf(0.9) == 0.0
    assert rf.derivative(0.9) == 0.0


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
    assert np.max(np.abs((2.0 * a)(x) - 2.0 * a(x))) < 1e-14


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
    spec = OdeSpec(tol=1e-8)
    tight = OdeSpec(tol=5e-9)
    a = ode_flow(_rotation_field, np.array([1.0, 0.0]), 7.0, spec)
    b = ode_flow(_rotation_field, np.array([1.0, 0.0]), 7.0, tight)
    assert np.max(np.abs(a.state - b.state)) < a.error


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ode_flow_nan_detection():
    def bad(t, y):
        return np.array([np.inf])
    with pytest.raises(NonConvergenceError):
        ode_flow(bad, np.array([1.0]), 1.0)


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
