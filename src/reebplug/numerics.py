"""Shared numerical kernels: radial Hermite functions, quadrature, ODE flows, root finding.

Everything here is deterministic: fixed quadrature ladders, fixed step
acceptance rules, no randomness.  The heavier lifting is delegated to
scipy (QUADPACK, DOP853, Brent) behind small result types that carry
error estimates and explicit convergence flags.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, IntegrationWarning, quad
from scipy.optimize import brentq


class NonConvergenceError(RuntimeError):
    """A numerical routine failed to reach its requested tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance contract for 1D/2D quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200


@dataclass(frozen=True)
class OdeSpec:
    """Tolerance contract for ODE flows (per-step tolerance, step limits)."""

    tol: float = 1e-10
    max_step: float = np.inf
    max_steps: int = 200_000


DEFAULT_QUAD = QuadratureSpec()
DEFAULT_ODE = OdeSpec()


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    converged: bool

    def require(self) -> float:
        if not self.converged:
            raise NonConvergenceError(
                f"quadrature did not converge (estimated error {self.error:.3e})",
                residual=self.error,
            )
        return self.value


@dataclass(frozen=True)
class OdeResult:
    state: np.ndarray
    error: float
    n_steps: int


# ---------------------------------------------------------------------------
# Radial Hermite functions
# ---------------------------------------------------------------------------

_PARITIES = ("even", "odd", "none")


@dataclass(frozen=True)
class RadialFunction:
    """Piecewise cubic Hermite function of the radius, C1 on its knot range.

    Stores (value, derivative) pairs at strictly increasing knots; each
    piece is the unique cubic matching the endpoint data, so a cubic
    polynomial sampled this way is reproduced exactly.  Outside the knot
    range the function is extended with the boundary value and zero
    slope (profiles are built so that the extension is C1 where it is
    actually used).  The parity tag states the smooth extension through
    r = 0: even forces f'(0) = 0, odd forces f(0) = 0.
    """

    knots: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    parity: str = "none"

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        derivs = np.asarray(self.derivs, dtype=float)
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("need at least two knots")
        if values.shape != knots.shape or derivs.shape != knots.shape:
            raise ValueError("knots, values, derivs must have equal shape")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values)) and np.all(np.isfinite(derivs))):
            raise ValueError("non-finite data")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if self.parity not in _PARITIES:
            raise ValueError(f"parity must be one of {_PARITIES}")
        if knots[0] == 0.0:
            if self.parity == "even" and abs(derivs[0]) > 1e-12:
                raise ValueError("even parity requires f'(0) = 0")
            if self.parity == "odd" and abs(values[0]) > 1e-12:
                raise ValueError("odd parity requires f(0) = 0")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivs", derivs)
        # per-piece cubic coefficients in the local variable t = (x - x_i)/h:
        # f = v + (h d) t + c2 t^2 + c3 t^3
        h = np.diff(knots)
        dv = np.diff(values)
        c2 = 3.0 * dv - h * (2.0 * derivs[:-1] + derivs[1:])
        c3 = -2.0 * dv + h * (derivs[:-1] + derivs[1:])
        object.__setattr__(self, "_h", h)
        object.__setattr__(self, "_c2", c2)
        object.__setattr__(self, "_c3", c3)

    # -- construction -------------------------------------------------

    @classmethod
    def from_callable(cls, fn, dfn, knots, parity: str = "none") -> "RadialFunction":
        knots = np.asarray(knots, dtype=float)
        return cls(knots, np.array([fn(x) for x in knots], dtype=float),
                   np.array([dfn(x) for x in knots], dtype=float), parity)

    @classmethod
    def bump(cls, amplitude: float, support: float, power: int = 3,
             n_knots: int = 257) -> "RadialFunction":
        """amplitude * (1 - (r/support)^2)^power on [0, support], 0 beyond."""
        if support <= 0 or power < 2 or n_knots < 3:
            raise ValueError("bump needs support > 0, power >= 2, n_knots >= 3")
        r = np.linspace(0.0, support, n_knots)
        u = (r / support) ** 2
        vals = amplitude * (1.0 - u) ** power
        ders = amplitude * power * (1.0 - u) ** (power - 1) * (-2.0 * r / support ** 2)
        vals[-1] = 0.0
        ders[-1] = 0.0
        return cls(r, vals, ders, parity="even")

    # -- evaluation ---------------------------------------------------

    def _locate(self, x: np.ndarray):
        idx = np.searchsorted(self.knots, x, side="right") - 1
        idx = np.clip(idx, 0, self.knots.size - 2)
        t = (x - self.knots[idx]) / self._h[idx]
        return idx, t

    def _reflect(self, x: np.ndarray):
        """Fold negative radii through 0 per parity; returns (|x| clamped, sign)."""
        x = np.asarray(x, dtype=float)
        if self.parity == "none" or self.knots[0] != 0.0:
            return x, np.ones_like(x)
        sign = np.where(x < 0.0, -1.0 if self.parity == "odd" else 1.0, 1.0)
        return np.abs(x), sign

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        xr, sgn = self._reflect(x)
        lo, hi = self.knots[0], self.knots[-1]
        xc = np.clip(xr, lo, hi)
        idx, t = self._locate(xc)
        out = (self.values[idx] + self._h[idx] * self.derivs[idx] * t
               + self._c2[idx] * t * t + self._c3[idx] * t ** 3)
        out = np.where(xr < lo, self.values[0], out)
        out = np.where(xr > hi, self.values[-1], out)
        out = out * sgn
        return float(out[0]) if scalar else out

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        xr, sgn = self._reflect(x)
        dsgn = sgn if self.parity != "even" else np.where(np.asarray(x) < 0.0, -1.0, 1.0)
        if self.parity == "odd":
            dsgn = np.ones_like(sgn)
        lo, hi = self.knots[0], self.knots[-1]
        xc = np.clip(xr, lo, hi)
        idx, t = self._locate(xc)
        out = (self._h[idx] * self.derivs[idx] + 2.0 * self._c2[idx] * t
               + 3.0 * self._c3[idx] * t * t) / self._h[idx]
        out = np.where((xr < lo) | (xr > hi), 0.0, out)
        out = out * dsgn
        return float(out[0]) if scalar else out

    def second_derivative(self, x):
        """One-sided (right-limit) second derivative; pieces are linear in it."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        xr, _ = self._reflect(x)
        lo, hi = self.knots[0], self.knots[-1]
        xc = np.clip(xr, lo, hi)
        idx, t = self._locate(xc)
        out = (2.0 * self._c2[idx] + 6.0 * self._c3[idx] * t) / self._h[idx] ** 2
        out = np.where((xr < lo) | (xr > hi), 0.0, out)
        return float(out[0]) if scalar else out

    # -- calculus -----------------------------------------------------

    def integral(self, a: float, b: float) -> float:
        """Exact integral of the piecewise cubic over [a, b] (within knot range)."""
        if b < a:
            return -self.integral(b, a)

        def anti(idx: int, t: float) -> float:
            h = self._h[idx]
            return h * (self.values[idx] * t + 0.5 * h * self.derivs[idx] * t * t
                        + self._c2[idx] * t ** 3 / 3.0 + 0.25 * self._c3[idx] * t ** 4)

        lo, hi = self.knots[0], self.knots[-1]
        total = 0.0
        if a < lo:
            total += self.values[0] * (min(b, lo) - a)
        if b > hi:
            total += self.values[-1] * (b - max(a, hi))
        aa, bb = max(a, lo), min(b, hi)
        if bb > aa:
            ia = int(np.clip(np.searchsorted(self.knots, aa, side="right") - 1, 0, self.knots.size - 2))
            ib = int(np.clip(np.searchsorted(self.knots, bb, side="right") - 1, 0, self.knots.size - 2))
            ta = (aa - self.knots[ia]) / self._h[ia]
            tb = (bb - self.knots[ib]) / self._h[ib]
            if ia == ib:
                total += anti(ia, tb) - anti(ia, ta)
            else:
                total += anti(ia, 1.0) - anti(ia, ta)
                for i in range(ia + 1, ib):
                    total += anti(i, 1.0)
                total += anti(ib, tb)
        return total

    def scaled(self, factor: float, arg_scale: float = 1.0) -> "RadialFunction":
        """factor * f(r / arg_scale) as a new RadialFunction."""
        return RadialFunction(self.knots * arg_scale, self.values * factor,
                              self.derivs * (factor / arg_scale), self.parity)

    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        if not isinstance(other, RadialFunction):
            return NotImplemented
        knots = np.union1d(self.knots, other.knots)
        vals = self(knots) + other(knots)
        ders = self.derivative(knots) + other.derivative(knots)
        parity = self.parity if self.parity == other.parity else "none"
        return RadialFunction(knots, vals, ders, parity)

    def __mul__(self, scalar: float) -> "RadialFunction":
        return RadialFunction(self.knots, self.values * scalar, self.derivs * scalar, self.parity)

    __rmul__ = __mul__

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {"knots": self.knots.tolist(), "values": self.values.tolist(),
                "derivs": self.derivs.tolist(), "parity": self.parity}

    @classmethod
    def from_dict(cls, d: dict) -> "RadialFunction":
        return cls(np.array(d["knots"], float), np.array(d["values"], float),
                   np.array(d["derivs"], float), d.get("parity", "none"))


def gauss_rule(n: int):
    """Gauss-Legendre nodes/weights on [-1, 1] (exact for degree 2n-1)."""
    return np.polynomial.legendre.leggauss(n)


def gauss_piecewise(fn, breakpoints, a: float, b: float, npts: int = 5) -> float:
    """Composite Gauss quadrature of fn over [a, b], split at breakpoints.

    Exact (to rounding) when fn is a polynomial of degree <= 2*npts - 1 on
    each subinterval; that covers products of piecewise cubics.
    """
    if b < a:
        return -gauss_piecewise(fn, breakpoints, b, a, npts)
    pts = np.asarray(breakpoints, dtype=float)
    pts = pts[(pts > a) & (pts < b)]
    edges = np.concatenate([[a], np.unique(pts), [b]])
    x, w = gauss_rule(npts)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    vals = np.asarray(fn(nodes), dtype=float).reshape(mid.size, x.size)
    return float(np.sum(half * (vals @ w)))


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def integrate_1d(fn, a: float, b: float, spec: QuadratureSpec | None = None,
                 points=None) -> QuadResult:
    """Adaptive quadrature of fn over [a, b] with an error estimate.

    `points` lists known interior breakpoints (kinks of piecewise data) so
    the subdivision lands on them.
    """
    spec = spec or DEFAULT_QUAD
    if a == b:
        return QuadResult(0.0, 0.0, True)
    pts = None
    if points is not None:
        arr = np.asarray(points, dtype=float)
        lo, hi = min(a, b), max(a, b)
        arr = arr[(arr > lo) & (arr < hi)]
        pts = np.unique(arr) if arr.size else None
    limit = max(spec.max_subdivisions, 50)
    if pts is not None:
        limit = max(limit, 2 * pts.size + 50)
    converged = True
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            value, err = quad(fn, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                              limit=limit, points=pts)
        except IntegrationWarning:
            warnings.simplefilter("ignore", IntegrationWarning)
            value, err = quad(fn, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                              limit=limit, points=pts)
            converged = False
    if converged and err > max(spec.abs_tol, abs(value) * spec.rel_tol) * 10.0:
        converged = False
    return QuadResult(float(value), float(err), converged)


def integrate_disk(fn, radius: float, spec: QuadratureSpec | None = None) -> QuadResult:
    """Integral of fn(x, y) over the disk of the given radius.

    Iterated polar quadrature: a doubling trapezoid ladder in the angle
    (spectrally accurate for smooth periodic integrands) inside an
    adaptive radial rule.
    """
    spec = spec or DEFAULT_QUAD
    if radius <= 0:
        return QuadResult(0.0, 0.0, True)
    inner_tol = max(spec.abs_tol / (4.0 * radius), 1e-15)
    worst_inner = 0.0
    inner_failed = False

    def ring_mean(r: float) -> float:
        nonlocal worst_inner, inner_failed
        if r == 0.0:
            return fn(0.0, 0.0)
        n = 32
        theta = np.arange(n) * (2.0 * np.pi / n)
        prev = float(np.mean(fn(r * np.cos(theta), r * np.sin(theta))))
        while n < 8192:
            n *= 2
            theta = np.arange(n) * (2.0 * np.pi / n)
            cur = float(np.mean(fn(r * np.cos(theta), r * np.sin(theta))))
            if abs(cur - prev) < max(inner_tol, abs(cur) * spec.rel_tol):
                worst_inner = max(worst_inner, abs(cur - prev))
                return cur
            prev = cur
        inner_failed = True
        worst_inner = max(worst_inner, abs(cur - prev))
        return cur

    outer = integrate_1d(lambda r: 2.0 * np.pi * r * ring_mean(r), 0.0, radius, spec)
    err = outer.error + worst_inner * 2.0 * np.pi * radius ** 2
    return QuadResult(outer.value, err, outer.converged and not inner_failed)


# ---------------------------------------------------------------------------
# ODE flow
# ---------------------------------------------------------------------------

def ode_flow(field, start, time: float, spec: OdeSpec | None = None) -> OdeResult:
    """Flow `start` for `time` along field(t, y); counts steps, detects NaN."""
    spec = spec or DEFAULT_ODE
    y0 = np.asarray(start, dtype=float)
    if time == 0.0 or y0.size == 0:
        return OdeResult(y0.copy(), 0.0, 0)
    stepper = DOP853(field, 0.0, y0, t_bound=float(time),
                     rtol=spec.tol, atol=spec.tol, max_step=spec.max_step)
    n = 0
    scale = max(1.0, float(np.max(np.abs(y0))))
    while stepper.status == "running":
        msg = stepper.step()
        n += 1
        if not np.all(np.isfinite(stepper.y)):
            raise NonConvergenceError("ODE state became non-finite")
        scale = max(scale, float(np.max(np.abs(stepper.y))))
        if n > spec.max_steps:
            raise NonConvergenceError(f"ODE exceeded {spec.max_steps} steps")
    if stepper.status == "failed":
        raise NonConvergenceError(f"ODE step failure: {msg}")
    return OdeResult(stepper.y.copy(), n * spec.tol * scale, n)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def find_root_1d(fn, seed: float | None = None, spec: QuadratureSpec | None = None,
                 bracket: tuple[float, float] | None = None) -> float:
    """Root of a scalar function, from a bracket or by expanding around a seed.

    Verifies the residual before returning: |fn(root)| must be at most
    max(abs_tol, rel_tol * max |fn| at the bracket ends, 1e-14), or
    NonConvergenceError is raised rather than a spurious root (such as
    the jump of a step function) returned.
    """
    spec = spec or DEFAULT_QUAD
    tol = max(spec.abs_tol, 1e-14)
    if bracket is None:
        if seed is None:
            raise ValueError("need a seed or a bracket")
        fa = fn(seed)
        if abs(fa) < tol:
            return float(seed)
        h = max(abs(seed), 1.0) * 1e-4
        for _ in range(60):
            lo, hi = seed - h, seed + h
            flo, fhi = fn(lo), fn(hi)
            if np.sign(flo) != np.sign(fa):
                bracket = (lo, seed)
                break
            if np.sign(fhi) != np.sign(fa):
                bracket = (seed, hi)
                break
            h *= 1.7
        if bracket is None:
            raise NonConvergenceError("no sign change found around seed", residual=abs(fa))
    root = brentq(fn, bracket[0], bracket[1], xtol=1e-15, rtol=8.9e-16, maxiter=200)
    res = abs(fn(root))
    scale = max(abs(fn(bracket[0])), abs(fn(bracket[1])))
    if not res <= max(tol, spec.rel_tol * scale):
        raise NonConvergenceError(f"residual {res:.3e} at the root misses its tolerance",
                                  residual=res)
    return float(root)
