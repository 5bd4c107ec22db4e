"""Compactly supported area-preserving disk maps and their action calculus.

A DiskMap is an ordered composition of two primitive kinds:

- RadialTwist: z -> z * exp(i * rho(|z|)) for a radial profile rho,
- HamiltonianStep: the time-t flow of a compactly supported Hamiltonian
  given as a finite sum of radial-bump x angular-harmonic terms.

Both primitives carry closed-form or variational differentials; nothing
here ever finite-differences the map itself.  The action sigma of a map
phi with respect to a primitive 1-form lam (lam0 = (x dy - y dx)/2,
optionally plus du) solves d(sigma) = phi*lam - lam and is anchored to
vanish where the map is the identity near the boundary circle.  The
Calabi invariant is the integral of sigma over the disk.

Every value of the calculus is a closed form per primitive, joined
along the composition:

- a twist has sigma(r) = -int_r^S s^2 rho'(s) / 2 ds and
  CAL = -(pi/2) int_0^S r^4 rho'(r) dr, both exact polynomial integrals
  on the profile's pieces (from each piece's upper end: sigma(S) = 0);
- a Hamiltonian step has sigma(z) = int_0^t (H + lam0(X_H))(phi_s z) ds,
  one extra row of its point flow, and CAL = 2 t int H, which only the
  m = 0 terms feed;
- a composition adds them by the cocycle sigma_(p o q) = sigma_p o q +
  sigma_q and CAL(p o q) = CAL(p) + CAL(q), and lam0 + du adds
  u(phi z) - u(z) to sigma while leaving CAL unchanged.

Line integrals of phi*lam - lam along rays and arcs are kept only as an
independent check of sigma (`ActionField.path_independence_check`).

Hamiltonians and the potentials u of lam0 + du are sums of bump-harmonic
terms, evaluated only by `BumpHarmonic.jet` (H, gradient and Hessian from
shared powers); a flow's right-hand side makes one jet call per term and
carries the point and the columns of its Jacobian as complex numbers.

Periodic points come as a `PeriodicSearch`: the records, plus the
entries and note that say how they were searched.  For a radial map
they are closed forms too, one record per family: the origin, the
circles where k rho = 2 pi p and the bands where that holds
identically, both from `numerics.resonances`, the solver the
rotational orbit search also uses.  Other maps run a seeded Newton
search inside the identity collar, the annulus near the boundary where
a bound on each primitive's displacement proves |phi^k(z) - z| below
the acceptance tolerance; that collar is one record, at |z| = support,
but a circle of periodic points is one record per seed that lands on
it.  At a flat support edge phi - id vanishes to high order, so Newton
only crawls toward it, each step a fixed fraction of the last (the rate
(mu - 1)/mu at a zero of multiplicity mu); a seed whose steps shrink
that way and whose steps' geometric limit lies in the collar is dropped
as early as one that steps into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .numerics import (
    PiecewisePoly,
    QuadratureSpec,
    RadialFunction,
    gauss_rule,
    ode_flow,
    resonances,
)


# ---------------------------------------------------------------------------
# Bump-harmonic terms (shared by Hamiltonians and 1-form potentials)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpHarmonic:
    """coef * (1 - (r/support)^2)^power * T_m(z/support), zero outside support.

    T_m is Re or Im of (z/support)^m, so the term is smooth on the plane
    (C^(power-1) across the support circle; power >= 3 keeps the Hessian
    continuous).  `jet` is its only evaluator: H, the gradient and the
    Hessian in one pass, and `_terms_jet` sums it over a tuple of terms.
    """

    m: int
    trig: str  # "cos" -> Re, "sin" -> Im
    coef: float
    support: float
    power: int = 4

    def __post_init__(self):
        if self.m < 0 or self.trig not in ("cos", "sin"):
            raise ValueError("need m >= 0 and trig in {cos, sin}")
        if not (math.isfinite(self.coef) and 0.0 < self.support < math.inf):
            raise ValueError("need a finite coef and a finite support > 0")
        if self.power < 3:
            raise ValueError("need power >= 3")
        if self.m == 0 and self.trig == "sin":
            raise ValueError("m = 0 sine term vanishes identically")

    def jet(self, z, order: int = 2) -> list:
        """[H, g, (P, Q)] at z, truncated after `order`.

        g = H_x + i H_y is the gradient, and (P, Q) is the Hessian in
        complex form: the real half-Laplacian P = (H_xx + H_yy) / 2 and
        Q = (H_xx - H_yy) / 2 + i H_xy, so that the Hessian applied to a
        complex vector v is P v + Q conj(v) (H_xx = P + Re Q, H_xy =
        Im Q, H_yy = P - Re Q).

        With s = max(1 - |z|^2/a^2, 0) and w = conj(z)/a, each formed
        once, the term is B T with B = coef s^p and T = Re w^m (cos) or
        -Im w^m (sin); s^(p - order) .. s^p and w^(m - order) .. w^m come
        from one power and then products, and only the orders asked for
        are formed.  In u = |z|^2 the gradient is 2 B' T z + B dT, where
        dT = T_x + i T_y is w^(m-1) m/a (times i for sin), P = 2 u B'' T +
        2 (m + 1) B' T (T is harmonic and x T_x + y T_y = m T) and Q =
        2 B'' T z^2 + 2 B' z dT + B (T_xx + i T_xy).  Outside the support
        s = 0 zeroes every order, since power >= 3.
        """
        z = np.asarray(z)
        a, p, m = self.support, self.power, self.m
        x, y = z.real, z.imag
        u = x * x + y * y
        s = _rising_powers(np.maximum(1.0 - u / a ** 2, 0.0), p, order)
        w = _rising_powers(np.conj(z) / a, m, order)
        T = w[-1].real if self.trig == "cos" else -w[-1].imag
        B = self.coef * s[-1]
        out = [B * T]
        if order == 0:
            return out
        unit = 1.0 if self.trig == "cos" else 1j
        D1 = (-2.0 * p * self.coef / a ** 2) * s[-2]    # 2 B'(u)
        D1T = D1 * T
        grad = D1T * z
        if m:
            dT = (unit * m / a) * w[-2]
            grad = grad + B * dT
        out.append(grad)
        if order == 1:
            return out
        D2T = ((2.0 * p * (p - 1) * self.coef / a ** 4) * s[-3]) * T    # 2 B''(u) T
        P = D2T * u + (m + 1) * D1T
        Q = D2T * (z * z)
        if m:
            Q = Q + D1 * (z * dT)
        if m >= 2:
            Q = Q + B * ((unit * m * (m - 1) / a ** 2) * w[-3])
        out.append((P, Q))
        return out

    def rescaled(self, factor: float) -> "BumpHarmonic":
        # H_factor(z) = factor^2 * H(z/factor); the term family is closed under it
        return BumpHarmonic(self.m, self.trig, self.coef * factor ** 2,
                            self.support * factor, self.power)

    def to_dict(self) -> dict:
        return {"m": self.m, "trig": self.trig, "coef": self.coef,
                "support": self.support, "power": self.power}

    @classmethod
    def from_dict(cls, d: dict) -> "BumpHarmonic":
        return cls(_whole(d["m"], "m"), d["trig"], float(d["coef"]),
                   float(d["support"]), _whole(d.get("power", 4), "power"))


def _whole(value, name: str) -> int:
    """value as an int, refusing one that is not a whole number."""
    x = float(value)
    if not x.is_integer():
        raise ValueError(f"{name} must be a whole number, not {value!r}")
    return int(x)


def _rising_powers(v, top: int, order: int) -> list:
    """[v^(top - order), ..., v^top]: one power, then products.  v^0 is the
    scalar 1 and a negative power 0, whose coefficient vanishes anyway."""
    out = []
    for e in range(top - order, top + 1):
        if e <= 0:
            out.append(float(e == 0))
        elif e > 1 and e > top - order:
            out.append(out[-1] * v)
        else:
            out.append(v ** e if e > 1 else v)
    return out


def _sum_jets(a, b):
    return tuple(map(_sum_jets, a, b)) if isinstance(a, tuple) else a + b


def _terms_jet(terms, z, order: int) -> list:
    """The jet of sum(terms) at z (see BumpHarmonic.jet)."""
    out = terms[0].jet(z, order)
    for t in terms[1:]:
        out = [_sum_jets(a, b) for a, b in zip(out, t.jet(z, order))]
    return out


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialTwist:
    """z -> z * exp(i * profile(|z|)); identity outside the profile support."""

    profile: RadialFunction

    def __post_init__(self):
        # past its support the twist rotates by the last value, which must be
        # a whole number of turns for the map to be the identity there
        end = float(self.profile.values[-1])
        if abs(end - 2.0 * math.pi * round(end / (2.0 * math.pi))) > 1e-12:
            raise ValueError(f"twist profile ends at {end!r}, not in 2 pi Z")

    @property
    def support(self) -> float:
        return float(self.profile.knots[-1])

    @cached_property
    def _calculus(self) -> tuple[PiecewisePoly, np.ndarray, float]:
        """sigma'(-r) = -r^2 (d/dr) rho(-r) / 2 on pieces built from the Hermite
        data at their upper knot, so exact there (the profile's own pieces,
        re-expanded, are not); sigma at those knots; CAL = -pi int r^2 sigma'."""
        f = self.profile
        rho = PiecewisePoly.from_hermite(-f.knots[::-1], [(f.values[::-1], -f.derivs[::-1])])
        r2 = rho.radius() * rho.radius()
        dsigma = rho.derivative() * (r2 * -0.5)
        whole = dsigma.integral_from_lo(np.arange(dsigma.lo.size), dsigma.hi)
        return (dsigma, np.concatenate([[0.0], -np.cumsum(whole[:-1])]),
                -math.pi * (dsigma * r2).integral())

    def action(self, z):
        """lam0-action sigma(|z|) = -int_|z|^support s^2 rho'(s) / 2 ds, exactly:
        each partial piece integrated from its upper end, so sigma(support) = 0."""
        dsigma, upper, _ = self._calculus
        knots = self.profile.knots
        r = np.clip(np.abs(np.asarray(z)), knots[0], knots[-1])
        j = knots.size - 2 - np.clip(np.searchsorted(knots, r, side="right") - 1, 0, knots.size - 2)
        return upper[j] - dsigma.integral_from_lo(j, -r)

    def calabi(self) -> float:
        """CAL = -(pi/2) int r^4 rho'(r) dr = -pi int r^2 sigma' dr, exactly."""
        return self._calculus[2]

    def evaluate(self, z):
        r = np.abs(z)
        return z * np.exp(1j * self.profile(r))

    def evaluate_with_differential(self, z):
        """(twist(z), its 2x2 Jacobians of shape (..., 2, 2)), in closed form."""
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        rho = self.profile(r)
        drho = self.profile.derivative(r)
        phase = np.exp(1j * rho)
        safe_r = np.where(r == 0.0, 1.0, r)
        x, y = np.real(z), np.imag(z)
        dx = phase * (1.0 + 1j * drho * x * z / safe_r)
        dy = phase * (1j + 1j * drho * y * z / safe_r)
        # at r = 0 the twist is the rotation by profile(0)
        dx = np.where(r == 0.0, phase * 1.0, dx)
        dy = np.where(r == 0.0, phase * 1j, dy)
        J = np.empty(np.shape(z) + (2, 2))
        J[..., 0, 0], J[..., 0, 1] = np.real(dx), np.real(dy)
        J[..., 1, 0], J[..., 1, 1] = np.imag(dx), np.imag(dy)
        return z * phase, J

    def rescaled(self, factor: float) -> "RadialTwist":
        return RadialTwist(self.profile.scaled(1.0, arg_scale=factor))

    def to_dict(self) -> dict:
        return {"kind": "radial_twist", "profile": self.profile.to_dict()}


@dataclass(frozen=True)
class HamiltonianStep:
    """Time-`time` flow of H = sum of bump-harmonic terms (x' = H_y, y' = -H_x)."""

    terms: tuple[BumpHarmonic, ...]
    time: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("need at least one term")
        if not math.isfinite(self.time):
            raise ValueError(f"time must be finite, not {self.time!r}")

    @property
    def support(self) -> float:
        return max(t.support for t in self.terms)

    def hamiltonian(self, z):
        return _terms_jet(self.terms, z, 0)[0]

    def _flow(self, z0: np.ndarray, with_jac: bool):
        """Integrate points with their variational 2x2 blocks, or with their action.

        Returns (phi(z0), D phi(z0)) when with_jac, else (phi(z0), sigma(z0)).
        ode_flow's float state holds z, viewed in place as complex, then
        either the columns v = d phi/dx, d phi/dy of D phi, also complex,
        or sigma.  With g = H_x + i H_y and the jet's Hessian parts (P, Q),
        z' = -i g, v' = -i (P v + Q conj(v)), and sigma' = H + lam0(X_H) =
        H - (x H_x + y H_y) / 2.
        """
        n = z0.size
        y0 = np.zeros(6 * n if with_jac else 3 * n)
        y0[:2 * n].view(complex)[:] = z0
        if with_jac:
            v0 = y0[2 * n:].view(complex).reshape(2, n)
            v0[0], v0[1] = 1.0, 1j

        def rhs(t, y):
            z = y[:2 * n].view(complex)
            jet = _terms_jet(self.terms, z, 2 if with_jac else 1)
            g = jet[1]
            out = np.empty_like(y)
            out[:2 * n].view(complex)[:] = -1j * g
            if with_jac:
                P, Q = jet[2]
                v = y[2 * n:].view(complex).reshape(2, n)
                out[2 * n:].view(complex).reshape(2, n)[:] = -1j * (P * v + Q * v.conj())
            else:
                out[2 * n:] = jet[0] - 0.5 * (z.real * g.real + z.imag * g.imag)
            return out

        y = ode_flow(rhs, y0, self.time).state
        z = y[:2 * n].view(complex)
        if not with_jac:
            return z, y[2 * n:]
        v = y[2 * n:].view(complex).reshape(2, n)
        J = np.empty((n, 2, 2))
        J[:, 0, :], J[:, 1, :] = v.real.T, v.imag.T
        return z, J

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        shape = z.shape
        out, _ = self._flow(z.ravel(), with_jac=False)
        return out.reshape(shape) if shape else complex(out[0])

    def differential(self, z):
        z = np.asarray(z, dtype=complex)
        shape = z.shape
        _, J = self._flow(z.ravel(), with_jac=True)
        return J.reshape(shape + (2, 2)) if shape else J[0]

    def evaluate_with_differential(self, z):
        z = np.asarray(z, dtype=complex)
        shape = z.shape
        w, J = self._flow(z.ravel(), with_jac=True)
        if shape:
            return w.reshape(shape), J.reshape(shape + (2, 2))
        return complex(w[0]), J[0]

    def evaluate_with_action(self, z):
        """(phi(z), sigma(z)) for lam0 from one point flow."""
        z = np.asarray(z, dtype=complex)
        w, sig = self._flow(z.ravel(), with_jac=False)
        return w.reshape(z.shape), sig.reshape(z.shape)

    def calabi(self) -> float:
        """CAL = 2 t int H: every m >= 1 harmonic integrates to zero over a circle,
        and an m = 0 term integrates to coef * pi a^2 / (power + 1)."""
        return 2.0 * self.time * sum(t.coef * math.pi * t.support ** 2 / (t.power + 1)
                                     for t in self.terms if t.m == 0)

    def rescaled(self, factor: float) -> "HamiltonianStep":
        return HamiltonianStep(tuple(t.rescaled(factor) for t in self.terms),
                               self.time)

    def to_dict(self) -> dict:
        return {"kind": "hamiltonian", "terms": [t.to_dict() for t in self.terms],
                "time": self.time}


def _primitive_from_dict(d: dict):
    if d["kind"] == "radial_twist":
        return RadialTwist(RadialFunction.from_dict(d["profile"]))
    if d["kind"] == "hamiltonian":
        return HamiltonianStep(tuple(BumpHarmonic.from_dict(t) for t in d["terms"]),
                               float(d.get("time", 1.0)))
    raise ValueError(f"unknown primitive kind {d['kind']!r}")


# ---------------------------------------------------------------------------
# DiskMap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiskMap:
    """Ordered composition of primitives on the disk of the given radius.

    The primitive list composes like written function composition:
    [p1, p2] is p1 after p2 (p2 acts first).
    """

    radius: float
    primitives: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, not {self.radius!r}")
        for p in self.primitives:
            if p.support > self.radius + 1e-12:
                raise ValueError("primitive support exceeds the map radius")

    @property
    def support(self) -> float:
        return max((p.support for p in self.primitives), default=0.0)

    @property
    def is_radial(self) -> bool:
        return all(isinstance(p, RadialTwist) for p in self.primitives)

    def combined_profile(self) -> RadialFunction:
        """Total twist profile (radial maps commute, so profiles just add)."""
        if not self.is_radial:
            raise ValueError("combined_profile needs a purely radial map")
        if not self.primitives:
            return RadialFunction(np.array([0.0, self.radius]), np.zeros(2), np.zeros(2))
        return sum((p.profile for p in self.primitives[1:]), self.primitives[0].profile)

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        out = z
        for p in reversed(self.primitives):
            out = p.evaluate(out)
        return out

    def __call__(self, z):
        return self.evaluate(z)

    def evaluate_with_differential(self, z):
        """(phi(z), D(phi)(z)) with one pass over the primitives."""
        z = np.asarray(z, dtype=complex)
        J = np.broadcast_to(np.eye(2), z.shape + (2, 2)).copy()
        cur = z
        for p in reversed(self.primitives):
            cur, Jp = p.evaluate_with_differential(cur)
            J = Jp @ J
        return cur, J

    def iterate_differential(self, z, k: int):
        """(orbit, D(phi^k)(z)) with orbit[..., j] = phi^j(z) for j = 0..k,
        the Jacobian chained along the orbit."""
        cur = np.asarray(z, dtype=complex)
        J = np.broadcast_to(np.eye(2), cur.shape + (2, 2)).copy()
        orbit = [cur]
        for _ in range(k):
            cur, Jstep = self.evaluate_with_differential(cur)
            J = Jstep @ J
            orbit.append(cur)
        return np.stack(orbit, axis=-1), J

    def to_dict(self) -> dict:
        return {"radius": self.radius,
                "primitives": [p.to_dict() for p in self.primitives]}

    @classmethod
    def from_dict(cls, d: dict) -> "DiskMap":
        return cls(float(d["radius"]),
                   tuple(_primitive_from_dict(p) for p in d["primitives"]))


def compose(phi: DiskMap, psi: DiskMap) -> DiskMap:
    """phi after psi on a common ambient radius."""
    if abs(phi.radius - psi.radius) > 1e-12:
        raise ValueError("maps must share the ambient radius")
    return DiskMap(phi.radius, phi.primitives + psi.primitives)


def rescale(phi: DiskMap, factor: float) -> DiskMap:
    """The conjugated map z -> factor * phi(z / factor)."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    return DiskMap(phi.radius * factor,
                   tuple(p.rescaled(factor) for p in phi.primitives))


# ---------------------------------------------------------------------------
# Primitive 1-forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimitiveOneForm:
    """lam0 = (x dy - y dx)/2, optionally plus du for a bump-harmonic u.

    Any such form has d(lam) = dx ^ dy, which is what the action
    construction needs.
    """

    u_terms: tuple[BumpHarmonic, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "u_terms", tuple(self.u_terms))

    def u(self, z):
        if not self.u_terms:
            return np.zeros(np.shape(z))
        return _terms_jet(self.u_terms, z, 0)[0]

    def eval(self, z, v):
        """Pair the form at the point z with the tangent vector v (complex)."""
        lam0 = 0.5 * (np.real(z) * np.imag(v) - np.imag(z) * np.real(v))
        if not self.u_terms:
            return lam0
        g = _terms_jet(self.u_terms, z, 1)[1]
        return lam0 + np.real(g) * np.real(v) + np.imag(g) * np.imag(v)


LAM0 = PrimitiveOneForm()


# ---------------------------------------------------------------------------
# Action fields
# ---------------------------------------------------------------------------

class ActionField:
    """The compactly supported solution sigma of d(sigma) = phi*lam - lam.

    Anchored to vanish on the identity annulus near |z| = radius.  sigma
    is the cocycle sum of the primitives' closed-form actions along the
    composition (see the module docstring), plus u(phi z) - u(z) for
    lam = lam0 + du; it runs no quadrature.  Twists move no points
    unless a later Hamiltonian step or the du term needs them, so a
    purely radial map is evaluated by radius alone.

    The ray and arc line integrals of phi*lam - lam (`_sigma_path`,
    `path_independence_check`) are the independent check of that sum.
    """

    def __init__(self, phi: DiskMap, lam: PrimitiveOneForm = LAM0):
        self.map = phi
        self.lam = lam
        self.anchor = "zero on the boundary identity annulus"

    def radial_profile(self, r):
        """sigma as a function of the radius (radial maps under lam0 only)."""
        if not self.map.is_radial or self.lam.u_terms:
            raise ValueError("map is not radial")
        r = np.asarray(r, dtype=float)
        out = sum((p.action(r) for p in self.map.primitives), np.zeros(r.shape))
        return float(out) if r.ndim == 0 else out

    # -- independent check: line integrals of phi*lam - lam ------------------

    _H_MAX = 0.05  # widest Gauss panel along any integration path

    def _pullback_minus(self, z, v):
        """(phi*lam - lam)(z; v); z and v may be matching complex arrays."""
        z = np.asarray(z, dtype=complex)
        v = np.asarray(v, dtype=complex)
        w, J = self.map.evaluate_with_differential(z)
        vv = np.stack([np.real(v), np.imag(v)], axis=-1)
        Jv = (J @ vv[..., None])[..., 0]
        return self.lam.eval(w, Jv[..., 0] + 1j * Jv[..., 1]) - self.lam.eval(z, v)

    def _line_integral(self, curve, edges, speed: float) -> float:
        """int (phi*lam - lam)(c(t); c'(t)) dt across the increasing or decreasing
        parameter edges, in 15-point Gauss panels at most _H_MAX long."""
        x15, w15 = gauss_rule(15)
        fine = [edges[0]]
        for a, b in zip(edges[:-1], edges[1:]):
            m = max(1, int(math.ceil(abs(b - a) * speed / self._H_MAX)))
            fine.extend(np.linspace(a, b, m + 1)[1:].tolist())
        fe = np.asarray(fine)
        mid, half = 0.5 * (fe[1:] + fe[:-1]), 0.5 * (fe[1:] - fe[:-1])
        t = (mid[:, None] + half[:, None] * x15[None, :]).ravel()
        wq = (half[:, None] * w15[None, :]).ravel()  # signed via half
        p, v = curve(t)
        return float(np.sum(wq * self._pullback_minus(p, v)))

    def _sigma_path(self, z: complex) -> float:
        """sigma(z) = -int_|z|^start (phi*lam - lam)(s e; e) ds along the ray
        through z, from the outermost support radius of the map and the form."""
        z = complex(z)
        r = abs(z)
        e = z / r if r > 0 else 1.0 + 0.0j
        start = max([self.map.support, r] + [t.support for t in self.lam.u_terms])
        start = min(start, self.map.radius)
        if r >= start:
            return 0.0
        breaks = [t.support for t in self.lam.u_terms]
        for p in self.map.primitives:
            breaks += (p.profile.knots.tolist() if isinstance(p, RadialTwist)
                       else [t.support for t in p.terms])
        edges = np.unique([r, start] + [b for b in breaks if r < b < start])[::-1]
        return self._line_integral(lambda s: (s * e, np.full(s.shape, e)), edges, 1.0)

    # -- public ----------------------------------------------------------

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        zz = np.atleast_1d(z).ravel()
        chain = self.map.primitives[::-1]  # in the order they act
        # a twist keeps |z| and its action reads only |z|, so points move
        # through the chain only as far as a Hamiltonian step or du reads them
        moved = len(chain) if self.lam.u_terms else max(
            (i for i, p in enumerate(chain) if isinstance(p, HamiltonianStep)), default=0)
        cur = zz
        out = np.zeros(zz.shape)
        for i, p in enumerate(chain):
            if isinstance(p, HamiltonianStep):
                cur, sig = p.evaluate_with_action(cur)
            else:
                sig = p.action(cur)
                if i < moved:
                    cur = p.evaluate(cur)
            out = out + sig
        if self.lam.u_terms:
            out = out + self.lam.u(cur) - self.lam.u(zz)
        out = out.reshape(np.shape(z))
        return float(out[()]) if scalar else out

    def path_independence_check(self, z: complex) -> float:
        """|sigma(z) - (ray to |z| along the positive axis + arc to z)|.

        The ray and arc integrate phi*lam - lam directly, so they share no
        code with the closed-form sum behind sigma(z).
        """
        direct = float(self(z))
        r = abs(z)
        if r == 0.0:
            return 0.0
        theta = math.atan2(z.imag, z.real)
        arc = self._line_integral(lambda t: (r * np.exp(1j * t), 1j * r * np.exp(1j * t)),
                                  np.array([0.0, theta]), r)
        return abs(direct - (self._sigma_path(complex(r)) + arc))


def action(phi: DiskMap, lam: PrimitiveOneForm = LAM0) -> ActionField:
    return ActionField(phi, lam)


def calabi(phi: DiskMap, lam: PrimitiveOneForm = LAM0,
           spec: QuadratureSpec | None = None) -> float:
    """CAL(phi) = integral of the action over the disk, as a closed form.

    CAL is a homomorphism, so it is the sum of the primitives' exact
    invariants (`RadialTwist.calabi`, `HamiltonianStep.calabi`); no
    quadrature runs.  CAL does not depend on the primitive 1-form, so
    `lam` and `spec` are accepted for compatibility and unused.
    """
    return float(sum(p.calabi() for p in phi.primitives))


# ---------------------------------------------------------------------------
# Periodic points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicOrbit:
    """One periodic family: its first point, minimal period k, the lam0
    action summed along the orbit of that point, the orbit, the closure
    residual |phi^k(z) - z|, and the radius range [r_lo, r_hi] it covers
    (a band of a radial map, or the identity collar [r_c(1), R] of another
    map; r_lo = r_hi = |point| for a point or circle)."""

    point: complex
    period: int
    action_sum: float
    orbit: tuple[complex, ...]
    residual: float
    r_lo: float
    r_hi: float


def _radial_families(phi: DiskMap, k_max: int) -> list[PeriodicOrbit]:
    """The periodic families of a radial map of period <= k_max, in closed form.

    The period-k families are where k rho - 2 pi p vanishes for a p
    coprime to k.  Every (k, p, piece) whose 2 pi p lies within one turn
    of the piece's Bernstein range of k rho is posed to
    `numerics.resonances`: its bands are the bands of the map, and its
    other roots the circles.  Past the support the flat tail of rho is
    set to its exact turn 2 pi round(end / 2 pi), so the identity there
    is a band for k = 1.
    """
    R = phi.radius
    prof = phi.combined_profile()
    rho = PiecewisePoly.from_radial(prof, upto=R)
    two_pi = 2.0 * math.pi
    if rho.hi[-1] > R:
        rho = rho.restrict(0.0, R)
    elif prof.knots[-1] < R:   # the flat tail, where the map is the identity: a whole turn
        rho.coef[-1, 0], rho.err[-1, 0] = two_pi * round(rho.coef[-1, 0] / two_pi), 0.0
    B = rho.bernstein()[0]
    ks = np.arange(1, k_max + 1)[:, None]
    # every p within a turn of the piece's range of k rho, far wider than
    # the 1e-12 tolerance within which a row can vanish or change sign
    p_lo = np.floor(ks * B.min(axis=1) / two_pi).astype(int)
    p_hi = np.ceil(ks * B.max(axis=1) / two_pi).astype(int)
    span = p_hi - p_lo
    k, i, s = np.nonzero(span[..., None] >= np.arange(span.max() + 1))
    k, p = k + 1, p_lo[k, i] + s
    keep = np.gcd(p, k) == 1
    k, i, p = k[keep], i[keep], p[keep]
    pairs, label = np.unique(np.column_stack([k, p]), axis=0, return_inverse=True)
    (band, band_lo, band_hi), (r, g) = resonances(rho, rho.constant(two_pi),
                                                  [(label.ravel(), i, k, p)])
    circle = r > 0.0   # the origin is a fixed point, reported on its own
    fam_k = np.concatenate([pairs[band, 0], pairs[g[circle], 0]])
    fam_lo = np.concatenate([band_lo, r[circle]])
    fam_hi = np.concatenate([band_hi, r[circle]])
    if not np.any((pairs[band, 0] == 1) & (band_lo == 0.0)):
        fam_k, fam_lo, fam_hi = (np.append(fam_k, 1), np.append(fam_lo, 0.0),
                                 np.append(fam_hi, 0.0))
    order = np.lexsort((fam_hi, fam_lo, fam_k))
    fam_k, fam_lo, fam_hi = fam_k[order], fam_lo[order], fam_hi[order]
    # a family's point sits at its inner radius, except that the centre of
    # a band from the core is a fixed point
    at = np.where((fam_lo == 0.0) & (fam_k > 1), fam_hi, fam_lo)
    turn = prof(at)
    acts = fam_k * action(phi).radial_profile(at)
    residual = at * np.abs(np.exp(1j * fam_k * turn) - 1.0)
    return [PeriodicOrbit(complex(a), int(kk), float(s),
                          tuple((a * np.exp(1j * np.arange(kk) * w)).tolist()),
                          float(res), float(lo), float(hi))
            for a, kk, s, w, res, lo, hi in zip(at, fam_k, acts, turn, residual,
                                                  fam_lo, fam_hi)]


_ACCEPT_REL = 1e-9   # |phi^k(z) - z| below this times max(1, R) accepts a seed
_LOCATE = 1e-6       # how closely a Newton point is located: settle step, orbit match
_CRAWL = 0.5         # step ratios in [this, 1) twice running: a seed converging linearly


def _step_drift(step: HamiltonianStep, r: float) -> float:
    """A bound on |time| |X_H(w)| over |w| >= r, so on |phi(w) - w| for
    every w whose flow line stays in |w| >= r.

    Per term, |grad(B T)| <= |grad B| |T| + B |grad T| with |T| <=
    (|w|/a)^m and |grad T| = m |w|^(m-1) / a^m, so on |w| <= a it is at
    most |coef| s^(p-1) (2 p + m s) / a, s = 1 - |w|^2/a^2, which falls
    as |w| grows (and is 0 past the support).
    """
    total = 0.0
    for t in step.terms:
        s = max(1.0 - (r / t.support) ** 2, 0.0)
        total += abs(t.coef) * s ** (t.power - 1) * (2 * t.power + t.m * s) / t.support
    return abs(step.time) * total


def _twist_drift(twist: RadialTwist, radius: float):
    """r -> a bound on |twist(w) - w| over r <= |w| <= radius.

    |w exp(i rho) - w| <= |w| |rho - 2 pi n|, n the profile's end turn,
    and |rho - 2 pi n| over [r, S] is bounded by the Bernstein
    coefficients of its pieces (the one holding r cut to [r, hi]) plus
    their error bounds; past S it is |rho(S) - 2 pi n|, the last
    coefficient.
    """
    end = float(twist.profile.values[-1])
    dev = PiecewisePoly.from_radial(twist.profile) + (-2.0 * math.pi * round(end / (2.0 * math.pi)))

    B, E = dev.bernstein()
    piece = np.max(np.abs(B) + E, axis=1)
    # tail[i]: the bound over pieces i and later; tail[-1] over [S, radius]
    tail = np.append(np.maximum.accumulate(piece[::-1])[::-1], abs(B[-1, -1]) + E[-1, -1])

    def drift(r: float) -> float:
        i = int(np.searchsorted(dev.hi, r, side="right"))
        if i == dev.hi.size:
            return radius * float(tail[-1])
        Bi, Ei = dev.restrict(r, dev.hi[i]).bernstein()
        return radius * max(float(tail[i + 1]), float(np.max(np.abs(Bi) + Ei)))
    return drift


def _collar_radii(phi: DiskMap, k_max: int, tol: float) -> list[float]:
    """r_c(k) for k = 1..k_max: the least r (to within tol / 1000) with
    k D(r - tol) <= tol / 2, or inf where there is none, D being the sum
    of the primitives' displacement bounds over |w| >= r.

    On |z| >= r_c(k), then, |phi^k(z) - z| <= tol / 2 < tol: as long as
    a point has moved by less than tol in all, it lies in |w| >= r_c -
    tol, where each primitive (a step along its whole flow line) moves
    it by at most D(r_c - tol), so k applications of phi move it by at
    most tol / 2 and it never leaves.  D is nonincreasing in r, so r_c(k)
    is found by bisection, and it is nondecreasing in k.
    """
    R = phi.radius
    drifts = [_twist_drift(p, R) if isinstance(p, RadialTwist) else partial(_step_drift, p)
              for p in phi.primitives]

    def excess(r: float, k: int) -> float:
        rr = max(r - tol, 0.0)
        return k * sum(d(rr) for d in drifts) - 0.5 * tol

    out, lo = [], 0.0
    for k in range(1, k_max + 1):
        if excess(R, k) > 0.0:
            out.extend([math.inf] * (k_max + 1 - k))
            break
        if excess(0.0, k) <= 0.0:
            out.append(0.0)
            continue
        hi = R   # excess(lo, k) > 0 >= excess(hi, k)
        while hi - lo > 1e-3 * tol:
            mid = 0.5 * (lo + hi)
            if excess(mid, k) <= 0.0:
                hi = mid
            else:
                lo = mid
        out.append(hi)
    return out


class PeriodicSearch(list):
    """The records of periodic_points (or orbit_periods' (record, T)
    pairs), plus how they were searched: `search`, the entries that
    reports and artifacts record, and `note`, a line on its completeness.

    `search` has k_max and method; a Newton search adds its seed grid
    n_r x n_theta, its acceptance tolerance accept_tol and, per period
    k, the collar radius r_c(k) past which no seed is searched (None:
    no collar) and the numbers of seeds dropped for stepping into it
    and for crawling toward it.
    """

    def __init__(self, records, search: dict, note: str):
        super().__init__(records)
        self.search = search
        self.note = note


def periodic_points(phi: DiskMap, k_max: int, n_r: int = 24,
                    n_theta: int = 16) -> PeriodicSearch:
    """The periodic points of minimal period <= k_max: one record per
    family for a radial map, one per seed that lands on a family for a
    Newton search.  The result is a `PeriodicSearch`, whose `search` and
    `note` describe the search below as it ran.

    Radial maps z -> z exp(i rho(|z|)) are solved in closed form, with no
    map evaluation: the period-k points are the origin (k = 1), the
    circles where k rho(r) = 2 pi p with gcd(p, k) = 1, and the bands
    where k rho = 2 pi p identically (see `_radial_families`).  A circle
    or band is one record, at its inner radius, with r_lo and r_hi; its
    action sum is k sigma(r), sigma being constant on it, and its
    residual is r |exp(i k rho(r)) - 1|.  The search is exact for
    periods <= k_max; the grid arguments are unused.
    Records come for k ascending, then r ascending.

    Every other map runs a polar-grid seeded Newton search.  With scale
    = max(1, R) the acceptance tolerance is tol = 1e-9 scale, and for
    each k the identity collar |z| >= r_c(k) (`_collar_radii`) is where
    |phi^k(z) - z| < tol provably holds, so the rule below could not
    tell its points from periodic ones.  The seeds are the origin, then
    n_r radii up to R (1 - 1e-9) times n_theta angles, radius-major;
    those in the collar are not searched.  For each k, Newton on
    phi^k - id runs on the other seeds at once with the chained
    variational Jacobian and a pseudo-inverse step (so circle continua
    of periodic points are handled), for at most 40 sweeps.  A seed
    stops and keeps its last iterate once |phi^k(z) - z| < 1e-12 scale
    and its step is shorter than 1e-6 (near a flat edge the residual is
    that small long before the point is found), once its step is not
    finite, or when the step would leave |z| <= R (1 + 1e-9); it stops
    and is dropped when the step would enter the collar, or when its last
    two step ratios |step_n| / |step_(n-1)| lie in [1/2, 1) and the
    geometric limit z + step q / (1 - q) of its steps, q the last ratio,
    lies in the collar.  That is Newton's linear rate (mu - 1)/mu at a
    zero of multiplicity mu >= 2, which a flat support edge is (phi - id
    vanishes there to order p - 1 for a bump power p): such a seed would
    crawl on until a step entered the collar, each sweep a flow for all
    seeds.  A seed converging quadratically has ratios far below 1/2.

    Each seed's orbit z, phi(z), ..., phi^k(z) is the one its last sweep
    computed (only seeds still moving after 40 sweeps are flowed again),
    and decides everything else.  One rule accepts a seed:
    |phi^k(z) - z| < tol.  It is not minimal when
    |phi^j(z) - z| < 1e-8 scale for a proper divisor j of k.  A
    candidate repeats a kept orbit when each of its points lies within
    1e-6 of a point of that orbit.  Candidates are taken in seed
    order, so the first seed of an orbit wins, and the results come for
    k ascending, in seed order within each k; a continuum is reported
    once per seed that lands on it, each record with r_lo = r_hi =
    |point|.  Action sums use lam0.  The collar is reported once, after
    the other fixed points, as a period-1 record at |z| = support (where
    phi is the identity and sigma = 0, so with residual and action sum
    0) with r_lo = r_c(1), r_hi = R.  The search entries count, per k,
    the seeds dropped at the collar (dropped_at_collar) and by their
    crawl (dropped_crawling).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if phi.is_radial:
        return PeriodicSearch(_radial_families(phi, k_max),
                              {"k_max": k_max, "method": "closed-form families"},
                              f"closed-form families, exact for periods <= {k_max}")
    R = phi.radius
    scale = max(1.0, R)
    tol = _ACCEPT_REL * scale
    collar = _collar_radii(phi, k_max, tol)
    sig = action(phi)
    radii = np.linspace(R / n_r, R * (1.0 - 1e-9), n_r)
    thetas = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    seeds = np.concatenate([[0.0 + 0.0j], (radii[:, None] * np.exp(1j * thetas)).ravel()])
    found: list[PeriodicOrbit] = []
    at_collar, crawling = [], []
    for k, rc in enumerate(collar, start=1):
        z = seeds.copy()
        orbit = np.empty((z.size, k + 1), dtype=complex)  # orbit[i, j] = phi^j(z[i])
        cand = np.abs(z) < rc
        live = np.flatnonzero(cand)
        last = np.full(z.size, np.inf)   # each seed's last step length
        ratio = np.zeros(z.size)         # and the ratio of its last two
        at_collar.append(0)
        crawling.append(0)
        for _ in range(40):
            if live.size == 0:
                break
            zl = z[live]
            its, J = phi.iterate_differential(zl, k)
            F = its[:, k] - zl
            step = np.linalg.pinv(J - np.eye(2), rtol=None) @ np.stack(
                [F.real, F.imag], axis=-1)[..., None]
            d = -(step[:, 0, 0] + 1j * step[:, 1, 0])
            nz = zl + d
            size = np.abs(d)
            # settled: a small residual and a small correction; a seed
            # crawling toward a flat edge has the first without the second
            moves = (((np.abs(F) >= 1e-12 * scale) | (size >= _LOCATE))
                     & np.isfinite(nz) & (np.abs(nz) <= R * (1.0 + 1e-9)))
            into = moves & (np.abs(nz) >= rc)
            # crawling: two step ratios in [_CRAWL, 1), steps' limit in the collar
            q = np.divide(size, last[live], out=np.zeros_like(size), where=last[live] > 0.0)
            crawl = (moves & ~into & (q >= _CRAWL) & (q < 1.0)
                     & (ratio[live] >= _CRAWL) & (ratio[live] < 1.0))
            i = np.flatnonzero(crawl)
            crawl[i] = np.abs(nz[i] + d[i] * (q[i] / (1.0 - q[i]))) >= rc
            last[live], ratio[live] = size, q
            orbit[live[~moves]] = its[~moves]
            gone = into | crawl
            cand[live[gone]] = False
            at_collar[-1] += int(np.count_nonzero(into))
            crawling[-1] += int(np.count_nonzero(crawl))
            moves &= ~gone
            live = live[moves]
            z[live] = nz[moves]
        if live.size:   # still moving after 40 sweeps: flow the last iterate
            its = [z[live]]
            for _ in range(k):
                its.append(phi.evaluate(its[-1]))
            orbit[live] = np.stack(its, axis=1)
        idx = np.flatnonzero(cand)
        gap = np.abs(orbit[idx] - z[idx, None])
        ok = gap[:, k] < tol
        for j in range(1, k):
            if k % j == 0:
                ok &= gap[:, j] >= 1e-8 * scale
        pts = orbit[idx, :k]
        kept: list[int] = []
        for i in np.flatnonzero(ok):
            # |candidate point - kept point| over (kept orbit, point, point)
            d = np.abs(pts[i][None, :, None] - pts[kept][:, None, :])
            if not np.any(np.all(d.min(axis=2) <= _LOCATE, axis=1)):
                kept.append(i)
        acts = np.sum(sig(pts[kept]), axis=1)
        found.extend(PeriodicOrbit(complex(pts[i, 0]), k, float(a), tuple(pts[i].tolist()),
                                   float(gap[i, k]), float(abs(pts[i, 0])), float(abs(pts[i, 0])))
                     for i, a in zip(kept, acts))
        if k == 1 and math.isfinite(rc):
            edge = complex(phi.support)
            found.append(PeriodicOrbit(edge, 1, 0.0, (edge,), 0.0, rc, R))
    r_c = [r if math.isfinite(r) else None for r in collar]
    where = (f"identity collar from r = {r_c[0]:.9g}, seeds stepping into it or crawling "
             f"toward it (two step ratios in [{_CRAWL:g}, 1)) dropped" if r_c[0] is not None
             else "no identity collar")
    return PeriodicSearch(
        found, {"k_max": k_max, "method": "newton grid", "n_r": n_r, "n_theta": n_theta,
                "accept_tol": tol, "collar_radius": r_c,
                "dropped_at_collar": at_collar, "dropped_crawling": crawling},
        f"newton grid, up to search completeness "
        f"(k_max = {k_max}, grid = {n_r}x{n_theta}, {where})")
