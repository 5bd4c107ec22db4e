"""Rotationally symmetric contact forms on a solid torus.

A form alpha = c(r) dphi + d(r) dpsi on D^2(R) x (R/P), with phi the
disk angle (period 2*pi) and psi the core angle (period P), is fixed by
two even radial coefficients.  Everything downstream of the contact
condition W = c'd - cd' > 0 is closed-form: the Reeb field rotates both
angles at r-dependent rates, the return systems of the two natural
sections have explicit time and shift, closed orbits sit on resonant
tori found as the closed-form roots of a quadratic per knot interval,
and the volume is 2*pi*P times the exact integral of W (cross-checked
by integrating the return time over a section).  The sign conditions
(W > 0, transversality) are decided by the piecewise-polynomial
kernel, not sampled.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import (
    OdeSpec,
    PiecewisePoly,
    RadialFunction,
    gauss_piecewise,
    ode_flow,
)

DISK_PERIOD = 2.0 * math.pi


class ContactError(ValueError):
    """The contact condition W = c'd - cd' > 0 fails somewhere."""


class SectionError(ValueError):
    """A candidate section is not transverse to the flow."""


# ---------------------------------------------------------------------------
# The form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotForm:
    """alpha = c(r) dphi + d(r) dpsi on the solid torus of disk radius R.

    c and d already include any overall normalization; kappa records the
    constant that was multiplied in, for reporting only.  Smoothness on
    the core axis forces c(0) = c'(0) = 0 with c''(0) > 0, d even.
    """

    radius: float
    core_period: float
    c: RadialFunction
    d: RadialFunction
    kappa: float = 1.0

    def __post_init__(self):
        if not (self.radius > 0.0 and self.core_period > 0.0):
            raise ValueError("radius and core_period must be positive")
        if self.c.parity != "even" or self.d.parity != "even":
            raise ValueError("coefficients must be even radial functions")
        if abs(float(self.c(0.0))) > 1e-12:
            raise ValueError("smoothness at the core requires c(0) = 0")
        if float(self.c.second_derivative(0.0)) <= 0.0:
            raise ValueError("smoothness at the core requires c''(0) > 0")
        if abs(float(self.d(0.0))) < 1e-12:
            raise ValueError("d(0) must be nonzero")

    def wronskian(self, r):
        """W(r) = c'(r) d(r) - c(r) d'(r); W/r -> c''(0) d(0) at the core."""
        r = np.asarray(r, dtype=float)
        return self.c.derivative(r) * self.d(r) - self.c(r) * self.d.derivative(r)

    def to_dict(self) -> dict:
        return {"R": self.radius, "core_period": self.core_period,
                "kappa": self.kappa,
                "c": self.c.to_dict(), "d": self.d.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "RotForm":
        return cls(float(data["R"]), float(data["core_period"]),
                   RadialFunction.from_dict(data["c"]),
                   RadialFunction.from_dict(data["d"]),
                   float(data.get("kappa", 1.0)))


def _coefficients(form: RotForm) -> tuple[PiecewisePoly, PiecewisePoly]:
    """c and d as piecewise polynomials on the same pieces of [0, R]."""
    R = form.radius
    c, d = (PiecewisePoly.from_radial(fn, upto=R).restrict(0.0, R) for fn in (form.c, form.d))
    knots = np.union1d(c.knots, d.knots)
    return c.refine(knots), d.refine(knots)


def _contact(form: RotForm) -> tuple[PiecewisePoly, PiecewisePoly, PiecewisePoly]:
    """c, d and W, after deciding W > 0 on (0, R] (as W/r > 0 on [0, R],
    the parity zero at the core factored out); raises ContactError where
    it fails or rounding leaves it undecided."""
    c, d = _coefficients(form)
    W = c.derivative() * d - c * d.derivative()
    r_bad = W.positive()
    if r_bad is not None:
        raise ContactError(f"contact condition fails at r = {r_bad:.6g} "
                           f"(min W/r = {W.extreme(W.radius())[0]:.3e})")
    return c, d, W


def contact_check(form: RotForm) -> float:
    """Minimum of W(r)/r on [0, R], with its limit c''(0) d(0) at r = 0.

    W > 0 on (0, R] is decided by the piecewise-polynomial kernel;
    raises ContactError where it fails or rounding leaves it undecided.
    """
    W = _contact(form)[2]
    return W.extreme(W.radius())[0]


# ---------------------------------------------------------------------------
# Reeb field and flow
# ---------------------------------------------------------------------------

def angular_rates(form: RotForm, r):
    """(dphi/dt, dpsi/dt) along the Reeb flow: (-d', c')/W, limits at 0."""
    r = np.asarray(r, dtype=float)
    cp = form.c.derivative(r)
    dp = form.d.derivative(r)
    W = cp * form.d(r) - form.c(r) * dp
    c2 = float(form.c.second_derivative(0.0))
    d2 = float(form.d.second_derivative(0.0))
    d0 = float(form.d(0.0))
    at0 = r == 0.0
    Wsafe = np.where(at0, 1.0, W)
    rate_disk = np.where(at0, -d2 / (c2 * d0), -dp / Wsafe)
    rate_core = np.where(at0, 1.0 / d0, cp / Wsafe)
    if r.ndim == 0:
        return float(rate_disk), float(rate_core)
    return rate_disk, rate_core


def reeb_field(form: RotForm, point) -> np.ndarray:
    """Reeb vector at (r, phi, psi), components in (d/dr, d/dphi, d/dpsi)."""
    r = float(np.asarray(point, dtype=float).reshape(3)[0])
    if r > 0.0:
        W = float(form.wronskian(r))
        if W <= 0.0:
            raise ContactError(f"W({r:.6g}) = {W:.3e} <= 0")
    else:
        if float(form.c.second_derivative(0.0) * form.d(0.0)) <= 0.0:
            raise ContactError("contact condition fails on the core")
    rate_disk, rate_core = angular_rates(form, r)
    return np.array([0.0, rate_disk, rate_core])


def alpha_pairing(form: RotForm, r: float, v) -> float:
    """alpha(v) for a tangent vector v = (v_r, v_phi, v_psi)."""
    v = np.asarray(v, dtype=float)
    return float(form.c(r) * v[1] + form.d(r) * v[2])


def dalpha_contraction(form: RotForm, r: float, v) -> np.ndarray:
    """Components of i_v dalpha in the coframe (dr, dphi, dpsi)."""
    v = np.asarray(v, dtype=float)
    cp = float(form.c.derivative(r))
    dp = float(form.d.derivative(r))
    return np.array([-(cp * v[1] + dp * v[2]), cp * v[0], dp * v[0]])


def exact_flow(form: RotForm, start, time: float) -> np.ndarray:
    """Reeb flow in closed form: r fixed, both angles advance linearly."""
    r, phi, psi = np.asarray(start, dtype=float).reshape(3)
    rate_disk, rate_core = angular_rates(form, r)
    return np.array([r, phi + rate_disk * time, psi + rate_core * time])


def ode_check(form: RotForm, start, time: float,
              spec: OdeSpec | None = None, n_checks: int = 8) -> float:
    """Integrate the Reeb field numerically and compare with exact_flow.

    The ODE runs in Cartesian disk coordinates (x, y, psi), where the
    radius is not privileged, so conservation of r is genuinely tested.
    Returns the sup over n_checks checkpoints of the coordinate error.
    """
    spec = spec or OdeSpec(tol=1e-10)
    r0, phi0, psi0 = np.asarray(start, dtype=float).reshape(3)

    def field(t, y):
        x, yy, psi = y
        rad = math.hypot(x, yy)
        rate_disk, rate_core = angular_rates(form, rad)
        return np.array([-yy * rate_disk, x * rate_disk, rate_core])

    state = np.array([r0 * math.cos(phi0), r0 * math.sin(phi0), psi0])
    worst = 0.0
    times = np.linspace(0.0, time, n_checks + 1)
    for t_prev, t_next in zip(times[:-1], times[1:]):
        state = ode_flow(field, state, t_next - t_prev, spec).state
        r, phi, psi = exact_flow(form, start, t_next)
        target = np.array([r * math.cos(phi), r * math.sin(phi), psi])
        worst = max(worst, float(np.max(np.abs(state - target))))
    return worst


# ---------------------------------------------------------------------------
# Return systems
# ---------------------------------------------------------------------------

_SECTIONS = {"disk-angle": "disk-angle", "disk": "disk-angle",
             "core-angle": "core-angle", "core": "core-angle"}


@dataclass(frozen=True)
class ReturnSystem:
    """First-return data of a rotational form on one of the two sections.

    disk-angle section {phi = const}: an annulus hit each time the disk
    angle advances one turn; needs d' != 0 off the core.  core-angle
    section {psi = const}: a disk hit each time the core angle advances
    one period; needs c' > 0 off the core and contains r = 0 as the
    fixed point of the return map.
    """

    form: RotForm
    section: str
    fiber: float
    r_min: float
    r_max: float

    def tau(self, r):
        """First return time at radius r (limit value at r = 0)."""
        r = np.asarray(r, dtype=float)
        form = self.form
        W = form.wronskian(r)
        c2 = float(form.c.second_derivative(0.0))
        d2 = float(form.d.second_derivative(0.0))
        d0 = float(form.d(0.0))
        at0 = r == 0.0
        if self.section == "core-angle":
            den = np.where(at0, 1.0, form.c.derivative(r))
            out = np.where(at0, self.fiber * d0, self.fiber * W / den)
        else:
            lim = self.fiber * c2 * d0 / abs(d2) if d2 != 0.0 else math.inf
            den = np.where(at0, 1.0, np.abs(form.d.derivative(r)))
            out = np.where(at0, lim, self.fiber * W / den)
        return float(out) if r.ndim == 0 else out

    def shift(self, r):
        """Advance of the complementary angle over one return."""
        r = np.asarray(r, dtype=float)
        form = self.form
        c2 = float(form.c.second_derivative(0.0))
        d2 = float(form.d.second_derivative(0.0))
        cp = form.c.derivative(r)
        dp = form.d.derivative(r)
        at0 = r == 0.0
        if self.section == "core-angle":
            den = np.where(at0, 1.0, cp)
            out = np.where(at0, -self.fiber * d2 / c2, -self.fiber * dp / den)
        else:
            lim = DISK_PERIOD * c2 / abs(d2) if d2 != 0.0 else math.inf
            den = np.where(at0, 1.0, np.abs(dp))
            out = np.where(at0, lim, DISK_PERIOD * cp / den)
        return float(out) if r.ndim == 0 else out

    def rotation_ratio(self, r):
        """shift / fiber of the complementary angle: the resonance number."""
        other = DISK_PERIOD if self.section == "core-angle" else self.form.core_period
        return self.shift(r) / other


def return_system(form: RotForm, section: str) -> ReturnSystem:
    """Return data on a section, after deciding transversality on (0, R]."""
    try:
        sec = _SECTIONS[section]
    except KeyError:
        raise ValueError(f"unknown section {section!r}; "
                         "use 'disk-angle' or 'core-angle'") from None
    c, d = _coefficients(form)
    if sec == "core-angle":
        r_bad = c.derivative().positive()
        if r_bad is not None:
            raise SectionError("core-angle section loses transversality: "
                               f"c'({r_bad:.6g}) <= 0")
        return ReturnSystem(form, sec, form.core_period, 0.0, form.radius)
    sign = 1.0 if form.d.derivative(form.radius) > 0.0 else -1.0
    r_bad = (d.derivative() * sign).positive()
    if r_bad is not None:
        raise SectionError("disk-angle section loses transversality: "
                           f"d'({r_bad:.6g}) = 0 or changes sign")
    return ReturnSystem(form, sec, DISK_PERIOD, 0.0, form.radius)


# ---------------------------------------------------------------------------
# Closed orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitRecord:
    """One closed-orbit family: the core, or a resonant torus.

    Isolated tori have r_lo = r_hi = r; a tangential resonance that
    holds on an interval is reported once with the interval bounds and
    r placed at the smallest period found on it.
    """

    kind: str
    r: float
    p: int
    q: int
    period: float
    r_lo: float
    r_hi: float
    residual: float

    def is_band(self) -> bool:
        return self.r_hi > self.r_lo


def _closure_residual(form: RotForm, r: float, period: float) -> tuple[int, int, float]:
    """Flow for one period and measure closure of both angles."""
    _, phi, psi = exact_flow(form, (r, 0.0, 0.0), period)
    p = int(round(phi / DISK_PERIOD))
    q = int(round(psi / form.core_period))
    res = max(abs(phi - p * DISK_PERIOD), abs(psi - q * form.core_period))
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q, res


def _torus_period(form: RotForm, r: float, p: int, q: int) -> float:
    """Minimal period at a (p, q)-resonant radius."""
    W = float(form.wronskian(r))
    if q != 0:
        return q * form.core_period * W / abs(float(form.c.derivative(r)))
    return abs(p) * DISK_PERIOD * W / abs(float(form.d.derivative(r)))


def _record_torus(form: RotForm, r: float, p: int, q: int, t_max: float,
                  r_lo: float | None = None, r_hi: float | None = None,
                  tol: float = 1e-8) -> tuple[OrbitRecord | None, bool]:
    """(record, dropped): no record beyond t_max, nor when the exact flow
    fails to close to tol, which also sets dropped."""
    period = _torus_period(form, r, p, q)
    if not (0.0 < period <= t_max):
        return None, False
    p_rec, q_rec, res = _closure_residual(form, r, period)
    if res > tol * max(1.0, period):
        warnings.warn(f"orbit candidate at r = {r:.6g} failed closure "
                      f"re-verification (residual {res:.2e})")
        return None, True
    return OrbitRecord("resonant-torus", r, p_rec, q_rec, period,
                       r if r_lo is None else r_lo,
                       r if r_hi is None else r_hi, res), False


def _coprime_pairs(p_max: int, q_max: int):
    """(p, q) in canonical form: q >= 1 with gcd(|p|, q) = 1, plus (1, 0)."""
    yield 1, 0
    for q in range(1, q_max + 1):
        for p in range(-p_max, p_max + 1):
            if math.gcd(abs(p), q) == 1:
                yield p, q


_P_CLAMP = 10000


class OrbitSearch(list):
    """The records of orbit_enumerate, sorted by period, plus the bounds of
    the search: q_cap (the most core turns that fit below t_max), whether
    the disk-turn bound was clamped, and how many candidates failed
    re-verification."""

    def __init__(self, records, q_cap: int, clamped: bool, dropped: int):
        super().__init__(records)
        self.q_cap = q_cap
        self.clamped = clamped
        self.dropped = dropped


def orbit_enumerate(form: RotForm, t_max: float, q_max: int) -> OrbitSearch:
    """All closed-orbit families with period <= t_max and core turns <= q_max.

    A radius is resonant for coprime (p, q) when q*(-d')/(2*pi) equals
    p*c'/P there (the rate-ratio condition cleared of its denominator W,
    so it has no poles).  That function is a quadratic on each knot
    interval: its roots are found in closed form, a root on a shared
    knot reported once, and intervals on which it vanishes identically
    (to 1e-12 of its scale) merge into bands.  The turn bounds come from
    the exact suprema of |d'|/W and |c'|/W.  Every record is re-verified
    by closing the exact flow to 1e-8 in both angles.
    """
    if q_max < 0:
        raise ValueError("q_max must be >= 0")
    c, d, W = _contact(form)
    records: list[OrbitRecord] = []
    dropped = 0

    core_T = form.core_period * float(form.d(0.0))
    if core_T <= t_max:
        _, _, res = _closure_residual(form, 0.0, core_T)
        records.append(OrbitRecord("core", 0.0, 0, 1, core_T, 0.0, 0.0, res))

    cp, dp = c.derivative(), d.derivative()
    # period formulas bound how many angle turns fit below t_max
    sup_d, sup_c = (max(rate.extreme(W, largest=True)[0], (-rate).extreme(W, largest=True)[0])
                    for rate in (dp, cp))
    p_max = int(math.ceil(t_max * sup_d / DISK_PERIOD))
    q_cap = int(math.ceil(t_max * sup_c / form.core_period))
    q_eff = min(q_max, max(q_cap, 0))
    clamped = p_max > _P_CLAMP
    if clamped:
        warnings.warn(f"clamping disk-turn bound from {p_max} to {_P_CLAMP}")
        p_max = _P_CLAMP

    coef_q = -dp.coef / DISK_PERIOD
    coef_p = cp.coef / form.core_period
    # the quadratics' Bernstein coefficients (columns) and end values
    to_bernstein = np.array([[1.0, 1.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.0, 1.0]])
    bern_q, bern_p = (coef @ to_bernstein for coef in (coef_q, coef_p))
    ends_q, ends_p = np.abs(bern_q[:, ::2]), np.abs(bern_p[:, ::2])
    gap = 1e-12 * max(1.0, form.radius)
    for p, q in _coprime_pairs(p_max, q_eff):
        g = q * coef_q - p * coef_p
        b = q * bern_q - p * bern_p
        b_lo = np.minimum(np.minimum(b[:, 0], b[:, 1]), b[:, 2])
        b_hi = np.maximum(np.maximum(b[:, 0], b[:, 1]), b[:, 2])
        scale = abs(q) * ends_q + abs(p) * ends_p
        tol = 1e-12 * np.maximum(scale[:, 0], scale[:, 1])
        # identically zero: |g| <= 1e-12 (|q| |coef_q| + |p| |coef_p|) on the piece
        zero = np.maximum(b_hi, -b_lo) <= tol
        bands = []
        if zero.any():
            # maximal runs of identically resonant pieces are bands, with r
            # at the smallest period T = q P W/|c'| (q = 0: |p| 2 pi W/|d'|)
            edge = np.diff(np.concatenate([[0], zero.astype(int), [0]]))
            for i, j in zip(np.flatnonzero(edge == 1), np.flatnonzero(edge == -1)):
                lo, hi = float(cp.lo[i]), float(cp.hi[j - 1])
                rate, fn = (cp, form.c) if q != 0 else (dp, form.d)
                sign = 1.0 if fn.derivative(0.5 * (lo + hi)) > 0.0 else -1.0
                r = W.restrict(lo, hi).extreme(rate.restrict(lo, hi) * sign)[1]
                # a band closing onto the core never undercuts q times the
                # core period there, and its tori need r > 0
                rec, bad = _record_torus(form, r if r > 0.0 else hi, p, q, t_max,
                                         r_lo=lo, r_hi=hi)
                dropped += bad
                if rec is not None:
                    records.append(rec)
                bands.append((lo - gap, hi + gap))
        # roots only where the Bernstein coefficients can change sign
        live = np.flatnonzero(~zero & (b_lo <= tol) & (b_hi >= -tol))
        candidates = PiecewisePoly(cp.lo[live], cp.hi[live], g[live], np.zeros_like(g[live]))
        for r in (candidates.roots() if live.size else ()):
            if any(lo <= r <= hi for lo, hi in bands):
                continue
            rec, bad = _record_torus(form, float(r), p, q, t_max)
            dropped += bad
            if rec is not None:
                records.append(rec)

    records.sort(key=lambda o: (o.period, o.r, o.q, o.p))
    return OrbitSearch(records, q_cap, clamped, dropped)


@dataclass(frozen=True)
class TminEstimate:
    """Minimal period over the enumerated orbit families, with the search
    parameters on record.  heuristic is False only when the search was
    complete: q_max reached q_cap (the most core turns that fit below
    t_max), the disk-turn bound was not clamped, and no candidate failed
    re-verification."""

    value: float
    kind: str
    r: float
    t_max: float
    q_max: int
    heuristic: bool = True


def tmin(form: RotForm, t_max: float, q_max: int) -> TminEstimate:
    """Minimum period over the enumerated orbit families."""
    found = orbit_enumerate(form, t_max, q_max)
    heuristic = q_max < found.q_cap or found.clamped or found.dropped > 0
    if not found:
        return TminEstimate(math.inf, "none-found", math.nan, t_max, q_max, heuristic)
    best = found[0]
    return TminEstimate(best.period, best.kind, best.r, t_max, q_max, heuristic)


# ---------------------------------------------------------------------------
# Volume
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Volume:
    """The contact volume and its cross-check over the named section;
    spread is their relative mismatch."""

    closed_form: float
    section: float
    section_name: str

    @property
    def value(self) -> float:
        return self.closed_form

    @property
    def spread(self) -> float:
        return abs(self.closed_form - self.section) / max(
            abs(self.closed_form), abs(self.section), 1e-300)

    def to_dict(self) -> dict:
        return {"closed_form": self.closed_form, "section": self.section,
                "section_name": self.section_name, "spread": self.spread}


def volume(form: RotForm) -> Volume:
    """vol = integral of alpha ^ dalpha over the solid torus, two ways.

    closed_form: 2*pi*P times the exact per-piece integral of the
    decided W = c'd - cd'.  section: the integral of tau dalpha over
    the core-angle section when it is transverse, else the disk-angle
    one, using the return-system tau; its integrand is P W (or 2*pi W)
    of degree 5 per knot interval, so 3-point Gauss is exact.
    """
    W = _contact(form)[2]
    R, P = form.radius, form.core_period
    closed = DISK_PERIOD * P * W.integral()
    try:
        sys = return_system(form, "core-angle")
        section = DISK_PERIOD * gauss_piecewise(
            lambda r: sys.tau(r) * form.c.derivative(r), W.knots, 0.0, R, npts=3)
    except SectionError:
        sys = return_system(form, "disk-angle")
        section = P * gauss_piecewise(
            lambda r: sys.tau(r) * np.abs(form.d.derivative(r)), W.knots, 0.0, R, npts=3)
    return Volume(closed, section, sys.section)
