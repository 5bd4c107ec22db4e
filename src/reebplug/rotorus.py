"""Rotationally symmetric contact forms on a solid torus.

A form alpha = c(r) dphi + d(r) dpsi on D^2(R) x (R/P), with phi the
disk angle (period 2*pi) and psi the core angle (period P), is fixed by
two even radial coefficients.  Everything downstream of the contact
condition W = c'd - cd' > 0 is closed-form: the Reeb field rotates both
angles at r-dependent rates, the return systems of the two natural
sections have explicit time and shift, closed orbits sit on resonant
tori (`numerics.resonances` of a quadratic per knot interval), and the
volume is 2*pi*P times the exact integral of W (cross-checked by
integrating the return time over a section).  The sign conditions
(W > 0, transversality) are decided by the piecewise-polynomial
kernel, not sampled; a form builds its pieces and decides W > 0 once,
on first use, for every function here that reads them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import (
    PiecewisePoly,
    RadialFunction,
    gauss_piecewise,
    ode_flow,
    resonances,
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
    Its coefficient pieces, contact decision and margin are worked out
    on first use and kept on the form; they are not serialized.
    """

    radius: float
    core_period: float
    c: RadialFunction
    d: RadialFunction
    kappa: float = 1.0

    def __post_init__(self):
        if not (self.radius > 0.0 and self.core_period > 0.0):
            raise ValueError("radius and core_period must be positive")
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

    @cached_property
    def _pieces(self) -> tuple[PiecewisePoly, PiecewisePoly, PiecewisePoly]:
        """c', d' and W = c'd - cd' as polynomials on common pieces of [0, R]."""
        R = self.radius
        c, d = (PiecewisePoly.from_radial(fn, upto=R).restrict(0.0, R) for fn in (self.c, self.d))
        knots = np.union1d(c.knots, d.knots)
        c, d = c.refine(knots), d.refine(knots)
        cp, dp = c.derivative(), d.derivative()
        return cp, dp, cp * d - c * dp

    @cached_property
    def _core(self) -> tuple[float, float, float]:
        """The limits of (W, -d', c') / r at r = 0: (c''(0) d(0), -d''(0), c''(0))."""
        c2 = float(self.c.second_derivative(0.0))
        return c2 * float(self.d(0.0)), -float(self.d.second_derivative(0.0)), c2

    def _rate_terms(self, r):
        """(W, -d', c') at r, with the core limits of _core where r = 0: every
        Reeb rate, return time and shift is a ratio of two of them."""
        r = np.asarray(r, dtype=float)
        cp, dp = self.c.derivative(r), self.d.derivative(r)
        terms = cp * self.d(r) - self.c(r) * dp, -dp, cp
        at0 = r == 0.0
        if not at0.any():
            return terms
        return tuple(np.where(at0, lim, t) for lim, t in zip(self._core, terms))

    @cached_property
    def _decided(self) -> tuple[PiecewisePoly, PiecewisePoly, PiecewisePoly]:
        return _contact(self)

    @cached_property
    def _margin(self) -> float:
        W = self._decided[2]
        return W.extreme(W.radius())[0]

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


def _contact(form: RotForm) -> tuple[PiecewisePoly, PiecewisePoly, PiecewisePoly]:
    """The form's c', d' and W, after deciding W > 0 on (0, R] (as W/r > 0
    on [0, R], the parity zero at the core factored out); raises
    ContactError where it fails or rounding leaves it undecided."""
    W = form._pieces[2]
    r_bad = W.positive()
    if r_bad is not None:
        raise ContactError(f"contact condition fails at r = {r_bad:.6g} "
                           f"(min W/r = {W.extreme(W.radius())[0]:.3e})")
    return form._pieces


def contact_check(form: RotForm) -> float:
    """Minimum of W(r)/r on [0, R], with its limit c''(0) d(0) at r = 0.

    W > 0 on (0, R] is decided by the piecewise-polynomial kernel;
    raises ContactError where it fails or rounding leaves it undecided.
    """
    return form._margin


# ---------------------------------------------------------------------------
# Reeb field and flow
# ---------------------------------------------------------------------------

def angular_rates(form: RotForm, r):
    """(dphi/dt, dpsi/dt) along the Reeb flow: (-d', c')/W, limits at 0."""
    W, mdp, cp = form._rate_terms(r)
    if np.ndim(W) == 0:
        return float(mdp / W), float(cp / W)
    return mdp / W, cp / W


def reeb_field(form: RotForm, point) -> np.ndarray:
    """Reeb vector at (r, phi, psi), components in (d/dr, d/dphi, d/dpsi);
    raises ContactError unless the form's W > 0 is decided."""
    form._decided
    r = float(np.asarray(point, dtype=float).reshape(3)[0])
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


def ode_check(form: RotForm, start, time: float) -> float:
    """Integrate the Reeb field numerically and compare with exact_flow.

    The ODE runs in Cartesian disk coordinates (x, y, psi), where the
    radius is not privileged, so conservation of r is genuinely tested.
    Returns the sup over 8 evenly spaced checkpoints of the coordinate
    error.
    """
    r0, phi0, psi0 = np.asarray(start, dtype=float).reshape(3)

    def field(t, y):
        x, yy, psi = y
        rad = math.hypot(x, yy)
        rate_disk, rate_core = angular_rates(form, rad)
        return np.array([-yy * rate_disk, x * rate_disk, rate_core])

    state = np.array([r0 * math.cos(phi0), r0 * math.sin(phi0), psi0])
    worst = 0.0
    times = np.linspace(0.0, time, 9)
    for t_prev, t_next in zip(times[:-1], times[1:]):
        state = ode_flow(field, state, t_next - t_prev).state
        r, phi, psi = exact_flow(form, start, t_next)
        target = np.array([r * math.cos(phi), r * math.sin(phi), psi])
        worst = max(worst, float(np.max(np.abs(state - target))))
    return worst


# ---------------------------------------------------------------------------
# Return systems
# ---------------------------------------------------------------------------

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

    def tau(self, r):
        """First return time at radius r (limit value at r = 0)."""
        W, mdp, cp = self.form._rate_terms(r)
        with np.errstate(divide="ignore"):
            out = self.fiber * W / np.abs(cp if self.section == "core-angle" else mdp)
        return float(out) if np.ndim(out) == 0 else out

    def shift(self, r):
        """Advance of the complementary angle over one return."""
        W, mdp, cp = self.form._rate_terms(r)
        with np.errstate(divide="ignore"):
            if self.section == "core-angle":
                out = self.fiber * mdp / cp
            else:
                out = DISK_PERIOD * cp / np.abs(mdp)
        return float(out) if np.ndim(out) == 0 else out


def return_system(form: RotForm, section: str) -> ReturnSystem:
    """Return data on the "disk-angle" or "core-angle" section, after
    deciding transversality on (0, R]."""
    if section not in ("disk-angle", "core-angle"):
        raise ValueError(f"unknown section {section!r}; "
                         "use 'disk-angle' or 'core-angle'")
    return _transverse(form, section)


def _transverse(form: RotForm, sec: str) -> ReturnSystem:
    """return_system on a known section name; raises SectionError."""
    cp, dp, _ = form._pieces
    if sec == "core-angle":
        r_bad = cp.positive()
        if r_bad is not None:
            raise SectionError("core-angle section loses transversality: "
                               f"c'({r_bad:.6g}) <= 0")
        return ReturnSystem(form, sec, form.core_period)
    sign = 1.0 if form.d.derivative(form.radius) > 0.0 else -1.0
    r_bad = (dp * sign).positive()
    if r_bad is not None:
        raise SectionError("disk-angle section loses transversality: "
                           f"d'({r_bad:.6g}) = 0 or changes sign")
    return ReturnSystem(form, sec, DISK_PERIOD)


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


def _closure(form: RotForm, r: np.ndarray, period: np.ndarray):
    """(p, q, residual) per radius: flow the exact Reeb field for its
    period and measure the closure of both angles; (p, q) canonical."""
    rate_disk, rate_core = angular_rates(form, r)
    phi, psi = rate_disk * period, rate_core * period
    p, q = np.round(phi / DISK_PERIOD), np.round(psi / form.core_period)
    res = np.maximum(np.abs(phi - p * DISK_PERIOD), np.abs(psi - q * form.core_period))
    sign = np.where((q < 0) | ((q == 0) & (p < 0)), -1, 1)
    return sign * p.astype(int), sign * q.astype(int), res


def _torus_period(form: RotForm, r: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Minimal period at (p, q)-resonant radii."""
    W, mdp, cp = form._rate_terms(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        core = q * form.core_period * W / np.abs(cp)
        disk = np.abs(p) * DISK_PERIOD * W / np.abs(mdp)
    return np.where(q != 0, core, disk)


def _coprime_pairs(p_max: int, q_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) in canonical form: (1, 0), then q >= 1 with gcd(|p|, q) = 1,
    ordered by q and then p."""
    p, q = np.meshgrid(np.arange(-p_max, p_max + 1), np.arange(1, q_max + 1))
    keep = np.gcd(p, q) == 1
    return np.concatenate([[1], p[keep]]), np.concatenate([[0], q[keep]])


_P_CLAMP = 10000
_BLOCK_ROWS = 4096   # (pair, piece) rows per batched block of the search


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
    interval.  `numerics.resonances` solves every pair, in blocks of
    about 4096 (pair, piece) rows: runs of pieces where it vanishes
    identically are bands, each placed at its smallest period, and its
    other roots are isolated tori.  The turn bounds come from the exact
    suprema of |d'|/W and |c'|/W.  Every record is re-verified by
    closing the exact flow to 1e-8 in both angles.
    """
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and positive, not {t_max!r}")
    if q_max < 0:
        raise ValueError("q_max must be >= 0")
    cp, dp, W = form._decided
    records: list[OrbitRecord] = []

    core_T = form.core_period * float(form.d(0.0))
    if core_T <= t_max:
        res = float(_closure(form, np.zeros(1), np.array([core_T]))[2][0])
        records.append(OrbitRecord("core", 0.0, 0, 1, core_T, 0.0, 0.0, res))

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

    # q (-d')/(2 pi) - p c'/P, one row per (pair, piece), in blocks of
    # about _BLOCK_ROWS rows
    p_all, q_all = _coprime_pairs(p_max, q_eff)
    p_f, q_f = p_all.astype(float), q_all.astype(float)
    n = cp.lo.size
    step = max(1, _BLOCK_ROWS // n)
    pieces = np.tile(np.arange(n), step)
    blocks = (np.repeat(np.arange(start, min(start + step, p_all.size)), n)
              for start in range(0, p_all.size, step))
    (b_pair, b_lo, b_hi), (r, own) = resonances(
        dp / -DISK_PERIOD, cp / form.core_period,
        ((pair, pieces[:pair.size], q_f[pair], p_f[pair]) for pair in blocks))
    found = []   # candidate rows (pair, r, r_lo, r_hi): the bands, then the roots
    for k, lo, hi in zip(b_pair, b_lo, b_hi):
        # a band's torus sits at its smallest period T = q P W/|c'|
        # (q = 0: |p| 2 pi W/|d'|)
        rate, fn = (cp, form.c) if q_all[k] != 0 else (dp, form.d)
        sign = 1.0 if fn.derivative(0.5 * (lo + hi)) > 0.0 else -1.0
        r_min = W.restrict(lo, hi).extreme(rate.restrict(lo, hi) * sign)[1]
        # a band closing onto the core never undercuts q times the core
        # period there, and its tori need r > 0
        found.append((k, r_min if r_min > 0.0 else hi, lo, hi))
    pair, r, r_lo, r_hi = np.concatenate([np.array(found).reshape(-1, 4),
                                          np.stack([own, r, r, r], axis=1)]).T
    p, q = p_all[pair.astype(int)], q_all[pair.astype(int)]

    period = _torus_period(form, r, p, q)
    keep = (period > 0.0) & (period <= t_max)
    r, r_lo, r_hi, period = r[keep], r_lo[keep], r_hi[keep], period[keep]
    p, q, res = _closure(form, r, period)
    bad = ~(res <= 1e-8 * np.maximum(1.0, period))
    for i in np.flatnonzero(bad):
        warnings.warn(f"orbit candidate at r = {r[i]:.6g} failed closure "
                      f"re-verification (residual {res[i]:.2e})")
    records += [OrbitRecord("resonant-torus", float(r[i]), int(p[i]), int(q[i]),
                            float(period[i]), float(r_lo[i]), float(r_hi[i]), float(res[i]))
                for i in np.flatnonzero(~bad)]
    records.sort(key=lambda o: (o.period, o.r, o.q, o.p))
    return OrbitSearch(records, q_cap, clamped, int(bad.sum()))


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
    W = form._decided[2]
    R, P = form.radius, form.core_period
    closed = DISK_PERIOD * P * W.integral()
    try:
        sys = _transverse(form, "core-angle")
        section = DISK_PERIOD * gauss_piecewise(
            lambda r: sys.tau(r) * form.c.derivative(r), W.knots, 0.0, R, npts=3)
    except SectionError:
        sys = _transverse(form, "disk-angle")
        section = P * gauss_piecewise(
            lambda r: sys.tau(r) * np.abs(form.d.derivative(r)), W.knots, 0.0, R, npts=3)
    return Volume(closed, section, sys.section)
