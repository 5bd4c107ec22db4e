"""Design and verification of the boundary-layer coefficient curve.

The curve gamma(r) = f(r) + i g(r) on [0, rho] encodes a rotational
form via c = kappa f, d = kappa g with kappa = 1/(2 pi (1 + delta)).
Five conditions make its flow sweep a family of disk-angle pages with
return time pinched between 1/(1+delta) and 1:

  B1  gamma = 1 + i s(1 - r^2) on [r1, rho];
  B2  g' < 0 on (0, rho];
  B3  gamma runs along the line x + y = 1 + delta on [0, r0], follows
      the exact arc (r^2, 1 + delta - r^2) near 0, and the drop
      g(r0) - g(rho) is at most 2 delta;
  B4  the argument of gamma strictly decreases on (0, rho];
  B5  the argument of gamma' never increases (tolerance 1e-12, since
      it is exactly constant on the line and on the B1 arc).

The designer constructs one curve on the knots 0 < r_arc < r0 < r_m <
r1 < rho, with no search: the exact arc (r^2, 1 + delta - r^2) up to
r_arc, an acceleration cubic along the line x + y = 1 + delta up to r0
(the B3 drop bound forces f to cross most of [0, 1] there), a convex
bridge cubic that turns the tangent from the line direction (1, -1) to
the vertical (0, -1) and lands at (1, y_m) below the line, a vertical
piece f = 1 down to the B1 arc, and the B1 arc itself.  Each piece's
speeds keep it monotone (Fritsch and Carlson 1980) and the bridge's
Bezier control polygon convex (Farin, Curves and Surfaces for CAGD), so
B2, B4, B5 and the return-time bounds hold by construction; the curve is
still decided by verify_profile before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import PiecewisePoly, RadialFunction
from .rotorus import DISK_PERIOD, RotForm, contact_check

# the parabolic parameterization is required on this inner fraction of
# the line segment, and the designer keeps it exact up to there
ARC_WINDOW = 0.25

B5_TOL = 1e-12
ARC_TOL = 1e-9


class ProfileError(ValueError):
    """Infeasible parameters or a curve that fails its conditions."""


@dataclass(frozen=True)
class ProfileParams:
    """(s, delta, rho, r0, r1) with 0 < r0 < r1 < rho <= 1."""

    s: float
    delta: float
    rho: float
    r0: float
    r1: float

    def __post_init__(self):
        if not (self.s > 0.0 and self.delta > 0.0):
            raise ValueError("s and delta must be positive")
        if not (0.0 < self.r0 < self.r1 < self.rho <= 1.0):
            raise ValueError("need 0 < r0 < r1 < rho <= 1")

    def feasible(self) -> bool:
        """The outer arc endpoint must sit below the line x + y = 1 + delta."""
        return self.s * (1.0 - self.r1 ** 2) < self.delta

    def to_dict(self) -> dict:
        return {"s": self.s, "delta": self.delta, "rho": self.rho,
                "r0": self.r0, "r1": self.r1}

    @classmethod
    def from_dict(cls, d: dict) -> "ProfileParams":
        return cls(float(d["s"]), float(d["delta"]), float(d["rho"]),
                   float(d["r0"]), float(d["r1"]))


@dataclass(frozen=True)
class ProfileCurve:
    f: RadialFunction
    g: RadialFunction
    params: ProfileParams

    def gap(self) -> float:
        """Achieved drop g(r0) - g(rho), budgeted at 2 delta by B3."""
        return float(self.g(self.params.r0) - self.g(self.params.rho))

    @cached_property
    def report(self) -> ProfileReport:
        """verify_profile of this curve, decided once."""
        return verify_profile(self)

    def to_dict(self) -> dict:
        return {"params": self.params.to_dict(),
                "f": self.f.to_dict(), "g": self.g.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "ProfileCurve":
        return cls(RadialFunction.from_dict(d["f"]),
                   RadialFunction.from_dict(d["g"]),
                   ProfileParams.from_dict(d["params"]))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    name: str
    passed: bool
    margin: float
    r_at: float
    note: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "margin": self.margin, "r_at": self.r_at, "note": self.note}


@dataclass(frozen=True)
class ProfileReport:
    conditions: tuple[ConditionReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionReport:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def first_failure(self) -> ConditionReport | None:
        for c in self.conditions:
            if not c.passed:
                return c
        return None

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "conditions": [c.to_dict() for c in self.conditions]}


def _blocks(stack: PiecewisePoly, k: int) -> list[PiecewisePoly]:
    """Split k functions laid side by side on equal pieces."""
    n = stack.lo.size // k
    lo, hi = stack.lo[:n], stack.hi[:n]
    return [PiecewisePoly(lo, hi, stack.coef[i * n:(i + 1) * n], stack.err[i * n:(i + 1) * n])
            for i in range(k)]


class _Parts:
    """For one curve: f, g, s = f + g (summed in the data, so exact where
    they cancel), f', g', s', f'', s'' and the radius r as polynomials on
    the same pieces.  They are kept side by side, so restricting them is
    one call and every check below runs once for all of them."""

    NAMES = ("f", "g", "s", "fp", "gp", "sp", "fpp", "spp", "r")

    def __init__(self, stack: PiecewisePoly):
        self.stack = stack
        for name, part in zip(self.NAMES, _blocks(stack, len(self.NAMES))):
            setattr(self, name, part)

    @classmethod
    def of(cls, curve: ProfileCurve) -> "_Parts":
        """The parts of the curve, whose f and g may sit on different knots."""
        f, g, rho = curve.f, curve.g, curve.params.rho
        fns = [PiecewisePoly.from_radial(*fn, upto=rho).restrict(0.0, rho)
               for fn in ((f,), (g,), (f, g))]
        fgs = PiecewisePoly.concat([fn.refine(fns[2].knots) for fn in fns])
        d1 = fgs.derivative()
        f, _, _ = _blocks(fgs, 3)
        fpp, _, spp = _blocks(d1.derivative(), 3)
        return cls(PiecewisePoly.concat([fgs, d1, fpp, spp, f.radius()]))

    def on(self, a: float, b: float) -> "_Parts":
        return _Parts(self.stack.restrict(a, b))


def _conditions(p: ProfileParams, parts: _Parts):
    """(name, tolerance, P, Q) per condition: the quantity P/Q (Q > 0)
    must stay below the tolerance on every piece."""
    line = 1.0 + p.delta
    every, outer = parts, parts.on(p.r1, p.rho)
    inner, arc = parts.on(0.0, p.r0), parts.on(0.0, ARC_WINDOW * p.r0)
    r2 = arc.r * arc.r
    b1 = [outer.f - 1.0, outer.g - (1.0 - outer.r * outer.r) * p.s]
    b3 = [inner.s - line, arc.f - r2, arc.g - (line - r2)]
    # terms (P, Q) of each condition, Q None for 1
    conds = [
        ("positivity", 1e-12, [(-every.f, None), (-every.g, None)]),
        ("B1", ARC_TOL, [(d, None) for q in b1 for d in (q, -q)]),
        ("B2", 0.0, [(every.gp, every.r)]),
        ("B3", ARC_TOL, [(d, None) for q in b3 for d in (q, -q)]),
        ("B4", 0.0, [(every.gp * every.f - every.fp * every.g,
                      (every.f * every.f + every.g * every.g) * every.r)]),
        # g''f' - f''g' = s''f' - f''s': exactly zero on the line, where s' = 0
        ("B5", B5_TOL, [(every.spp * every.fp - every.fpp * every.sp,
                         every.fp * every.fp + every.gp * every.gp)]),
    ]
    return [(name, tol,
             PiecewisePoly.concat([P for P, _ in terms]),
             PiecewisePoly.concat([P.constant(1.0) if Q is None else Q for P, Q in terms]))
            for name, tol, terms in conds]


def verify_profile(curve: ProfileCurve) -> ProfileReport:
    """Decide positivity and B1-B5 and report one margin per condition.

    Each condition is decided as (tolerance - quantity) > 0 by the sign
    decisions of the piecewise-polynomial kernel; a sign that rounding
    leaves undecided fails.  The tolerances are 1e-12 for positivity,
    ARC_TOL for the B1 and B3 deviations and B5_TOL; B3 also bounds the
    drop g(r0) - g(rho) by 2 delta.  Margins are the exact maxima of the
    violation quantities minus the ARC_TOL and B5_TOL offsets, so
    negative means pass with room; r_at locates them.  B2 (g' < 0) and
    B4 vanish at the core by parity: they are decided on (0, rho], and
    their margin is the maximum of the quantity divided by r.
    """
    p = curve.params
    gap = curve.gap()
    out = []
    for name, tol, P, Q in _conditions(p, _Parts.of(curve)):
        ok = (Q * tol - P).positive() is None
        m, r_at = P.extreme(Q, largest=True)
        if name == "B1":
            out.append(ConditionReport(name, ok, m - tol, r_at,
                                       note=f"max deviation {m:.3e}"))
        elif name == "B3":
            out.append(ConditionReport(
                name, ok and gap <= 2.0 * p.delta, max(m - tol, gap - 2.0 * p.delta), r_at,
                note=f"drop g(r0)-g(rho) = {gap:.6g} (bound {2.0 * p.delta:.6g})"))
        else:
            out.append(ConditionReport(name, ok, m - (B5_TOL if name == "B5" else 0.0), r_at))
    return ProfileReport(tuple(out))


# ---------------------------------------------------------------------------
# Design
# ---------------------------------------------------------------------------

def _snap(x):
    """Round to the 2^-46 grid so that (1 + delta) - x subtracts exactly.

    Dyadic values make the g-data on the line segment the bitwise
    complement of the f-data, so f + g is exactly constant there: the
    B5 numerator s''f' - f''s' (s = f + g) is then an exact zero that
    the verifier can decide, instead of 1/h^2-amplified noise.
    """
    return np.ldexp(np.rint(np.ldexp(x, 46)), -46)


def design_profile(params: ProfileParams) -> ProfileCurve:
    """Construct the curve passing all five conditions (see the module).

    The outer arcs are fixed by B1 and B3, and the drop g(r0) - g(rho)
    is set to 1.9 delta, inside the 2 delta budget, which fixes the point
    (f0, g0) where the curve leaves the line.  The bridge lands at
    (1, y_m), y_m = (g(r1) + delta)/2, halfway between the B1 arc's start
    and the line, and the vertical piece f = 1 runs from there down to
    g(r1) over h2 = r1 - r_m = min((r1 - r0)/2, (y_m - g(r1))/(s r1)).
    The speeds are the exit speed df0 at r0 and the landing speed v_m at
    r_m (h1 = r_m - r0):

      df0 = min(3 (1 - f0)/(2 h1), 0.95 * 3 (f0 - r_arc^2)/(r0 - r_arc)),
      v_m = min(3 (delta - y_m)/(2 h1), 3 (y_m - g(r1))/h2).

    The bridge's Bezier control points are (f0, g0), the point h1 df0/3
    along the line (left of x = 1), (1, y_m + h1 v_m/3) (below the line)
    and (1, y_m): a convex polygon turning clockwise with g strictly
    decreasing, so the cubic is convex (B5), keeps g' < 0 (B2) and, with
    f' >= 0 and f, g > 0, turns its argument down (B4).  The acceleration
    cubic and the vertical piece have end slopes at most three times
    their secants (for the entry slope 2 r_arc, the "delta too large"
    refusal sees to that), so they are monotone (B2).  tau then falls
    from 1 on the line to 1/(1 + delta) on the vertical piece.  The
    curve is decided by verify_profile (the report stays on the curve as
    `curve.report`), and a ProfileError names the first condition it
    fails, should it fail one.
    """
    p = params
    if not p.feasible():
        raise ProfileError(
            f"infeasible: s (1 - r1^2) = {p.s * (1 - p.r1 ** 2):.6g} "
            f"must be < delta = {p.delta:.6g}")
    line = 1.0 + p.delta
    g_rho = p.s * (1.0 - p.rho ** 2)
    f0 = line - (g_rho + 1.9 * p.delta)
    if f0 <= (0.45 * p.r0) ** 2:
        raise ProfileError("delta too large: the drop target swallows "
                           "the whole line segment")
    r_arc = ARC_WINDOW * p.r0
    f_arc, f0 = _snap(r_arc * r_arc), _snap(f0)
    g_r1 = p.s * (1.0 - p.r1 ** 2)
    y_m = 0.5 * (g_r1 + p.delta)
    r_m = p.r1 - min(0.5 * (p.r1 - p.r0), (y_m - g_r1) / (p.s * p.r1))
    h1, h2 = r_m - p.r0, p.r1 - r_m
    df0 = min(1.5 * (1.0 - f0) / h1, 0.95 * 3.0 * (f0 - f_arc) / (p.r0 - r_arc))
    v_m = min(1.5 * (p.delta - y_m) / h1, 3.0 * (y_m - g_r1) / h2)

    knots = np.array([0.0, r_arc, p.r0, r_m, p.r1, p.rho])
    f = RadialFunction(knots, np.array([0.0, f_arc, f0, 1.0, 1.0, 1.0]),
                       np.array([0.0, 2.0 * r_arc, df0, 0.0, 0.0, 0.0]), parity="even")
    g = RadialFunction(knots, np.array([line, line - f_arc, line - f0, y_m, g_r1, g_rho]),
                       np.array([0.0, -2.0 * r_arc, -df0, -v_m, -2.0 * p.s * p.r1,
                                 -2.0 * p.s * p.rho]), parity="even")
    curve = ProfileCurve(f, g, p)
    bad = curve.report.first_failure()
    if bad is not None:
        raise ProfileError(f"the constructed curve fails "
                           f"(first violated condition: {bad.name})")
    return curve


# ---------------------------------------------------------------------------
# Return time
# ---------------------------------------------------------------------------

class TauProfile:
    """tau(r) = (g'f - f'g)/((1 + delta) g'), extended by its limit at 0."""

    def __init__(self, curve: ProfileCurve):
        self.curve = curve
        self._scale = 1.0 + curve.params.delta
        g2 = float(curve.g.second_derivative(0.0))
        f2 = float(curve.f.second_derivative(0.0))
        if g2 == 0.0:
            raise ProfileError("tau needs g''(0) != 0 for its limit at 0")
        self._tau0 = -f2 * float(curve.g(0.0)) / (self._scale * g2)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        fv, gv = self.curve.f(r), self.curve.g(r)
        fp, gp = self.curve.f.derivative(r), self.curve.g.derivative(r)
        at0 = r == 0.0
        den = np.where(at0, 1.0, self._scale * gp)
        out = np.where(at0, self._tau0, (gp * fv - fp * gv) / den)
        return float(out) if r.ndim == 0 else out


@dataclass(frozen=True)
class TauReport:
    monotone_margin: float
    min_value: float
    max_value: float
    sup_deviation: float
    deviation_bound: float

    @property
    def passed(self) -> bool:
        # tau is monotone, with values in [1/(1 + delta), 1]; 1/(1 + delta)
        # = 1 - deviation_bound
        return (self.monotone_margin <= 1e-10
                and self.min_value >= 1.0 - self.deviation_bound - 1e-12
                and self.max_value <= 1.0 + 1e-10)

    def to_dict(self) -> dict:
        return {"monotone_margin": self.monotone_margin,
                "min_value": self.min_value, "max_value": self.max_value,
                "sup_deviation": self.sup_deviation,
                "deviation_bound": self.deviation_bound,
                "passed": self.passed}


def tau_profile(curve: ProfileCurve) -> tuple[TauProfile, TauReport]:
    """The return-time profile of the curve plus its monotonicity report.

    Valid under B2; raises unless g' < 0 is decided on (0, rho].  The
    report's extremes are exact maxima and minima of the polynomial
    ratios tau = (f'g - g'f) / (-(1 + delta) g') and
    tau' = g (f'g'' - g'f'') / ((1 + delta) g'^2).
    """
    p = curve.params
    c = _Parts.of(curve)
    r_bad = (-c.gp).positive()
    if r_bad is not None:
        raise ProfileError(f"tau is undefined where g' >= 0 (r = {r_bad:.6g})")
    scale = 1.0 + p.delta
    num, den = c.fp * c.g - c.gp * c.f, c.gp * -scale
    lo, hi = num.extreme(den)[0], num.extreme(den, largest=True)[0]
    # f'g'' - g'f'' = f's'' - s'f'': exactly zero on the line, where s' = 0
    slope = c.g * (c.fp * c.spp - c.sp * c.fpp)
    report = TauReport(
        monotone_margin=slope.extreme(c.gp * c.gp * scale, largest=True)[0],
        min_value=lo,
        max_value=hi,
        sup_deviation=max(hi - 1.0, 1.0 - lo),
        deviation_bound=p.delta / (1.0 + p.delta))
    return TauProfile(curve), report


def to_rotform(curve: ProfileCurve) -> RotForm:
    """The rotational form of the curve: c = kappa f, d = kappa g.

    kappa = 1/(2 pi (1 + delta)) makes the core orbit period exactly
    2 pi * kappa * g(0) = 1 when g(0) = 1 + delta.
    """
    p = curve.params
    kappa = 1.0 / (DISK_PERIOD * (1.0 + p.delta))
    form = RotForm(p.rho, DISK_PERIOD, curve.f * kappa, curve.g * kappa,
                   kappa=kappa)
    contact_check(form)
    return form
