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

The designer fixes the two exact outer arcs and searches a small
family of interpolants in between: an acceleration cubic along the
line (the B3 drop bound forces f to cross most of [0, 1] before r0)
and a bridge cubic pair turning the tangent from the line direction
(1, -1) to the final direction (0, -1).  The family is one stack of
Hermite data arrays, a row per candidate, decided by one batched sign
decision per condition; the B3 drop, which every candidate shares, is
evaluated once, and only the winner becomes a ProfileCurve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import PiecewisePoly, RadialFunction, check_hermite
from .rotorus import DISK_PERIOD, RotForm, contact_check

# the parabolic parameterization is required on this inner fraction of
# the line segment; the designer always keeps it exact a bit further out
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

    def gamma(self, r):
        r = np.asarray(r, dtype=float)
        return self.f(r) + 1j * self.g(r)

    def gap(self) -> float:
        """Achieved drop g(r0) - g(rho), budgeted at 2 delta by B3."""
        return _drop(self.g, self.params)

    def to_dict(self) -> dict:
        return {"params": self.params.to_dict(),
                "f": self.f.to_dict(), "g": self.g.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "ProfileCurve":
        return cls(RadialFunction.from_dict(d["f"]),
                   RadialFunction.from_dict(d["g"]),
                   ProfileParams.from_dict(d["params"]))


def _drop(g: RadialFunction, p: ProfileParams) -> float:
    return float(g(p.r0) - g(p.rho))


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
    """For curves sharing their params: f, g, s = f + g (summed in the
    data, so exact where they cancel), f', g', s', f'', s'' and the radius
    r as polynomials on the same pieces, with the curve index of each
    piece.  They are kept side by side, so restricting them is one call
    and every check below runs once for all the curves."""

    NAMES = ("f", "g", "s", "fp", "gp", "sp", "fpp", "spp", "r")

    def __init__(self, stack: PiecewisePoly, curve: np.ndarray):
        self.stack = stack
        self.curve = curve
        for name, part in zip(self.NAMES, _blocks(stack, len(self.NAMES))):
            setattr(self, name, part)

    @classmethod
    def of(cls, curve: ProfileCurve) -> "_Parts":
        """The parts of one curve, whose f and g may sit on different knots."""
        f, g, rho = curve.f, curve.g, curve.params.rho
        if np.array_equal(f.knots, g.knots):
            return cls.stacked(rho, f.knots[None], f.values[None], f.derivs[None],
                               g.values[None], g.derivs[None])
        fns = [PiecewisePoly.from_radial(*fn, upto=rho).restrict(0.0, rho)
               for fn in ((f,), (g,), (f, g))]
        return cls._side_by_side(PiecewisePoly.concat([fn.refine(fns[2].knots) for fn in fns]))

    @classmethod
    def stacked(cls, rho: float, knots, fv, fd, gv, gd) -> "_Parts":
        """The parts of the curves whose f and g data (values fv, gv and
        derivatives fd, gd) sit on the rows of knots, one curve per row."""
        f, g = (fv, fd), (gv, gd)
        return cls._side_by_side(PiecewisePoly.concat(
            [PiecewisePoly.from_hermite(knots, terms, upto=rho) for terms in ([f], [g], [f, g])]
        ).restrict(0.0, rho))

    @classmethod
    def _side_by_side(cls, fgs: PiecewisePoly) -> "_Parts":
        """From f, g and s laid side by side on the same pieces."""
        d1 = fgs.derivative()
        f, _, _ = _blocks(fgs, 3)
        fpp, _, spp = _blocks(d1.derivative(), 3)
        curve = np.cumsum(np.r_[True, f.lo[1:] <= f.lo[:-1]]) - 1
        return cls(PiecewisePoly.concat([fgs, d1, fpp, spp, f.radius()]), curve)

    def on(self, a: float, b: float) -> "_Parts":
        keep = (self.f.lo < b) & (self.f.hi > a)
        return _Parts(self.stack.restrict(a, b), self.curve[keep])


def _conditions(p: ProfileParams, parts: _Parts):
    """(name, tolerance, P, Q, curve) per condition: the quantity P/Q
    (Q > 0) must stay below the tolerance on every piece, and curve holds
    the curve index of each piece."""
    line = 1.0 + p.delta
    every, outer = parts, parts.on(p.r1, p.rho)
    inner, arc = parts.on(0.0, p.r0), parts.on(0.0, ARC_WINDOW * p.r0)
    r2 = arc.r * arc.r
    b1 = [outer.f - 1.0, outer.g - (1.0 - outer.r * outer.r) * p.s]
    b3 = [(inner.s - line, inner), (arc.f - r2, arc), (arc.g - (line - r2), arc)]
    # terms (P, Q, curve) of each condition, Q None for 1
    conds = [
        ("positivity", 1e-12, [(-every.f, None, every.curve), (-every.g, None, every.curve)]),
        ("B1", ARC_TOL, [(d, None, outer.curve) for q in b1 for d in (q, -q)]),
        ("B2", 0.0, [(every.gp, every.r, every.curve)]),
        ("B3", ARC_TOL, [(d, None, at.curve) for q, at in b3 for d in (q, -q)]),
        ("B4", 0.0, [(every.gp * every.f - every.fp * every.g,
                      (every.f * every.f + every.g * every.g) * every.r, every.curve)]),
        # g''f' - f''g' = s''f' - f''s': exactly zero on the line, where s' = 0
        ("B5", B5_TOL, [(every.spp * every.fp - every.fpp * every.sp,
                         every.fp * every.fp + every.gp * every.gp, every.curve)]),
    ]
    return [(name, tol,
             PiecewisePoly.concat([P for P, _, _ in terms]),
             PiecewisePoly.concat([P.constant(1.0) if Q is None else Q for P, Q, _ in terms]),
             np.concatenate([c for _, _, c in terms]))
            for name, tol, terms in conds]


def _holds(conds, k: int, drop_ok: bool) -> np.ndarray:
    """holds[j, i]: condition i holds for curve j of k, from one batched
    sign decision of tolerance * Q - P > 0 per condition; B3 also needs
    drop_ok, the B3 drop bound, which the curves share."""
    holds = np.ones((k, len(conds)), dtype=bool)
    for i, (name, tol, P, Q, curve) in enumerate(conds):
        holds[curve[~np.isnan((Q * tol - P).failures())], i] = False
        if name == "B3":
            holds[:, i] &= drop_ok
    return holds


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
    conds = _conditions(p, _Parts.of(curve))
    gap = curve.gap()
    holds = _holds(conds, 1, gap <= 2.0 * p.delta)[0]
    out = []
    for (name, tol, P, Q, _), ok in zip(conds, holds):
        m, r_at = P.extreme(Q, largest=True)
        ok = bool(ok)
        if name == "B1":
            out.append(ConditionReport(name, ok, m - tol, r_at,
                                       note=f"max deviation {m:.3e}"))
        elif name == "B3":
            out.append(ConditionReport(
                name, ok, max(m - tol, gap - 2.0 * p.delta), r_at,
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


def _family(p: ProfileParams):
    """The designer's candidates (see design_profile): knots, f values,
    f', g values and g', one row of 5-knot Hermite data per candidate,
    checked as RadialFunction checks its data."""
    if not p.feasible():
        raise ProfileError(
            f"infeasible: s (1 - r1^2) = {p.s * (1 - p.r1 ** 2):.6g} "
            f"must be < delta = {p.delta:.6g}")
    line = 1.0 + p.delta
    g_rho = p.s * (1.0 - p.rho ** 2)
    g0 = g_rho + 1.9 * p.delta
    f0 = line - g0
    if f0 <= (0.45 * p.r0) ** 2:
        raise ProfileError("delta too large: the drop target swallows "
                           "the whole line segment")

    g_r1 = p.s * (1.0 - p.r1 ** 2)
    sec_f = (1.0 - f0) / (p.r1 - p.r0)
    sec_g = (g0 - g_r1) / (p.r1 - p.r0)
    r_arc, df0 = [], []
    for arc_frac in (0.25, 0.3, 0.35, 0.4):
        r = arc_frac * p.r0
        sec_acc = (f0 - r ** 2) / (p.r0 - r)
        hi = 0.95 * 3.0 * min(sec_f, sec_g, sec_acc)
        if hi > 0.0:
            r_arc += [r] * 24
            df0.append(np.linspace(0.05 * hi, hi, 24))
    if not r_arc:
        raise ProfileError("no admissible interior found "
                           "(first violated condition: feasibility)")
    r_arc, df0 = np.array(r_arc), np.concatenate(df0)

    # the exact outer arcs plus the two interior cubics
    f_arc = _snap(r_arc * r_arc)
    f0 = _snap(f0)

    def rows(*cols):
        return np.column_stack(np.broadcast_arrays(*cols))

    knots = rows(0.0, r_arc, p.r0, p.r1, p.rho)
    fv, fd = rows(0.0, f_arc, f0, 1.0, 1.0), rows(0.0, 2.0 * r_arc, df0, 0.0, 0.0)
    gv = rows(line, line - f_arc, line - f0, g_r1, g_rho)
    gd = rows(0.0, -2.0 * r_arc, -df0, -2.0 * p.s * p.r1, -2.0 * p.s * p.rho)
    check_hermite(knots, fv, fd, "even")
    check_hermite(knots, gv, gd, "even")
    return knots, fv, fd, gv, gd


def _assemble(p: ProfileParams, family, i: int) -> ProfileCurve:
    """Candidate i of the family as a curve."""
    knots, fv, fd, gv, gd = family
    return ProfileCurve(RadialFunction(knots[i], fv[i], fd[i], parity="even"),
                        RadialFunction(knots[i], gv[i], gd[i], parity="even"), p)


def _bridge_margins(p: ProfileParams, parts: _Parts) -> np.ndarray:
    """Per curve: the smallest clockwise-turning margin (B4 and B5 rates) on [r0, r1]."""
    b = parts.on(p.r0, p.r1)
    k = int(parts.curve[-1]) + 1
    s4 = (b.fp * b.g - b.gp * b.f).extremes(b.curve, b.f * b.f + b.g * b.g)[0]
    s5 = (b.fpp * b.sp - b.spp * b.fp).extremes(b.curve, b.fp * b.fp + b.gp * b.gp)[0]
    return np.minimum(s4[:k], s5[:k])


def _decide(p: ProfileParams, family):
    """The conditions of the whole family, its parts and holds[i, j]:
    condition j holds for candidate i (see verify_profile)."""
    knots, _, _, gv, gd = family
    parts = _Parts.stacked(p.rho, *family)
    conds = _conditions(p, parts)
    # every candidate shares g's data at r0 and on [r1, rho], so the
    # first one's B3 drop is the whole family's
    drop = _drop(RadialFunction(knots[0], gv[0], gd[0], parity="even"), p)
    return conds, parts, _holds(conds, len(knots), drop <= 2.0 * p.delta)


def design_profile(params: ProfileParams) -> ProfileCurve:
    """Construct a curve passing all five conditions.

    The outer arcs are fixed by B1 and B3.  The interior is a two-knot
    family: the radius r_arc up to which the curve keeps the exact
    parabolic parameterization, and the speed df0 at which it leaves
    the line at r0.  The family (four arc radii times 24 speeds) is
    built as stacked arrays of 5-knot Hermite data, one row per
    candidate, and decided at once by the checks of verify_profile;
    the B3 drop g(r0) - g(rho), which every candidate shares, is
    evaluated once.  The survivor with the largest minimum turning
    margin on the bridge wins, and only it becomes a ProfileCurve.  The
    drop is set to 1.9 delta, inside the 2 delta budget.
    """
    p = params
    family = _family(p)
    conds, parts, holds = _decide(p, family)
    passed = holds.all(axis=1)
    if not passed.any():
        name = conds[int(np.argmin(holds[0]))][0]
        raise ProfileError(f"no admissible interior found "
                           f"(first violated condition: {name})")
    score = np.where(passed, _bridge_margins(p, parts), -np.inf)
    return _assemble(p, family, int(np.argmax(score)))


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
