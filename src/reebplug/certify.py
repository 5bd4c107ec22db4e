"""Exact certification arithmetic for the systolic-ratio lower bound.

A surface of section with ell boundary circles, return time within eps
of 1 away from the boundary collars, and one unit-fiber plug installed
over a disk of area (1 - eps) a_j inside the j-th collar certifies the
chain

    ell < eps + sum_j a_j
    vol(complement) < eps (2 ell + 1)
    vol(total)      < eps (3 ell + 1)
    t_min           >= 1 - eps
    ratio           > (1 - eps)^2 / (eps (3 ell + 1))

Every inequality is evaluated in exact rational arithmetic.  Design
parameters (ell, eps, the a_j) are decimal data, so 0.01 enters the
chain as 1/100; measured quantities (plug volumes, periods, the tau
bound) are dyadic floats rounded conservatively before entering (up
for volumes and tau bounds, down for periods).  A failed inequality
refuses the certificate; no certificate is ever emitted alongside a
failed check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .plug import A3_K_MAX, PlugReport, PlugSystem, verify_a

__all__ = [
    "CHAIN_TOL",
    "CertificationError",
    "AssemblyInput",
    "TraceStep",
    "VolumeBudget",
    "LedgerEntry",
    "TminLedger",
    "Certificate",
    "assemble",
    "plan_radii",
    "volume_budget",
    "tmin_ledger",
    "systolic_bound",
    "bound_formula",
]

# floating mirror of the exact chain must agree to this relative error
CHAIN_TOL = 1e-12


class CertificationError(ValueError):
    """An inequality of the certification chain failed."""


def _decimal(x: float | int | Fraction) -> Fraction:
    """Design parameters are decimal data: 0.01 means exactly 1/100."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return Fraction(str(float(x)))


def _round_up(x: float) -> Fraction:
    # conservative for quantities that make the bound worse when larger
    return Fraction(math.nextafter(float(x), math.inf))


def _round_down(x: float) -> Fraction:
    return Fraction(math.nextafter(float(x), -math.inf))


def _frac_dict(x: Fraction) -> dict:
    return {"exact": f"{x.numerator}/{x.denominator}", "float": float(x)}


@dataclass(frozen=True)
class TraceStep:
    """One re-checkable line of the inequality chain."""

    name: str
    text: str
    lhs: Fraction
    rel: str
    rhs: Fraction

    @property
    def holds(self) -> bool:
        if self.rel == "<":
            return self.lhs < self.rhs
        if self.rel == "<=":
            return self.lhs <= self.rhs
        if self.rel == "=":
            return self.lhs == self.rhs
        raise ValueError(f"unknown relation {self.rel!r}")

    def to_dict(self) -> dict:
        return {"name": self.name, "text": self.text,
                "lhs": _frac_dict(self.lhs), "rel": self.rel,
                "rhs": _frac_dict(self.rhs), "holds": self.holds}

    def render(self) -> str:
        mark = "ok" if self.holds else "FAIL"
        return (f"[{mark}] {self.name}: {float(self.lhs):.12g} {self.rel} "
                f"{float(self.rhs):.12g}  ({self.text})")


def _check_design(eps: float | Fraction, areas: Sequence[float] = (),
                  n_circles: int = 1) -> None:
    """Refuse a circle count below 1, an eps outside (0, 1) or a collar
    area that is not a positive finite number."""
    if n_circles < 1:
        raise CertificationError("need at least one boundary circle")
    if not (math.isfinite(eps) and 0 < eps < 1):
        raise CertificationError("eps must lie in (0, 1)")
    if any(not math.isfinite(a) or a <= 0.0 for a in areas):
        raise CertificationError("collar areas must be positive")


def _require(step: TraceStep) -> TraceStep:
    if not step.holds:
        raise CertificationError(
            f"refused at {step.name}: {step.text} fails "
            f"({float(step.lhs):.12g} {step.rel} {float(step.rhs):.12g} "
            f"is false)")
    return step


@dataclass(frozen=True)
class AssemblyInput:
    """One assembly: circle count, budget, collar areas, plug evidence.

    tau_bound is the measured sup |tau - 1| over the part of the
    section away from the installed plugs; it must stay below eps.
    """

    n_circles: int
    eps: float
    areas: tuple[float, ...]
    plug_reports: tuple[PlugReport, ...]
    tau_bound: float

    def __post_init__(self):
        object.__setattr__(self, "areas", tuple(float(a) for a in self.areas))
        object.__setattr__(self, "plug_reports", tuple(self.plug_reports))
        _check_design(self.eps, self.areas, self.n_circles)
        if len(self.areas) != self.n_circles:
            raise CertificationError("need one collar area per circle")
        if len(self.plug_reports) != self.n_circles:
            raise CertificationError("need one plug report per circle")
        for rep in self.plug_reports:
            if rep.family != "a":
                raise CertificationError(
                    "assembly consumes unit-fiber (a-family) reports")
        if not (math.isfinite(self.tau_bound) and self.tau_bound >= 0.0):
            raise CertificationError("tau bound must be non-negative")


def assemble(eps: float, areas: Sequence[float], plugs: Sequence[PlugSystem],
             tau_bound: float, k_max: int = A3_K_MAX) -> AssemblyInput:
    """Verify each plug at budget eps and collect the assembly input."""
    if len(plugs) != len(areas):
        raise CertificationError("need one plug per collar area")
    reports = tuple(verify_a(p, eps, k_max=k_max) for p in plugs)
    return AssemblyInput(len(areas), float(eps), tuple(areas), reports,
                         float(tau_bound))


def plan_radii(areas: Sequence[float], eps: float) -> tuple[float, ...]:
    """Disk radii with pi r_j^2 = (1 - eps) a_j.

    The disks fit strictly inside their collars because their area is
    the collar area shrunk by 1 - eps.
    """
    _check_design(eps, areas)
    return tuple(math.sqrt((1.0 - eps) * a / math.pi) for a in areas)


@dataclass(frozen=True)
class VolumeBudget:
    steps: tuple[TraceStep, ...]
    complement_bound: Fraction
    total_bound: Fraction

    def to_dict(self) -> dict:
        return {"complement_bound": _frac_dict(self.complement_bound),
                "total_bound": _frac_dict(self.total_bound),
                "steps": [s.to_dict() for s in self.steps]}


def volume_budget(inp: AssemblyInput) -> VolumeBudget:
    """Bound the total volume by eps (3 ell + 1), tracing every step.

    The complement of the plugs carries return time at most 1 + eps
    over section area ell, minus the (1 - eps) a_j disks; the area
    inequality turns that into eps (2 ell + 1).  Each installed plug
    adds less than eps.
    """
    ell = inp.n_circles
    eps = _decimal(inp.eps)
    total_area = sum(_decimal(a) for a in inp.areas)
    steps = [_require(TraceStep(
        "area", "section area ell is below eps plus the collar areas",
        Fraction(ell), "<", eps + total_area))]

    vols = []
    for j, rep in enumerate(inp.plug_reports):
        if not rep.check("a4").passed:
            raise CertificationError(
                f"refused at plug[{j}] a4: report marks the volume "
                f"check failed ({rep.check('a4').note})")
        vol = _round_up(rep.volume)
        steps.append(_require(TraceStep(
            f"plug[{j}] a4", "installed plug volume is below eps",
            vol, "<", eps)))
        vols.append(vol)

    ambient = (1 + eps) * ell
    collars = (1 - eps) * total_area
    mid = ambient - (1 - eps) * (ell - eps)
    steps.append(_require(TraceStep(
        "complement collar",
        "return time at most 1 + eps over area ell minus the collar "
        "disks, with the area step bounding the collars",
        ambient - collars, "<", mid)))
    steps.append(_require(TraceStep(
        "complement identity", "the collar-free bound simplifies",
        mid, "=", eps * (2 * ell + 1) - eps * eps)))
    steps.append(_require(TraceStep(
        "complement drop", "discard the eps^2 deficit",
        eps * (2 * ell + 1) - eps * eps, "<", eps * (2 * ell + 1))))
    complement = eps * (2 * ell + 1)
    steps.append(_require(TraceStep(
        "plug total", "the ell installed plugs contribute below ell eps",
        sum(vols, Fraction(0)), "<", ell * eps)))
    steps.append(_require(TraceStep(
        "total identity", "complement budget plus plug budget",
        complement + ell * eps, "=", eps * (3 * ell + 1))))
    return VolumeBudget(steps=tuple(steps), complement_bound=complement,
                        total_bound=eps * (3 * ell + 1))


@dataclass(frozen=True)
class LedgerEntry:
    component: str
    bound: Fraction
    provenance: str

    def to_dict(self) -> dict:
        return {"component": self.component, "bound": _frac_dict(self.bound),
                "provenance": self.provenance}


@dataclass(frozen=True)
class TminLedger:
    entries: tuple[LedgerEntry, ...]
    bound: Fraction

    def to_dict(self) -> dict:
        return {"bound": _frac_dict(self.bound),
                "entries": [e.to_dict() for e in self.entries]}


def tmin_ledger(inp: AssemblyInput) -> TminLedger:
    """Lower-bound the shortest closed orbit period by 1 - eps.

    Plug orbits have period at least 1 (their a3 check), the boundary
    circles close up with period exactly 1, and every remaining orbit
    crosses the section with return time above 1 - eps because the tau
    bound stays below eps.
    """
    eps = _decimal(inp.eps)
    entries = []
    for j, rep in enumerate(inp.plug_reports):
        a3 = rep.check("a3")
        if not a3.passed:
            raise CertificationError(
                f"refused at plug[{j}] a3: report marks the period "
                f"check failed ({a3.note})")
        if rep.t_min is None:
            evidence = "no orbits detected"
        else:
            evidence = (f"measured t_min = "
                        f"{float(_round_down(rep.t_min)):.12g}")
        entries.append(LedgerEntry(
            f"plug[{j}]", Fraction(1),
            f"orbit periods at least 1; {evidence}; {a3.note}"))
    entries.append(LedgerEntry(
        "boundary circles", Fraction(1),
        "closed orbits of period exactly 1"))
    if not _round_up(inp.tau_bound) < eps:
        raise CertificationError(
            f"refused at tau: sup |tau - 1| = {inp.tau_bound:.12g} "
            f"is not below eps = {inp.eps:.12g}")
    entries.append(LedgerEntry(
        "remaining orbits", 1 - eps,
        f"return time within {inp.tau_bound:.12g} of 1, below eps"))
    return TminLedger(tuple(entries), min(e.bound for e in entries))


@dataclass(frozen=True)
class Certificate:
    """A certified lower bound with its full re-checkable trace."""

    n_circles: int
    eps: float
    areas: tuple[float, ...]
    tau_bound: float
    radii: tuple[float, ...]
    budget: VolumeBudget
    ledger: TminLedger
    ratio_exact: Fraction
    ratio_float: float
    trace: tuple[TraceStep, ...]
    plug_reports: tuple[PlugReport, ...]

    @property
    def total_bound(self) -> Fraction:
        return self.budget.total_bound

    @property
    def t_min_bound(self) -> Fraction:
        return self.ledger.bound

    def to_dict(self) -> dict:
        return {"n_circles": self.n_circles, "eps": self.eps,
                "areas": list(self.areas), "tau_bound": self.tau_bound,
                "radii": list(self.radii),
                "complement_bound": _frac_dict(self.budget.complement_bound),
                "total_bound": _frac_dict(self.total_bound),
                "t_min_bound": _frac_dict(self.t_min_bound),
                "ratio": _frac_dict(self.ratio_exact),
                "trace": [s.to_dict() for s in self.trace],
                "ledger": self.ledger.to_dict(),
                "plugs": [r.to_dict() for r in self.plug_reports]}

    def render(self) -> str:
        lines = ["certified systolic-ratio lower bound",
                 f"  circles    ell = {self.n_circles}",
                 f"  eps        {self.eps:.12g}",
                 "  collars    " + ", ".join(f"{a:.12g}" for a in self.areas),
                 "  radii      " + ", ".join(f"{r:.12g}" for r in self.radii),
                 "  volume trace:"]
        lines += ["    " + s.render() for s in self.trace]
        lines.append("  t_min ledger:")
        for e in self.ledger.entries:
            lines.append(f"    {e.component:<18} >= {float(e.bound):.12g}"
                         f"  ({e.provenance})")
        lines.append(f"  t_min  >= {float(self.t_min_bound):.12g}"
                     f" = {self.t_min_bound}")
        lines.append(f"  volume <  {float(self.total_bound):.12g}"
                     f" = {self.total_bound}")
        lines.append(f"  ratio  >  {float(self.ratio_exact):.12g}"
                     f" = {self.ratio_exact}")
        return "\n".join(lines) + "\n"


def bound_formula(n_circles: int, eps: float | Fraction) -> Fraction:
    """(1 - eps)^2 / (eps (3 ell + 1)) as an exact rational."""
    _check_design(eps, n_circles=n_circles)
    e = _decimal(eps)
    return (1 - e) ** 2 / (e * (3 * n_circles + 1))


def systolic_bound(inp: AssemblyInput) -> Certificate:
    """Certify the lower bound (1 - eps)^2 / (eps (3 ell + 1)).

    Runs the volume budget and the t_min ledger and assembles the
    ratio; a fully floating mirror of the bound must agree with the
    exact value to CHAIN_TOL or the certificate is refused.
    """
    budget = volume_budget(inp)
    ledger = tmin_ledger(inp)
    ratio = ledger.bound ** 2 / budget.total_bound
    final = _require(TraceStep(
        "ratio", "t_min squared over the total volume bound",
        ratio, "=", bound_formula(inp.n_circles, inp.eps)))
    mirror = (1.0 - inp.eps) ** 2 / (inp.eps * (3 * inp.n_circles + 1))
    if abs(mirror - float(ratio)) > CHAIN_TOL * max(1.0, abs(float(ratio))):
        raise CertificationError(
            "floating evaluation disagrees with the exact bound")
    return Certificate(
        n_circles=inp.n_circles, eps=inp.eps, areas=inp.areas,
        tau_bound=inp.tau_bound, radii=plan_radii(inp.areas, inp.eps),
        budget=budget, ledger=ledger, ratio_exact=ratio, ratio_float=mirror,
        trace=budget.steps + (final,), plug_reports=inp.plug_reports)
