"""Return-system plugs over a compactly supported disk map.

A plug is the return-system presentation of a fibered solid torus: a
disk of some radius, a fiber length L, an area-preserving map phi
supported away from the boundary, and the return time tau = L + sigma,
where sigma is the lam0-action of phi.  The suspension itself is never
built; its closed orbits, return data, and volume are all read off the
pair (phi, tau), and a closed-form rotational realization provides an
independent 3D consistency witness whenever phi is a radial twist.
`make_plug` settles the minimum of sigma once, on the plug; each
verifier reads it there and makes one `orbit_periods` pass.

Two axiom families are verified.  The a-family is the unit-fiber
contract of an assembled piece (orbits no shorter than 1, volume below
epsilon).  The b-family is the sharper per-map contract (action floor
-L + L/n, Calabi below -L pi r^2 + epsilon, non-negative fixed-point
actions, no short periodic orbits) whose estimates survive rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diskmap import (ActionField, DiskMap, PeriodicSearch, RadialTwist, action,
                      calabi, periodic_points, rescale)
from .numerics import PiecewisePoly, RadialFunction, gauss_piecewise, integrate_disk
from .rotorus import RotForm, contact_check

B3_TOL = 1e-12
_U = 2.0 ** -53  # unit roundoff of binary64
A3_K_MAX = 8   # default a3 search depth: periods 1..8


class PlugError(ValueError):
    """Rejected plug data: non-positive return time or bad normalization."""


# ---------------------------------------------------------------------------
# The plug itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PlugSystem:
    """Fiber length L, map, action field, min sigma and its point; the
    disk radius is the map's."""

    L: float
    map: DiskMap
    sigma: ActionField
    sigma_min: float
    tau_argmin: complex

    @property
    def radius(self) -> float:
        return self.map.radius

    @property
    def tau_min(self) -> float:
        return self.L + self.sigma_min

    def tau(self, z):
        """Return time L + sigma(z)."""
        return self.L + self.sigma(z)

    def volume(self) -> float:
        """L pi r^2 + CAL(phi), the closed form of the tau integral."""
        return self.L * math.pi * self.radius ** 2 + calabi(self.map)

    def volume_quadrature(self) -> float:
        """Direct integral of tau over the disk (cross-check path)."""
        if self.map.is_radial:
            prof = self.map.combined_profile()
            return gauss_piecewise(
                lambda r: 2.0 * math.pi * r * (self.L + self.sigma.radial_profile(r)),
                prof.knots, 0.0, self.radius, npts=6)
        return integrate_disk(
            lambda x, y: self.L + self.sigma(np.asarray(x) + 1j * np.asarray(y)),
            self.radius).require()

    def to_dict(self) -> dict:
        return {"L": self.L, "radius": self.radius, "map": self.map.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "PlugSystem":
        return make_plug(*plug_inputs(d))


def plug_inputs(d: dict) -> tuple[DiskMap, float]:
    """The map and fiber length of a serialized plug, whose radius must be
    its map's."""
    phi = DiskMap.from_dict(d["map"])
    if float(d["radius"]) != phi.radius:
        raise ValueError(f"plug radius {d['radius']!r} differs from its map's "
                         f"radius {phi.radius!r}")
    return phi, float(d["L"])


def _min_sigma(phi: DiskMap, sigma: ActionField,
               n_r: int = 256, n_theta: int = 64) -> tuple[float, complex]:
    """Minimum of sigma and a point where it is reached.

    Exact for radial maps: sigma' = r^2 rho' / 2 vanishes only at 0 and
    where rho' does, so the minimum sits at 0, a knot (the support end
    included) or a real root of rho', a quadratic per knot interval
    solved in closed form.  Other maps: a polar grid of n_r x n_theta
    points with deterministic local refinement.
    """
    S = phi.support
    if S == 0.0:
        return 0.0, 0.0 + 0.0j
    if phi.is_radial:
        rho = phi.combined_profile()
        cand = np.union1d(np.append(rho.knots, 0.0),
                          PiecewisePoly.from_radial(rho).derivative().roots())
        vals = sigma.radial_profile(cand)
        i = int(np.argmin(vals))
        return float(vals[i]), complex(cand[i])
    radii = np.linspace(S / n_r, S, n_r)
    thetas = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    zz = np.concatenate([[0.0 + 0.0j],
                         (radii[:, None] * np.exp(1j * thetas)[None, :]).ravel()])
    vals = sigma(zz)
    i = int(np.argmin(vals))
    best, z_best = float(vals[i]), complex(zz[i])
    # two zoom levels of a 9x9 box around the incumbent
    h = max(S / n_r, S * (2.0 * np.pi / n_theta))
    for _ in range(2):
        g = np.linspace(-h, h, 9)
        cand = (z_best + g[:, None] + 1j * g[None, :]).ravel()
        cand = cand[np.abs(cand) <= phi.radius]
        v = sigma(cand)
        j = int(np.argmin(v))
        if v[j] < best:
            best, z_best = float(v[j]), complex(cand[j])
        h /= 8.0
    return best, z_best


def make_plug(phi: DiskMap, L: float,
              n_r: int = 256, n_theta: int = 64) -> PlugSystem:
    """Build the plug of (phi, L), rejecting it unless tau > 0 everywhere.

    tau = L + sigma is minimized exactly for radial maps and on a grid
    plus local refinement otherwise; a non-positive minimum raises
    PlugError with the witness point.
    """
    if not 0.0 < L < math.inf:
        raise PlugError(f"fiber length must be positive and finite, not {L!r}")
    sigma = action(phi)
    sig_min, z_at = _min_sigma(phi, sigma, n_r, n_theta)
    if L + sig_min <= 0.0:
        raise PlugError(
            f"tau <= 0: tau({z_at.real:.6g}, {z_at.imag:.6g}) = {L + sig_min:.6g}")
    return PlugSystem(L, phi, sigma, sig_min, z_at)


def orbit_periods(plug: PlugSystem, k_max: int) -> PeriodicSearch:
    """The map's periodic records (see periodic_points, default seed grid)
    as (record, T) pairs, T the sum of tau along one orbit of each.

    T = k L + sum of sigma over the orbit; the pairs are sorted by
    (T, combinatorial period, radius) for reproducibility, and carry
    the search's `search` entries and `note` on.
    """
    orbs = periodic_points(plug.map, k_max)
    out = [(o, o.period * plug.L + o.action_sum) for o in orbs]
    out.sort(key=lambda item: (round(item[1], 12), item[0].period,
                               round(abs(item[0].point), 9)))
    return PeriodicSearch(out, orbs.search, orbs.note)


# ---------------------------------------------------------------------------
# Axiom reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    margin: float
    note: str = ""
    witness: tuple[float, float] | None = None

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "margin": self.margin,
                "note": self.note,
                "witness": list(self.witness) if self.witness else None}


@dataclass(frozen=True)
class PlugReport:
    family: str
    checks: tuple[AxiomCheck, ...]
    t_min: float | None
    volume: float
    search: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"family": self.family, "passed": self.passed,
                "t_min": self.t_min, "volume": self.volume,
                "search": dict(sorted(self.search.items())),
                "checks": [c.to_dict() for c in self.checks]}


def verify_b(plug: PlugSystem, n: int, eps: float) -> PlugReport:
    """Check the b-family for the plug at sharpness n and budget eps.

    b1: min sigma >= -L + L/n, read from the plug; b2: CAL < -L pi r^2
    + eps; b3: every detected fixed point has non-negative action;
    b4: no detected periodic orbit has minimal period in [2, n-1].
    b3 and b4 read orbit_periods to depth n: exact for radial maps, a
    bounded Newton search otherwise; `search` and the notes say which.
    """
    if not (math.isfinite(eps) and eps > 0.0) or n < 1:
        raise ValueError("need a finite eps > 0, n >= 1")
    floor = -plug.L + plug.L / n
    b1 = AxiomCheck("b1", plug.sigma_min >= floor, floor - plug.sigma_min,
                    note=f"min sigma = {plug.sigma_min:.9g} at floor {floor:.9g}",
                    witness=(plug.tau_argmin.real, plug.tau_argmin.imag))

    cal = calabi(plug.map)
    cap = -plug.L * math.pi * plug.radius ** 2 + eps
    b2 = AxiomCheck("b2", cal < cap, cal - cap,
                    note=f"CAL = {cal:.9g}, cap = {cap:.9g}")

    found = orbit_periods(plug, n)
    fixed = [o for o, _ in found if o.period == 1]
    if fixed:
        worst = min(fixed, key=lambda o: o.action_sum)
        b3 = AxiomCheck("b3", worst.action_sum >= -B3_TOL, -worst.action_sum,
                        note=f"{len(fixed)} fixed-point records; {found.note}",
                        witness=(worst.point.real, worst.point.imag))
    else:
        b3 = AxiomCheck("b3", True, 0.0, note="no fixed points detected; " + found.note)

    shorts = [o for o, _ in found if 2 <= o.period < n]
    if shorts:
        worst = min(shorts, key=lambda o: (o.period, abs(o.point)))
        b4 = AxiomCheck("b4", False, float(len(shorts)),
                        note=f"minimal period {worst.period} found; " + found.note,
                        witness=(worst.point.real, worst.point.imag))
    else:
        b4 = AxiomCheck("b4", True, 0.0, note=found.note)

    return PlugReport(
        family="b", checks=(b1, b2, b3, b4),
        t_min=min(T for _, T in found) if found else None,
        volume=plug.volume(),
        search={"L": plug.L, "n": n, "eps": eps, **found.search})


def verify_a(plug: PlugSystem, eps: float, k_max: int = A3_K_MAX) -> PlugReport:
    """Check the a-family for a unit-fiber plug at volume budget eps.

    a1/a2 are structural at the return-system level and reported as
    passing by model; a3 bounds the detected orbit periods below by 1
    (exact for radial maps up to k_max, a bounded Newton search
    otherwise; `search` and the note say which); a4 compares
    pi r^2 + CAL against eps.
    """
    if abs(plug.L - 1.0) > 1e-12:
        raise PlugError("a-family checks assume the unit fiber L = 1")
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError("eps must be positive and finite")
    a1 = AxiomCheck("a1", True, 0.0,
                    note="holds by model: form is lam0 + ds near the boundary")
    a2 = AxiomCheck("a2", True, 0.0,
                    note="holds by model: suspension fibers are isotopic "
                         "to the trivial ones")
    found = orbit_periods(plug, k_max)
    if found:
        worst, t_min = min(found, key=lambda item: item[1])
        a3 = AxiomCheck("a3", t_min >= 1.0 - 1e-10, 1.0 - t_min,
                        note=found.note,
                        witness=(worst.point.real, worst.point.imag))
    else:
        t_min = None
        a3 = AxiomCheck("a3", True, 0.0, note="no orbits detected; " + found.note)
    vol = plug.volume()
    a4 = AxiomCheck("a4", vol < eps, vol - eps,
                    note=f"volume = {vol:.9g}, eps = {eps:.9g}")
    return PlugReport(
        family="a", checks=(a1, a2, a3, a4), t_min=t_min, volume=vol,
        search={"eps": eps, **found.search})


# ---------------------------------------------------------------------------
# Rescaling and rotational realization
# ---------------------------------------------------------------------------

def rescale_plug(plug: PlugSystem, factor: float) -> PlugSystem:
    """The anisotropic rescaling (z, s) -> (factor z, factor^2 s).

    Radius scales by factor, fiber by factor^2, the return time obeys
    tau_new(factor z) = factor^2 tau(z), and volume scales by factor^4.
    """
    if factor <= 0.0:
        raise ValueError("factor must be positive")
    new_map = rescale(plug.map, factor)
    return PlugSystem(plug.L * factor ** 2, new_map, action(new_map),
                      plug.sigma_min * factor ** 2, plug.tau_argmin * factor)


def _split_counts(rho: RadialFunction, size: np.ndarray) -> np.ndarray:
    """Equal parts per piece of rho at which the realized d' is best.

    On each piece d is a quintic with L d'''' = -(rho''' r + 3 rho''),
    which is linear there, so its largest size M4 sits at an end of the
    piece.  Cubic Hermite data on a step h miss d' by at most
    (sqrt 3/216) M4 h^3, while the rounding of d's values (u size / L,
    with `size` the size of L d's summands at rho's knots) puts
    3 u size / (L h) of noise into it.  L cancels where the two balance,
    at h* = (374 u size / (L M4))^(1/4), and each piece is split into the
    least power of two of parts no wider than that; a piece where d''''
    vanishes stays whole.
    """
    p = PiecewisePoly.from_radial(rho)
    h = p.hi - p.lo
    c2, c3 = p.coef[:, 2], p.coef[:, 3]
    lm4 = np.maximum(np.abs(6.0 * c3 * p.lo / h ** 3 + 6.0 * c2 / h ** 2),
                     np.abs(6.0 * c3 * p.hi / h ** 3 + (6.0 * c2 + 18.0 * c3) / h ** 2))
    with np.errstate(divide="ignore"):
        h_star = (374.0 * _U * np.maximum(size[:-1], size[1:]) / lm4) ** 0.25
    return (2.0 ** np.ceil(np.log2(np.maximum(h / h_star, 1.0)))).astype(int)


def realize_rotational(rho: RadialFunction, L: float, R: float,
                       n_knots: int | None = None) -> RotForm:
    """Closed-form rotational form whose return system is (rho, L + sigma).

    Coefficients c = r^2/2 and d = (L + sigma - rho r^2/2)/L, where
    sigma is the lam0-action of the twist with profile rho.  Then
    d' = -rho r / L exactly, the core-angle return system has time
    L + sigma and shift rho, and W L = r tau identically; the form
    is lam0 + ds wherever rho vanishes.  sigma and the refusal of
    tau <= 0 come from `make_plug`; W > 0 is decided on the way, and the
    form keeps that decision and its margin for later readers.

    The knots are rho's pieces, each split into equal parts just fine
    enough that the cubic Hermite error in d' drops to the rounding
    noise of d's values (`_split_counts`); finer knots would only add
    noise.  The flat tail [support, R] is one piece.  At rho's own knots
    rho is read from its data, not evaluated, so rho(support) is exactly
    0 and the tail exactly flat.  `n_knots`, when given, merges a uniform
    grid of that many points into this mesh, less the grid points within
    1e-6 grid steps of a mesh knot (sliver pieces whose Hermite slopes
    would be rounding noise).

    Measured on 20 011 radii against the closed forms: for bump(3.5, 0.04)
    at R = 0.05 (1 776 knots) tau and W L - r tau are off by at most
    6e-13, and the shift by 2.3e-8 beyond 2 % of R and 1.1e-6 at the
    core, where it is the ratio d'/r of two vanishing quantities; for
    bump(-4, 1) at R = 1 (7 689 knots) tau and W are within 2e-12, and
    the shift within 1.2e-10 beyond 2 % of R and 9e-8 overall.
    """
    if L <= 0.0 or R <= 0.0:
        raise PlugError("need L > 0 and R > 0")
    if rho.knots[-1] > R + 1e-12:
        raise PlugError("twist support exceeds the plug radius")
    sigma = make_plug(DiskMap(R, (RadialTwist(rho),)), L).sigma
    parts = _split_counts(rho, L + np.abs(sigma.radial_profile(rho.knots))
                          + 0.5 * np.abs(rho.values) * rho.knots ** 2)
    piece = np.repeat(np.arange(parts.size), parts)
    step = np.arange(piece.size) - np.repeat(np.cumsum(parts) - parts, parts)
    lo, hi = rho.knots[:-1][piece], rho.knots[1:][piece]
    knots = np.union1d(lo + (hi - lo) * (step / parts[piece]), [0.0, rho.knots[-1], R])
    if n_knots is not None:
        grid = np.linspace(0.0, R, n_knots)
        j = np.clip(np.searchsorted(knots, grid), 1, knots.size - 1)
        near = np.minimum(np.abs(grid - knots[j - 1]), np.abs(grid - knots[j]))
        knots = np.union1d(grid[near > 1e-6 * R / (n_knots - 1)], knots)
    c = RadialFunction(knots, 0.5 * knots ** 2, knots)
    rho_k = rho(knots)
    rho_k[np.searchsorted(knots, rho.knots)] = rho.values
    d_vals = (L + sigma.radial_profile(knots) - 0.5 * rho_k * knots ** 2) / L
    d_ders = -rho_k * knots / L
    d = RadialFunction(knots, d_vals, d_ders)
    form = RotForm(R, L, c, d)
    contact_check(form)
    return form
