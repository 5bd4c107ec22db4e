"""Output checks computed apart from reebplug.

Nothing here imports reebplug.  Hermite data from the program's JSON
artifacts is evaluated by this module's own basis-function code, radial
twists are checked against closed forms, and Hamiltonian flows are
integrated with this module's own `solve_ivp` call.  Every check returns
a list of failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Hermite data, evaluated independently
# ---------------------------------------------------------------------------

class Hermite:
    """Piecewise cubic Hermite data {knots, values, derivs} from JSON, for r >= 0."""

    def __init__(self, data: dict):
        self.x = np.asarray(data["knots"], float)
        self.v = np.asarray(data["values"], float)
        self.d = np.asarray(data["derivs"], float)

    def __call__(self, r, nu: int = 0):
        """nu-th derivative at r >= 0; constant extension past the last knot."""
        r = np.atleast_1d(np.asarray(r, float))
        x, v, d = self.x, self.v, self.d
        i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, x.size - 2)
        h = x[i + 1] - x[i]
        t = np.clip((r - x[i]) / h, 0.0, 1.0)
        if nu == 0:
            b = (2 * t ** 3 - 3 * t ** 2 + 1, t ** 3 - 2 * t ** 2 + t,
                 -2 * t ** 3 + 3 * t ** 2, t ** 3 - t ** 2)
            scale = 1.0
        elif nu == 1:
            b = (6 * t ** 2 - 6 * t, 3 * t ** 2 - 4 * t + 1,
                 -6 * t ** 2 + 6 * t, 3 * t ** 2 - 2 * t)
            scale = 1.0 / h
        else:
            b = (12 * t - 6, 6 * t - 4, -12 * t + 6, 6 * t - 2)
            scale = 1.0 / h ** 2
        out = (b[0] * v[i] + b[1] * h * d[i] + b[2] * v[i + 1]
               + b[3] * h * d[i + 1]) * scale
        if nu > 0:
            out = np.where(r > x[-1], 0.0, out)
        return out


def gauss_split(fn, breaks, a: float, b: float, npts: int = 8) -> float:
    """Gauss-Legendre of fn over [a, b], split at the interior breaks."""
    breaks = np.asarray(breaks, float)
    edges = np.union1d([a, b], breaks[(breaks > a) & (breaks < b)])
    g, w = np.polynomial.legendre.leggauss(npts)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * g[None, :]).ravel()
    return float(np.sum((half[:, None] * w[None, :]).ravel() * fn(nodes)))


def _close(a: float, b: float, tol: float) -> bool:
    return bool(np.isfinite(a) and np.isfinite(b) and abs(a - b) <= tol)


def check_same_artifacts(first: dict[str, str], now: dict[str, str]) -> list[str]:
    """A pass wrote byte-identical artifacts (by sha256) to the first pass."""
    changed = sorted(k for k in set(first) | set(now) if first.get(k) != now.get(k))
    return [f"artifacts differ between passes: {', '.join(changed)}"] if changed else []


# ---------------------------------------------------------------------------
# Binding profile
# ---------------------------------------------------------------------------

def check_profile_curve(curve: dict, n_grid: int = 40001) -> list[str]:
    """B1-B5, positivity and the tau bounds on this module's own grid."""
    p = curve["params"]
    s, delta, rho, r0, r1 = p["s"], p["delta"], p["rho"], p["r0"], p["r1"]
    f, g = Hermite(curve["f"]), Hermite(curve["g"])
    rr = np.union1d(np.linspace(0.0, rho, n_grid), f.x[f.x <= rho])
    fv, gv, fp, gp = f(rr), g(rr), f(rr, 1), g(rr, 1)
    fpp, gpp = f(rr, 2), g(rr, 2)
    bad = []
    if np.any(fv < -1e-12) or np.any(gv < -1e-12):
        bad.append("positivity: f or g negative")
    outer = rr >= r1
    dev = max(np.max(np.abs(fv[outer] - 1.0)),
              np.max(np.abs(gv[outer] - s * (1.0 - rr[outer] ** 2))))
    if dev > 1e-9:
        bad.append(f"B1: arc deviation {dev:.3e}")
    inner = rr > 0.0
    if np.max(gp[inner]) >= 0.0:
        bad.append(f"B2: g' = {np.max(gp[inner]):.3e} >= 0")
    line = rr <= r0
    line_dev = np.max(np.abs(fv[line] + gv[line] - (1.0 + delta)))
    arc = rr <= 0.25 * r0
    arc_dev = max(np.max(np.abs(fv[arc] - rr[arc] ** 2)),
                  np.max(np.abs(gv[arc] - (1.0 + delta - rr[arc] ** 2))))
    drop = float(g(r0)[0] - g(rho)[0])
    if line_dev > 1e-9 or arc_dev > 1e-9 or drop > 2.0 * delta:
        bad.append(f"B3: line {line_dev:.3e}, arc {arc_dev:.3e}, drop {drop:.6g}")
    turn = gp[inner] * fv[inner] - fp[inner] * gv[inner]
    if np.max(turn) >= 0.0:
        bad.append(f"B4: arg(gamma) not decreasing ({np.max(turn):.3e})")
    # B5: g''f' - f''g' <= 1e-12 (f'^2 + g'^2).  Where gamma' keeps its
    # direction the two products cancel exactly in the program's form but
    # only to rounding here, hence the slack relative to their size.
    num = gpp * fp - fpp * gp
    slack = 1e-12 * (fp ** 2 + gp ** 2) + 1e-10 * (np.abs(gpp * fp) + np.abs(fpp * gp))
    if np.max(num - slack) > 0.0:
        i = int(np.argmax(num - slack))
        bad.append(f"B5: arg(gamma') increases at r = {rr[i]:.6g} "
                   f"(g''f' - f''g' = {num[i]:.3e})")
    # tau = (g'f - f'g) / ((1 + delta) g'), limit at 0 from the exact arc
    tau = np.where(inner, (gp * fv - fp * gv) / ((1.0 + delta) * np.where(inner, gp, 1.0)),
                   -f(0.0, 2)[0] * gv[0] / ((1.0 + delta) * g(0.0, 2)[0]))
    lo = 1.0 / (1.0 + delta)
    if tau.min() < lo - 1e-10 or tau.max() > 1.0 + 1e-10:
        bad.append(f"tau: range [{tau.min():.12g}, {tau.max():.12g}] "
                   f"outside [1/(1+delta), 1] = [{lo:.12g}, 1]")
    if not _close(tau[-1], lo, 1e-12):
        bad.append(f"tau(rho) = {tau[-1]!r}, expected 1/(1+delta) = {lo!r}")
    return bad


def check_profile_report(report: dict, delta: float) -> list[str]:
    bad = []
    if report["profile"]["passed"] is not True or report["tau"] is None \
            or report["tau"]["passed"] is not True:
        bad.append("profile report does not pass")
        return bad
    lo = 1.0 / (1.0 + delta)
    t = report["tau"]
    if t["min_value"] < lo - 1e-10 or t["max_value"] > 1.0 + 1e-10:
        bad.append(f"reported tau range [{t['min_value']}, {t['max_value']}] "
                   f"outside [{lo}, 1]")
    return bad


def check_binding_form(form: dict, curve: dict) -> list[str]:
    """c = kappa f, d = kappa g, and the core orbit has period 1."""
    delta = curve["params"]["delta"]
    kappa = 1.0 / (TWO_PI * (1.0 + delta))
    bad = []
    for name, src in (("c", "f"), ("d", "g")):
        for key in ("values", "derivs"):
            got = np.asarray(form[name][key], float)
            want = kappa * np.asarray(curve[src][key], float)
            if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-15:
                bad.append(f"form {name}.{key} is not kappa * {src}.{key}")
    core = form["core_period"] * Hermite(form["d"])(0.0)[0]
    if not _close(core, 1.0, 1e-12):
        bad.append(f"core period {core!r}, expected 1")
    return bad


def check_orbit_records(records: list[dict], form: dict, t_max: float,
                        q_max: int, core_T: float) -> list[str]:
    """Each record meets its (p, q) resonance and its period formula; the
    core orbit has period core_T."""
    c, d = Hermite(form["c"]), Hermite(form["d"])
    P = form["core_period"]
    bad = []
    cores = [r for r in records if r["kind"] == "core"]
    if len(cores) != 1 or not _close(cores[0]["T"], core_T, 1e-9):
        bad.append(f"core orbit missing or period off (expected {core_T!r})")
    for rec in records:
        if rec["T"] > t_max + 1e-12 or rec["q"] > q_max:
            bad.append(f"record beyond the scan limits: {rec}")
        if rec["kind"] == "core":
            continue
        r, p, q = rec["r"], rec["p"], rec["q"]
        cp, dp = c(r, 1)[0], d(r, 1)[0]
        W = cp * d(r)[0] - c(r)[0] * dp
        T = q * P * W / abs(cp) if q != 0 else abs(p) * TWO_PI * W / abs(dp)
        # resonance: over the period the Reeb flow turns the disk angle by
        # T (-d')/W = 2 pi p and the core angle by T c'/W = q P
        miss = max(abs(T * -dp / W - TWO_PI * p), abs(T * cp / W - q * P))
        if miss > 1e-8 * max(1.0, T):
            bad.append(f"({p},{q}) record at r = {r!r} misses its resonance "
                       f"by {miss:.3e} in angle")
        if not _close(rec["T"], T, 1e-9 * max(1.0, T)):
            bad.append(f"({p},{q}) record at r = {r!r}: period {rec['T']!r}, "
                       f"formula gives {T!r}")
    periods = [rec["T"] for rec in records]
    if periods != sorted(periods):
        bad.append("records are not sorted by period")
    return bad


def form_volume(form: dict) -> float:
    """2 pi P int_0^R W dr on this module's own quadrature."""
    c, d = Hermite(form["c"]), Hermite(form["d"])

    def W(r):
        return c(r, 1) * d(r) - c(r) * d(r, 1)

    return TWO_PI * form["core_period"] * gauss_split(W, np.union1d(c.x, d.x), 0.0, form["R"])


def check_form_volume(vol: dict, form: dict, expected: float | None = None) -> list[str]:
    """Closed-form and section legs agree, and match an own integral of W."""
    bad = []
    closed, section = vol["closed_form"], vol["section"]
    if not _close(closed, section, 1e-9 * abs(closed)):
        bad.append(f"volume legs disagree: closed {closed!r}, section {section!r}")
    own = form_volume(form)
    if not _close(closed, own, 1e-10 * abs(own)):
        bad.append(f"closed-form volume {closed!r}, own integral {own!r}")
    if expected is not None and not _close(closed, expected, 1e-9):
        bad.append(f"volume {closed!r}, closed form expects {expected!r}")
    return bad


# ---------------------------------------------------------------------------
# Radial twists: rho(r) = A (1 - (r/s)^2)^3 on [0, s], zero beyond
# ---------------------------------------------------------------------------

class CubicBump:
    """The cubic bump twist and its lam0-action in closed form."""

    def __init__(self, A: float, s: float):
        self.A, self.s = A, s

    def rho(self, r):
        w = np.minimum((np.asarray(r, float) / self.s) ** 2, 1.0)
        return self.A * (1.0 - w) ** 3

    def sigma(self, r):
        """sigma' = r^2 rho'/2 with sigma = 0 for r >= s."""
        w = np.minimum((np.asarray(r, float) / self.s) ** 2, 1.0)
        F = w ** 2 / 2.0 - 2.0 * w ** 3 / 3.0 + w ** 4 / 4.0
        return 1.5 * self.A * self.s ** 2 * (1.0 / 12.0 - F)

    def calabi(self) -> float:
        return math.pi * self.A * self.s ** 4 / 20.0

    def sigma_min(self) -> float:
        return min(0.0, self.A * self.s ** 2 / 8.0)

    def circles(self, k_max: int):
        """(k, m, r*) with k rho(r*) = 2 pi m, minimal period k, r* in (0, s)."""
        out = []
        for k in range(1, k_max + 1):
            m = 1
            while TWO_PI * m / k < abs(self.A):
                if math.gcd(m, k) == 1:
                    mm = int(math.copysign(m, self.A))
                    ratio = TWO_PI * mm / (k * self.A)
                    out.append((k, mm, self.s * math.sqrt(1.0 - ratio ** (1.0 / 3.0))))
                m += 1
        return out


def check_twist_orbits(rows: list[tuple[float, int, float]], tw: CubicBump,
                       L: float, k_max: int, r_tol: float = 1e-7,
                       t_tol: float = 1e-9) -> list[str]:
    """rows are (r, k, T).  Every orbit sits on a resonance circle with period
    k L + k sigma(r*), and every circle with minimal period <= k_max is found."""
    bad = []
    for r, k, T in rows:
        if k < 1 or k > k_max:
            bad.append(f"orbit of period {k} outside 1..{k_max}")
            continue
        if r <= 1e-9:
            if k != 1:
                bad.append(f"origin reported with period {k}")
            r_star = 0.0
        else:
            m = round(k * float(tw.rho(r)) / TWO_PI)
            if m == 0:
                # numerically the identity: at or beyond the support
                if k != 1 or r * abs(k * float(tw.rho(r))) > 1e-9:
                    bad.append(f"period-{k} orbit at r = {r!r} is on no resonance circle")
                    continue
                r_star = r
            else:
                ratio = TWO_PI * m / (k * tw.A)
                if math.gcd(abs(m), k) != 1 or not 0.0 < ratio < 1.0:
                    bad.append(f"period-{k} orbit at r = {r!r} is not minimal (m = {m})")
                    continue
                r_star = tw.s * math.sqrt(1.0 - ratio ** (1.0 / 3.0))
                if abs(r - r_star) > r_tol:
                    bad.append(f"period-{k} orbit at r = {r!r}, circle k rho = "
                               f"2 pi {m} is at r* = {r_star!r}")
                    continue
        want = k * L + k * float(tw.sigma(r_star))
        if not _close(T, want, t_tol):
            bad.append(f"period-{k} orbit at r = {r!r}: T = {T!r}, "
                       f"k L + k sigma(r*) = {want!r}")
    for k, m, r_star in tw.circles(k_max):
        if not any(kk == k and abs(r - r_star) <= r_tol for r, kk, _ in rows):
            bad.append(f"circle k = {k}, m = {m} at r* = {r_star!r} not found")
    return bad


def check_realized_form(form: dict, tw: CubicBump, L: float, R: float) -> list[str]:
    """c = r^2/2 and d = (L + sigma - rho r^2/2)/L at every knot."""
    x = np.asarray(form["c"]["knots"], float)
    bad = []
    if np.max(np.abs(np.asarray(form["c"]["values"]) - 0.5 * x ** 2)) > 1e-15:
        bad.append("realized c is not r^2/2")
    dk = np.asarray(form["d"]["knots"], float)
    sig = L * np.asarray(form["d"]["values"], float) - L + tw.rho(dk) * dk ** 2 / 2.0
    err = float(np.max(np.abs(sig - tw.sigma(dk))))
    if err > 1e-9:
        bad.append(f"realized form encodes sigma off its closed form by {err:.3e}")
    if not (_close(form["R"], R, 0.0) and _close(form["core_period"], L, 0.0)):
        bad.append("realized form has the wrong radius or fiber length")
    return bad


def certificate_ratio(n_circles: int, eps: str) -> Fraction:
    """(1 - eps)^2 / (eps (3 ell + 1)) with eps read as the decimal it is."""
    e = Fraction(eps)
    return (1 - e) ** 2 / (e * (3 * n_circles + 1))


def check_certificate(cert: dict, n_circles: int, eps: str) -> list[str]:
    e = Fraction(eps)
    want = {"ratio": certificate_ratio(n_circles, eps),
            "total_bound": e * (3 * n_circles + 1), "t_min_bound": 1 - e}
    bad = []
    for key, value in want.items():
        if Fraction(cert[key]["exact"]) != value:
            bad.append(f"certificate {key} = {cert[key]['exact']}, expected {value}")
    if not all(step["holds"] for step in cert["trace"]):
        bad.append("certificate trace has a failing step")
    return bad


def check_sweep(sweep: dict, n_circles: int, eps_list: list[str]) -> list[str]:
    bad = []
    got = [Fraction(e["ratio_exact"]) for e in sweep["entries"]]
    want = [certificate_ratio(n_circles, e) for e in eps_list]
    if got != want:
        bad.append(f"sweep ratios {got} differ from {want}")
    if sweep["monotone_increasing"] is not True or any(b <= a for a, b in zip(got, got[1:])):
        bad.append("sweep ratios are not strictly increasing")
    return bad


def check_verdicts(report: dict, expected: dict[str, bool]) -> list[str]:
    checks = {c["name"]: c for c in report["checks"]}
    return [f"{name}: passed = {checks[name]['passed']}, expected {want}"
            for name, want in expected.items() if checks[name]["passed"] is not want]


def check_origin_witness(report: dict, name: str) -> list[str]:
    w = {c["name"]: c for c in report["checks"]}[name]["witness"]
    if w is None or math.hypot(*w) > 1e-6:
        return [f"{name} witness {w} is not the origin"]
    return []


# ---------------------------------------------------------------------------
# Hamiltonian steps: H = sum coef (1 - r^2/a^2)^p T_m(z/a)
# ---------------------------------------------------------------------------

def ham_value_grad(terms: list[dict], x, y):
    """H, H_x, H_y of the bump-harmonic sum at real arrays x, y."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    H = np.zeros_like(x)
    Hx = np.zeros_like(x)
    Hy = np.zeros_like(x)
    for t in terms:
        a, p, m = t["support"], t["power"], t["m"]
        s = np.clip(1.0 - (x * x + y * y) / a ** 2, 0.0, None)
        B = s ** p
        Bx = -2.0 * p * x * s ** (p - 1) / a ** 2
        By = -2.0 * p * y * s ** (p - 1) / a ** 2
        w = (x + 1j * y) / a
        dw = m * w ** (m - 1) / a if m >= 1 else 0.0 * w
        if t["trig"] == "cos":
            T, Tx, Ty = np.real(w ** m), np.real(dw), -np.imag(dw)
        else:
            T, Tx, Ty = np.imag(w ** m), np.imag(dw), np.real(dw)
        H += t["coef"] * B * T
        Hx += t["coef"] * (Bx * T + B * Tx)
        Hy += t["coef"] * (By * T + B * Ty)
    return H, Hx, Hy


def flow_with_action(terms: list[dict], time: float, z: complex,
                     rtol: float = 1e-12) -> tuple[complex, float]:
    """phi_t(z) and sigma(z) = int_0^t (lam0(X_H) + H)(phi_s z) ds.

    X_H = (H_y, -H_x) and lam0 = (x dy - y dx)/2, so the integrand is
    H - (x H_x + y H_y)/2.
    """
    def rhs(_, u):
        H, Hx, Hy = ham_value_grad(terms, u[0], u[1])
        return [Hy, -Hx, H - 0.5 * (u[0] * Hx + u[1] * Hy)]

    sol = solve_ivp(rhs, (0.0, time), [z.real, z.imag, 0.0], method="DOP853",
                    rtol=rtol, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference flow failed: {sol.message}")
    x, y, act = sol.y[:, -1]
    return complex(x, y), float(act)


def bump_calabi(term: dict, time: float) -> float:
    """CAL(phi_H^t) = 2 t int H omega: 2 t coef pi a^2/(p+1) for m = 0, else 0."""
    if term["m"] != 0:
        return 0.0
    return 2.0 * time * term["coef"] * math.pi * term["support"] ** 2 / (term["power"] + 1)


class Smoothstep:
    """rho(r) = A (1 - 3u^2 + 2u^3), u = r/s: one Hermite piece, exact action."""

    def __init__(self, A: float, s: float):
        self.A, self.s = A, s

    def rho(self, r):
        u = np.minimum(np.abs(np.asarray(r, float)) / self.s, 1.0)
        return self.A * (1.0 - 3.0 * u ** 2 + 2.0 * u ** 3)

    def sigma(self, r):
        u = np.minimum(np.abs(np.asarray(r, float)) / self.s, 1.0)
        return 3.0 * self.A * self.s ** 2 * (1.0 / 20.0 + u ** 5 / 5.0 - u ** 4 / 4.0)

    def calabi(self) -> float:
        return math.pi * self.A * self.s ** 4 / 14.0


def check_values(label: str, got, want, tol: float) -> list[str]:
    got = np.atleast_1d(np.asarray(got, float))
    want = np.atleast_1d(np.asarray(want, float))
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    err = np.abs(got - want)
    if not np.all(np.isfinite(got)) or np.max(err) > tol:
        i = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
        return [f"{label}: {float(got[i])!r} vs independent {float(want[i])!r} "
                f"(off by {err[i]:.3e}, tolerance {tol:.1e})"]
    return []


def check_closed_orbits(orbits, terms: list[dict], time: float,
                        tol: float = 1e-8) -> list[str]:
    """Every returned orbit closes, and its action sum matches, under the own flow.

    orbits are (point, period, action_sum) triples.
    """
    bad = []
    for z, k, act in orbits:
        w, total = complex(z), 0.0
        for _ in range(k):
            w, a = flow_with_action(terms, time, w)
            total += a
        if abs(w - z) > tol:
            bad.append(f"period-{k} orbit at {z!r} does not close: "
                       f"|phi^k(z) - z| = {abs(w - z):.3e}")
        elif abs(total - act) > tol:
            bad.append(f"period-{k} orbit at {z!r}: action sum {act!r}, "
                       f"own flow {total!r}")
    return bad
