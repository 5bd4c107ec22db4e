"""Shared numerical kernels: radial Hermite functions, the piecewise-polynomial
kernel that evaluates, integrates and decides their signs, the resonance
solver behind both orbit searches (rotational forms, radial disk maps),
quadrature, ODE flows, root finding.

A RadialFunction is even Hermite data (one row of knots, values and
slopes on r >= 0, flat outside the knots) in front of one PiecewisePoly:
the cubics those data define, built once on first use.  Its one
evaluator reads the value and both derivatives from those pieces, and
the decided checks read the very same pieces.

Everything here is deterministic: fixed quadrature ladders, fixed step
acceptance rules, no randomness.  Adaptive quadrature, the ODE stepper
and bracketed root finding are scipy's (QUADPACK, DOP853, Brent) behind
small result types that carry error estimates and explicit convergence
flags; each of the three routines imports scipy on its first call, so
the radial and decided-sign paths (profiles, rotori, twist plugs,
certificates) never load it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np


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


_QUAD_LIMIT = 200          # subdivisions of adaptive 1D quadrature
_ODE_TOL = 1e-12           # per-step relative and absolute tolerance of ode_flow
_ODE_MAX_STEPS = 200_000   # an ODE flow that needs more steps raises
DEFAULT_QUAD = QuadratureSpec()


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

@dataclass(frozen=True)
class RadialFunction:
    """Even piecewise cubic Hermite function of the radius r >= 0, C1 on its knots.

    Stores (value, derivative) pairs at strictly increasing knots >= 0, its
    serialized form; each piece is the unique cubic matching the endpoint
    data, so a cubic polynomial sampled this way is reproduced exactly.
    The pieces are the PiecewisePoly these data define, built once on
    first use and shared with `PiecewisePoly.from_radial`; one evaluator
    serves the value and both derivatives.  Outside the knot range, below
    the first knot as past the last, the function is extended with the
    boundary value and zero slope (profiles are built so that the
    extension is C1 where it is actually used).  Every radial quantity of
    the construction is smooth on the disk, hence even in r: `parity` is
    always "even", and a first knot at 0 needs f'(0) = 0.
    """

    knots: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    parity: str = "even"

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        derivs = np.asarray(self.derivs, dtype=float)
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("need at least two knots")
        if values.shape != knots.shape or derivs.shape != knots.shape:
            raise ValueError("knots, values, derivs must have equal shape")
        if not all(np.all(np.isfinite(a)) for a in (knots, values, derivs)):
            raise ValueError("non-finite data")
        if knots[0] < 0.0 or np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be >= 0 and strictly increasing")
        if self.parity != "even":
            raise ValueError(f"parity must be 'even', not {self.parity!r}")
        if knots[0] == 0.0 and abs(derivs[0]) > 1e-12:
            raise ValueError("even parity requires f'(0) = 0")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivs", derivs)

    # -- construction -------------------------------------------------

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
        return cls(r, vals, ders)

    @functools.cached_property
    def _pieces(self) -> "PiecewisePoly":
        """The Hermite cubics of the knot data, read-only."""
        p = PiecewisePoly.from_hermite(self.knots, [(self.values, self.derivs)])
        for a in (p.lo, p.hi, p.coef, p.err):
            a.setflags(write=False)
        return p

    # -- evaluation ---------------------------------------------------

    def _eval(self, x, order: int):
        """The order-th derivative (0, 1 or 2; the second one-sided, as a
        right limit) at x, from the pieces, flat outside the knots."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        p = self._pieces
        lo, hi = self.knots[0], self.knots[-1]
        xc = np.clip(x, lo, hi)
        idx = np.clip(np.searchsorted(self.knots, xc, side="right") - 1, 0, self.knots.size - 2)
        start = p.lo[idx]
        h = p.hi[idx] - start
        t = (xc - start) / h
        c = p.coef[idx]
        below = above = 0.0
        if order == 0:
            out = c[:, 0] + c[:, 1] * t + c[:, 2] * t * t + c[:, 3] * t ** 3
            below, above = self.values[0], self.values[-1]
        elif order == 1:
            out = (c[:, 1] + 2.0 * c[:, 2] * t + 3.0 * c[:, 3] * t * t) / h
        else:
            out = (2.0 * c[:, 2] + 6.0 * c[:, 3] * t) / h ** 2
        out = np.where(x < lo, below, np.where(x > hi, above, out))
        return float(out[0]) if scalar else out

    def __call__(self, x):
        return self._eval(x, 0)

    def derivative(self, x):
        return self._eval(x, 1)

    def second_derivative(self, x):
        """One-sided (right-limit) second derivative; pieces are linear in it."""
        return self._eval(x, 2)

    # -- calculus -----------------------------------------------------

    def integral(self, a: float, b: float) -> float:
        """Exact integral over [a, b] of the function as evaluated: the
        pieces and the flat extension on both sides."""
        if b < a:
            return -self.integral(b, a)
        lo, hi = self.knots[0], self.knots[-1]
        total = 0.0
        if a < lo:
            total += self.values[0] * (min(b, lo) - a)
        if b > hi:
            total += self.values[-1] * (b - max(a, hi))
        aa, bb = max(a, lo), min(b, hi)
        if bb > aa:
            total += self._pieces.restrict(aa, bb).integral()
        return total

    def scaled(self, factor: float, arg_scale: float = 1.0) -> "RadialFunction":
        """factor * f(r / arg_scale) as a new RadialFunction."""
        return RadialFunction(self.knots * arg_scale, self.values * factor,
                              self.derivs * (factor / arg_scale))

    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        if not isinstance(other, RadialFunction):
            return NotImplemented
        knots = np.union1d(self.knots, other.knots)
        return RadialFunction(knots, self(knots) + other(knots),
                              self.derivative(knots) + other.derivative(knots))

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {"knots": self.knots.tolist(), "values": self.values.tolist(),
                "derivs": self.derivs.tolist(), "parity": self.parity}

    @classmethod
    def from_dict(cls, d: dict) -> "RadialFunction":
        """The function of `to_dict`; any "parity" but "even", or none, is refused."""
        return cls(np.array(d["knots"], float), np.array(d["values"], float),
                   np.array(d["derivs"], float), d.get("parity"))


# ---------------------------------------------------------------------------
# Piecewise polynomials with running error bounds
# ---------------------------------------------------------------------------

_U = 2.0 ** -53            # unit roundoff of binary64
_SAFE = 1.0 + 2.0 ** -20   # covers the rounding of the error bounds themselves
_MAX_DEPTH = 40            # halvings before an undecided piece fails
_ROOT_SLACK = 1e-12        # closed-form roots this far outside [0, 1] snap to the knot
_ROOT_STEPS = 100          # Newton or bisection steps that locate one cubic root
_ZERO_REL = 1e-12          # a resonance within this share of its scale of zero vanishes


def _gamma(n: int) -> float:
    return n * _U / (1.0 - n * _U)


def _add(a, ea, b, eb):
    c = a + b
    return c, ea + eb + _U * np.abs(c)


def _mul(a, ea, b, eb):
    c = a * b
    return c, np.abs(a) * eb + np.abs(b) * ea + ea * eb + _U * np.abs(c)


def _div(a, ea, b, eb):
    c = a / b
    return c, (ea + np.abs(c) * eb) / (np.abs(b) - eb) + _U * np.abs(c)


def _two_sum(a, b):
    """a + b and the exact size of its rounding error (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, np.abs((a - (s - bb)) + (b - bb))


def _pad(c: np.ndarray, n: int) -> np.ndarray:
    """c with zero columns appended up to n (unchanged if it has n or more)."""
    if c.shape[1] >= n:
        return c
    out = np.zeros((c.shape[0], n))
    out[:, :c.shape[1]] = c
    return out


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products of ascending coefficient arrays."""
    nb = b.shape[1]
    out = np.zeros((a.shape[0], a.shape[1] + nb - 1))
    for i in range(a.shape[1]):
        out[:, i:i + nb] += a[:, i:i + 1] * b
    return out


def _row_sums(c: np.ndarray) -> np.ndarray:
    """c.sum(1), rows under 8 long added column by column from 0: the order
    numpy uses on C-ordered rows that short, several times faster."""
    return c.sum(1) if c.shape[1] >= 8 else functools.reduce(np.add, c.T, 0.0)


def _horner(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row i of c evaluated at every entry of row i of t."""
    acc = np.repeat(c[:, -1:], t.shape[1], axis=1)
    for k in range(c.shape[1] - 2, -1, -1):
        acc = acc * t + c[:, k:k + 1]
    return acc


@functools.lru_cache(maxsize=None)
def _bernstein_matrix(n: int) -> np.ndarray:
    """w[i, j] = C(j, i) / C(n, i): power coefficient i to Bernstein coefficient j."""
    return np.array([[math.comb(j, i) / math.comb(n, i) if i <= j else 0.0
                      for j in range(n + 1)] for i in range(n + 1)])


def _bernstein(c: np.ndarray, e: np.ndarray):
    """Bernstein coefficients on [0, 1] of ascending power coefficients, with bounds."""
    n = c.shape[1] - 1
    w = _bernstein_matrix(n)
    return c @ w, e @ w + _gamma(n + 2) * (np.abs(c) @ w)


@functools.lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    return np.array([[math.comb(m, k) for m in range(n + 1)] for k in range(n + 1)], dtype=float)


def _halves(b: np.ndarray, e: np.ndarray):
    """de Casteljau at t = 1/2: the Bernstein coefficients of both halves, with bounds."""
    left, right, eleft, eright = [b[:, 0]], [b[:, -1]], [e[:, 0]], [e[:, -1]]
    for _ in range(b.shape[1] - 1):
        b = 0.5 * (b[:, :-1] + b[:, 1:])
        e = 0.5 * (e[:, :-1] + e[:, 1:]) + _U * np.abs(b)
        left.append(b[:, 0])
        right.append(b[:, -1])
        eleft.append(e[:, 0])
        eright.append(e[:, -1])
    return (np.stack(left, 1), np.stack(eleft, 1),
            np.stack(right[::-1], 1), np.stack(eright[::-1], 1))


def _real_roots(c: np.ndarray) -> np.ndarray:
    """Real parts of the roots of each row (ascending coefficients), NaN-padded.

    Rows are grouped by degree and solved as batched companion eigenvalues.
    """
    m, n1 = c.shape
    out = np.full((m, max(n1 - 1, 1)), np.nan)
    # leading coefficients at rounding level only add roots far outside
    # [0, 1], but spoil the accuracy of the others
    nz = np.abs(c) > 1e-10 * np.abs(c).max(axis=1, keepdims=True)
    deg = np.where(nz.any(axis=1), n1 - 1 - np.argmax(nz[:, ::-1], axis=1), 0)
    for d in np.unique(deg):
        if d < 1:
            continue
        rows = deg == d
        mon = c[rows, :d] / c[rows, d:d + 1]
        comp = np.zeros((mon.shape[0], d, d))
        comp[:, 1:, :-1] = np.eye(d - 1)
        comp[:, :, -1] = -mon
        out[rows, :d] = np.linalg.eigvals(comp).real
    return out


def _quadratic_roots(c: np.ndarray) -> np.ndarray:
    """Real roots of c0 + c1 t + c2 t^2 per row, in closed form, NaN-padded (m, 2).

    A discriminant within its own rounding of zero counts as a double root;
    rows that vanish identically have none.
    """
    c0, c1, c2 = c[:, 0], c[:, 1], c[:, 2]
    disc = c1 * c1 - 4.0 * c2 * c0
    slack = 8.0 * _U * (c1 * c1 + 4.0 * np.abs(c2 * c0))
    real = disc >= -slack
    sq = np.sqrt(np.where(real, np.maximum(disc, 0.0), 0.0))
    q = -0.5 * (c1 + np.where(c1 < 0.0, -sq, sq))
    with np.errstate(divide="ignore", invalid="ignore"):
        quad = np.stack([q / c2, c0 / q], axis=1)
        lin = -c0 / c1
    out = np.where((c2 != 0.0)[:, None], np.where(real[:, None], quad, np.nan),
                   np.stack([lin, np.full_like(lin, np.nan)], axis=1))
    return np.where(np.isfinite(out), out, np.nan)


def _cubic_roots(c: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Roots in [0, 1] of each row's cubic c (ascending, bounds e), NaN-padded (m, 7).

    The roots of the derivative split [0, 1] into monotone parts.  The
    four part ends are roots where the value is within its bound of
    zero; each part whose end values have opposite signs holds one more,
    found from the root of its chord by Newton steps kept inside a shrinking
    bracket (a step that leaves it is replaced by bisection).
    """
    m = c.shape[0]
    crit = _quadratic_roots(c[:, 1:] * np.array([1.0, 2.0, 3.0]))
    crit = np.where((crit > 0.0) & (crit < 1.0), crit, 1.0)
    ends = np.sort(np.column_stack([np.zeros(m), crit, np.ones(m)]), axis=1)
    f = _horner(c, ends)
    zero = np.abs(f) <= _horner(e, ends) + _gamma(8) * _horner(np.abs(c), ends)
    out = np.full((m, 7), np.nan)
    out[:, :4] = np.where(zero, ends, np.nan)
    row, part = np.nonzero(~zero[:, :-1] & ~zero[:, 1:] & (f[:, :-1] * f[:, 1:] < 0.0))
    a, b = ends[row, part], ends[row, part + 1]
    fa, fb = f[row, part], f[row, part + 1]
    rising = fa < 0.0
    cr, dc = c[row], c[row, 1:] * np.array([1.0, 2.0, 3.0])
    t = a - fa * (b - a) / (fb - fa)     # the chord's root starts the steps
    done = np.zeros(row.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_STEPS):
            if done.all():
                break
            ft = _horner(cr, t[:, None])[:, 0]
            above = (ft < 0.0) == rising       # the root lies above t
            a, b = np.where(above, t, a), np.where(above, b, t)
            step = t - ft / _horner(dc, t[:, None])[:, 0]
            nxt = np.where((step > a) & (step < b), step, 0.5 * (a + b))
            stop = (ft == 0.0) | (nxt == t) | (nxt <= a) | (nxt >= b)
            t = np.where(done | (ft == 0.0), t, nxt)
            done |= stop
    out[row, 4 + part] = t
    return out


def _best(p, t, vals, piece):
    """The smallest of vals (rows: pieces `piece` of p, columns: local
    points t) and its radius, NaN counted as inf; the first best piece
    wins a tie."""
    vals = np.where(np.isnan(vals), np.inf, vals)
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    k = piece[i]
    return vals[i, j], p.lo[k] + t[i, j] * (p.hi[k] - p.lo[k])


class PiecewisePoly:
    """Polynomials on pieces of the radius, with rigorous error bounds.

    Piece i covers [lo[i], hi[i]] and is sum_k coef[i, k] t^k in the
    local variable t = (r - lo[i]) / (hi[i] - lo[i]).  err[i, k] bounds
    the distance of coef[i, k] from the coefficient of the exact
    function: the one the float input data define, read as exact reals
    (the Hermite cubics of a RadialFunction's raw knots, values and
    derivatives).  Every operation adds its propagated error plus
    u |result| for its own rounding (running error analysis; Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3), so a
    coefficient computed from exact zeros stays an exact zero.

    Pieces built from one RadialFunction are contiguous; `concat` joins
    any pieces, so several conditions can be decided in one call.
    `positive` and `failures` decide signs from Bernstein coefficients
    with subdivision (Farouki and Rajan 1987); `extreme` and `roots`
    locate values in floating point.
    """

    __slots__ = ("lo", "hi", "coef", "err")
    __array_ufunc__ = None   # numpy scalars defer to the reflected operators

    def __init__(self, lo, hi, coef, err):
        self.lo = lo
        self.hi = hi
        self.coef = coef
        self.err = err

    # -- construction -------------------------------------------------

    @classmethod
    def from_radial(cls, *fns: RadialFunction, upto: float | None = None) -> "PiecewisePoly":
        """The sum of RadialFunctions as Hermite cubics built from their raw data.

        Functions on the first one's knots are summed in their data (see
        `from_hermite`), so f + g keeps an exact zero where the data
        cancel; others are added as polynomials.  `upto` extends the last
        value flat beyond the last knot, as RadialFunction does.  One
        function whose knots reach `upto` gives its own read-only pieces.
        """
        x = fns[0].knots
        if len(fns) == 1 and (upto is None or x[-1] >= upto):
            return fns[0]._pieces
        same = [np.array_equal(fn.knots, x) for fn in fns]
        p = cls.from_hermite(x, [(fn.values, fn.derivs) for fn, s in zip(fns, same) if s], upto)
        for fn, s in zip(fns, same):
            if not s:
                p = p + cls.from_radial(fn, upto=upto)
        return p

    @classmethod
    def from_hermite(cls, x, terms, upto: float | None = None) -> "PiecewisePoly":
        """The Hermite cubics of one function on the knots x, in order.

        Each term is a pair (values, derivatives) of arrays shaped like x,
        and the function's Hermite data are their sums, each sum's
        rounding error found exactly (TwoSum).  An `upto` past the last
        knot appends one piece holding the last value flat up to it.
        """
        v, d = terms[0]
        ev, ed = np.zeros_like(v), np.zeros_like(d)
        for tv, td in terms[1:]:
            v, e1 = _two_sum(v, tv)
            d, e2 = _two_sum(d, td)
            ev, ed = ev + e1, ed + e2
        p = cls._hermite(x, v, ev, d, ed)
        if upto is None or x[-1] >= upto:
            return p
        return cls(np.append(p.lo, x[-1]), np.append(p.hi, upto),
                   np.vstack([p.coef, _pad(v[None, -1:], 4)]),
                   np.vstack([p.err, _pad(ev[None, -1:], 4)]))

    @classmethod
    def _hermite(cls, x, v, ev, d, ed) -> "PiecewisePoly":
        """Hermite cubics of one row of knot data (with data error bounds)."""
        h, eh = _add(x[1:], 0.0, -x[:-1], 0.0)
        v0, v1, ev0, ev1 = v[:-1], v[1:], ev[:-1], ev[1:]
        d0, d1, ed0, ed1 = d[:-1], d[1:], ed[:-1], ed[1:]
        dv, edv = _add(v1, ev1, -v0, ev0)
        a1, ea1 = _mul(h, eh, d0, ed0)
        s2, es2 = _mul(h, eh, *_add(2.0 * d0, 2.0 * ed0, d1, ed1))
        a2, ea2 = _add(*_mul(3.0, 0.0, dv, edv), -s2, es2)
        s3, es3 = _mul(h, eh, *_add(d0, ed0, d1, ed1))
        a3, ea3 = _add(*_mul(-2.0, 0.0, dv, edv), s3, es3)
        return cls(x[:-1], x[1:], np.stack([v0, a1, a2, a3], axis=1),
                   np.stack([ev0, ea1, ea2, ea3], axis=1))

    def radius(self) -> "PiecewisePoly":
        """The radius r itself on the same pieces."""
        h, eh = _add(self.hi, 0.0, -self.lo, 0.0)
        return PiecewisePoly(self.lo, self.hi, np.stack([self.lo, h], axis=1),
                             np.stack([np.zeros_like(h), eh], axis=1))

    def constant(self, value: float) -> "PiecewisePoly":
        """The exact constant `value` on the same pieces."""
        n = self.lo.size
        return PiecewisePoly(self.lo, self.hi, np.full((n, 1), float(value)), np.zeros((n, 1)))

    @classmethod
    def concat(cls, polys) -> "PiecewisePoly":
        """All pieces of the given functions, in order."""
        n = max(p.coef.shape[1] for p in polys)
        return cls(np.concatenate([p.lo for p in polys]),
                   np.concatenate([p.hi for p in polys]),
                   np.concatenate([_pad(p.coef, n) for p in polys]),
                   np.concatenate([_pad(p.err, n) for p in polys]))

    # -- pieces -------------------------------------------------------

    @property
    def knots(self) -> np.ndarray:
        """Breakpoints of a contiguous function."""
        return np.append(self.lo, self.hi[-1])

    def _cut(self, i, lo, hi) -> "PiecewisePoly":
        """Pieces i re-expressed on the sub-intervals [lo, hi] of themselves."""
        a, ea = self.coef[i], self.err[i]
        h = self.hi[i] - self.lo[i]
        alpha = (lo - self.lo[i]) / h
        beta = (hi - lo) / h
        same = (alpha == 0.0) & (beta == 1.0)
        if same.all():
            return PiecewisePoly(lo, hi, a, ea)
        # piece on [lo, hi]: q(s) = p(alpha + beta s), so
        # q_k = beta^k sum_{m >= k} C(m, k) alpha^(m-k) a_m; alpha and beta
        # carry 3u relative error each, hence the (6n + 4)u term
        n = a.shape[1] - 1
        k, m = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        ap = alpha[:, None] ** np.arange(n + 1)
        bp = beta[:, None] ** np.arange(n + 1)
        T = _binomials(n) * ap[:, np.maximum(m - k, 0)] * bp[:, k]
        q = np.einsum("jkm,jm->jk", T, a)
        eq = (np.einsum("jkm,jm->jk", T, ea)
              + (6 * n + 4) * _U * np.einsum("jkm,jm->jk", T, np.abs(a)))
        return PiecewisePoly(lo, hi, np.where(same[:, None], a, q),
                             np.where(same[:, None], ea, eq))

    def refine(self, y) -> "PiecewisePoly":
        """The same contiguous function on knots y, which contain every
        knot inside [y[0], y[-1]]."""
        x = self.knots
        y = np.asarray(y, dtype=float)
        i = np.clip(np.searchsorted(x, y[:-1], side="right") - 1, 0, x.size - 2)
        return self._cut(i, y[:-1], y[1:])

    def restrict(self, a: float, b: float) -> "PiecewisePoly":
        """The pieces meeting [a, b], each cut to it."""
        i = np.flatnonzero((self.lo < b) & (self.hi > a))
        if i.size == 0:
            raise ValueError(f"no piece meets [{a}, {b}]")
        lo, hi = self.lo[i], self.hi[i]
        if lo.min() >= a and hi.max() <= b:
            return PiecewisePoly(lo, hi, self.coef[i], self.err[i])
        return self._cut(i, np.maximum(lo, a), np.minimum(hi, b))

    def _aligned(self, other: "PiecewisePoly"):
        if (self.lo is other.lo or np.array_equal(self.lo, other.lo)) \
                and (self.hi is other.hi or np.array_equal(self.hi, other.hi)):
            return self, other
        lo = max(self.lo[0], other.lo[0])
        hi = min(self.hi[-1], other.hi[-1])
        y = np.union1d(self.knots, other.knots)
        y = y[(y >= lo) & (y <= hi)]
        return self.refine(y), other.refine(y)

    # -- arithmetic ---------------------------------------------------

    def __neg__(self) -> "PiecewisePoly":
        return PiecewisePoly(self.lo, self.hi, -self.coef, self.err)

    def __add__(self, other) -> "PiecewisePoly":
        if not isinstance(other, PiecewisePoly):
            c, e = self.coef.copy(), self.err.copy()
            c[:, 0], e[:, 0] = _add(c[:, 0], e[:, 0], other, 0.0)
            return PiecewisePoly(self.lo, self.hi, c, e)
        p, q = self._aligned(other)
        if p.coef.shape[1] < q.coef.shape[1]:
            p, q = q, p
        w = q.coef.shape[1]
        if w == p.coef.shape[1]:
            return PiecewisePoly(p.lo, p.hi, *_add(p.coef, p.err, q.coef, q.err))
        # the narrower added into a copy of the wider, as _add of both padded
        c, e = p.coef.copy(), p.err.copy()
        c[:, :w] += q.coef
        e[:, :w] += q.err
        return PiecewisePoly(p.lo, p.hi, c, e + _U * np.abs(c))

    __radd__ = __add__

    def __sub__(self, other) -> "PiecewisePoly":
        return self + (-other)

    def __rsub__(self, other) -> "PiecewisePoly":
        return (-self) + other

    def __mul__(self, other) -> "PiecewisePoly":
        if not isinstance(other, PiecewisePoly):
            # _mul with an exact factor, its zero terms left out
            s = np.reshape(other, (-1, 1))
            c = self.coef * s
            return PiecewisePoly(self.lo, self.hi, c, np.abs(s) * self.err + _U * np.abs(c))
        p, q = self._aligned(other)
        if p.coef.shape[1] > q.coef.shape[1]:
            p, q = q, p
        # the product, X = (|a| + ea) * (|b| + eb) and Y = |a| * |b|: the
        # propagated error is X - Y, and 4 gamma X covers the rounding of
        # the product and of computing X and Y
        aa, bb = np.abs(p.coef), np.abs(q.coef)
        x, y = _conv(aa + p.err, bb + q.err), _conv(aa, bb)
        return PiecewisePoly(p.lo, p.hi, _conv(p.coef, q.coef),
                             (x - y) + 4.0 * _gamma(aa.shape[1] + 2) * x)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "PiecewisePoly":
        c = self.coef / scalar
        return PiecewisePoly(self.lo, self.hi, c, self.err / abs(scalar) + _U * np.abs(c))

    def derivative(self) -> "PiecewisePoly":
        """d/dr, piece by piece."""
        h, eh = _add(self.hi, 0.0, -self.lo, 0.0)
        k = np.arange(1, self.coef.shape[1], dtype=float)
        c, e = _mul(self.coef[:, 1:], self.err[:, 1:], k, 0.0)
        c, e = _div(c, e, h[:, None], eh[:, None])
        return PiecewisePoly(self.lo, self.hi, c, e)

    def integral(self) -> float:
        """The integral over all pieces: sum of (hi - lo) sum_k coef[:, k]/(k + 1)."""
        w = 1.0 / np.arange(1, self.coef.shape[1] + 1)
        return float(np.sum((self.hi - self.lo) * (self.coef @ w)))

    def integral_from_lo(self, i, x) -> np.ndarray:
        """int_lo[i]^x of piece i, for indices i and points x of those pieces:
        (hi - lo) t sum_k coef[i, k] t^k / (k + 1) at the local t of x,
        exactly 0 at x = lo[i] and small in proportion near it."""
        h = self.hi[i] - self.lo[i]
        t = (x - self.lo[i]) / h
        q = self.coef[i] / np.arange(1, self.coef.shape[1] + 1)
        return h * t * np.polynomial.polynomial.polyval(t, np.moveaxis(q, -1, 0), tensor=False)

    # -- decisions ----------------------------------------------------

    def _core_factored(self, *others: "PiecewisePoly"):
        """Divide each piece starting at r = 0 by t^z, z the number of
        low-order coefficients that are exact zeros in all of the given
        functions (a function vanishing identically there not counted)."""
        polys = (self,) + others
        core = np.flatnonzero(self.lo == 0.0)
        if core.size == 0:
            return polys
        n = max(p.coef.shape[1] for p in polys)   # no zero count reaches it
        z = np.full(core.size, n)
        for p in polys:
            exact0 = (p.coef[core] == 0.0) & (p.err[core] == 0.0)
            z = np.where(exact0.all(axis=1), z, np.minimum(z, np.argmin(exact0, axis=1)))
        z[z == n] = 0
        if not z.any():
            return polys
        out = []
        for p in polys:
            c, e = p.coef.copy(), p.err.copy()
            for k in np.unique(z[z > 0]):
                i = core[z == k]
                c[i, :-k], c[i, -k:] = p.coef[i, k:], 0.0
                e[i, :-k], e[i, -k:] = p.err[i, k:], 0.0
            out.append(PiecewisePoly(p.lo, p.hi, c, e))
        return tuple(out)

    def failures(self) -> np.ndarray:
        """Decide, piece by piece, that the exact function is > 0.

        NaN where it is; elsewhere a radius in the piece where it is not,
        or where rounding still leaves the sign undecided after
        _MAX_DEPTH halvings: an undecided piece fails, it never passes.
        On pieces starting at r = 0, exactly-zero low-order coefficients
        are factored out first, so W/r, -g' or the B4 numerator are
        decided on (0, b] although parity makes them vanish at 0.
        """
        (p,) = self._core_factored()
        B, E = _bernstein(p.coef, p.err)
        out = np.full(B.shape[0], np.nan)
        src, lo, w = np.arange(B.shape[0]), p.lo, p.hi - p.lo
        for _ in range(_MAX_DEPTH):
            tol = E * _SAFE
            bad0 = B[:, 0] <= tol[:, 0]
            bad = bad0 | (B[:, -1] <= tol[:, -1])
            if bad.any():
                # an end value that is not certainly positive stays so in
                # every subdivision; the first such sub-piece is reported
                out[src[bad][::-1]] = np.where(bad0, lo, lo + w)[bad][::-1]
            live = ~np.all(B > tol, axis=1) & np.isnan(out[src])
            if not live.any():
                return out
            bl, el, br, er = _halves(B[live], E[live])
            B, E = np.concatenate([bl, br]), np.concatenate([el, er])
            src, lo, w = src[live], lo[live], 0.5 * w[live]
            src, lo, w = np.tile(src, 2), np.concatenate([lo, lo + w]), np.tile(w, 2)
        undecided = np.isnan(out[src])
        out[src[undecided][::-1]] = (lo + 0.5 * w)[undecided][::-1]
        return out

    def positive(self) -> float | None:
        """None when the exact function is decided > 0 on every piece, else
        a radius where it is not or stays undecided (see `failures`)."""
        bad = self.failures()
        hit = ~np.isnan(bad)
        return float(bad[np.argmax(hit)]) if hit.any() else None

    def extreme(self, den: "PiecewisePoly | None" = None,
                largest: bool = False) -> tuple[float, float]:
        """(value, r) of the minimum (largest: maximum) over all pieces of
        this function, or of its ratio to den > 0.

        Starts from the best piece-end value m (at a knot that two pieces
        share, the one of smaller rounding bound), drops every piece on
        which the Bernstein coefficients of P - m den show that it cannot
        beat m beyond rounding, and evaluates the rest at the real roots
        of P' den - P den' (batched companion eigenvalues).  At r = 0 the
        ratio takes its limit, common exact zeros factored out.
        """
        P = -self if largest else self
        if den is None:
            Q = P.constant(1.0)
        else:
            P, Q = P._aligned(den)
        P, Q = P._core_factored(Q)
        pc, qc = P.coef, Q.coef
        n = pc.shape[0]
        t = np.repeat([[0.0, 1.0]], n, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            q0, q1 = qc[:, 0], _row_sums(qc)
            vals = np.stack([pc[:, 0] / q0, _row_sums(pc) / q1], axis=1)
            e0 = (P.err[:, 0] + np.abs(vals[:, 0]) * Q.err[:, 0]) / np.abs(q0)
            e1 = (_row_sums(P.err) + np.abs(vals[:, 1]) * _row_sums(Q.err)) / np.abs(q1)
        knot = P.hi[:-1] == P.lo[1:]
        vals[:-1, 1][knot & (e1[:-1] > e0[1:])] = np.nan
        vals[1:, 0][knot & (e0[1:] > e1[:-1])] = np.nan
        m, r_m = _best(P, t, vals, np.arange(n))
        with np.errstate(invalid="ignore"):
            # a minimum already at -inf keeps nothing (NaN compares false)
            D = P + Q * -m
            B, E = _bernstein(D.coef, D.err)
            keep = np.flatnonzero(np.any(B + E * _SAFE < 0.0, axis=1))
        if keep.size:
            pk, qk = pc[keep], qc[keep]
            dp = pk[:, 1:] * np.arange(1, pk.shape[1])
            dq = qk[:, 1:] * np.arange(1, qk.shape[1])
            crit = _conv(dp, qk) - _conv(pk, dq) if dq.shape[1] else dp
            t = np.clip(np.nan_to_num(_real_roots(crit), nan=0.0), 0.0, 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = _horner(pk, t) / _horner(qk, t)
            mk, rk = _best(P, t, vals, keep)
            if np.isfinite(mk) and mk < m:
                m, r_m = mk, rk
        return float(-m if largest else m), float(r_m)

    def bernstein(self) -> tuple[np.ndarray, np.ndarray]:
        """Bernstein coefficients of every piece on its [lo, hi], with bounds."""
        return _bernstein(self.coef, self.err)

    def roots(self, groups: np.ndarray | None = None):
        """Sorted real roots of a contiguous function of degree <= 3.

        Pieces of degree <= 2 are solved in closed form.  A cubic piece
        is split at the closed-form roots of its quadratic derivative;
        each split point or piece end whose value is within its error
        bound of zero is a root (a tangency, or a root on the knot), and
        each monotone part whose end values have opposite signs holds one
        root, located by safeguarded Newton steps.  A root on a shared
        knot or at a tangency is reported once, and pieces that vanish
        identically contribute none, and a root within one ulp of a
        piece's upper knot is that knot.  As in `failures`, exact zeros at
        r = 0 are factored out first, so a root that parity forces at
        the core is not reported.

        With per-piece group labels, each group is its own contiguous
        function: returns (roots, labels), sorted by label and then root,
        with the shared-knot merge applied within a group only.
        """
        (p,) = self._core_factored()
        c = _pad(p.coef, 4)
        if np.any(c[:, 4:]):
            raise ValueError("roots need degree <= 3")
        t = _quadratic_roots(c[:, :3])
        cubic = np.flatnonzero(c[:, 3])
        if cubic.size:
            t = np.concatenate([t, np.full((t.shape[0], 5), np.nan)], axis=1)
            t[cubic] = _cubic_roots(c[cubic, :4], _pad(p.err, 4)[cubic, :4])
        ok = (t >= -_ROOT_SLACK) & (t <= 1.0 + _ROOT_SLACK)
        hi = self.hi[:, None]
        r = self.lo[:, None] + np.clip(t, 0.0, 1.0) * (hi - self.lo[:, None])
        # a root at t = 1 can round one ulp inside the knot: report the knot
        r = np.where(np.abs(hi - r) <= np.abs(np.spacing(hi)), hi, r)
        g = np.zeros(self.lo.size, dtype=int) if groups is None else np.asarray(groups)
        r, rg = r[ok], np.broadcast_to(g[:, None], ok.shape)[ok]
        order = np.lexsort((r, rg))
        r, rg = r[order], rg[order]
        span = np.zeros(int(g.max()) + 1 if g.size else 0)
        np.maximum.at(span, g, np.abs(self.hi))
        gap = _ROOT_SLACK * np.maximum(1.0, span[rg])
        keep = np.ones(r.size, dtype=bool)
        keep[1:] = (rg[1:] != rg[:-1]) | (np.diff(r) > gap[1:])
        return r[keep] if groups is None else (r[keep], rg[keep])


def resonances(a: PiecewisePoly, b: PiecewisePoly, blocks):
    """Where m a - n b vanishes, for integer multipliers m and n.

    a and b share their pieces, which are contiguous.  `blocks` yields
    arrays (label, piece, m, n) with one entry per row: row j poses
    m[j] a - n[j] b on piece piece[j], and the rows with one label,
    which all come in one block, are the pieces of one function.  A row
    vanishes identically when all its Bernstein coefficients (m and n
    times those of a and b) lie within 1e-12 of its scale, the larger
    over the piece ends of |m||a| + |n||b|; it is live when they can
    change sign otherwise.

    Returns ((label, lo, hi), (r, label)): the bands, maximal runs of
    consecutive vanishing pieces of one label, and the roots of the live
    rows (as in `PiecewisePoly.roots`, each label its own function) less
    those within 1e-12 max(1, R) of a band of their own label, R the
    largest |r| on a's pieces.  Within a block both come sorted by
    label, then radius.
    """
    w = max(a.coef.shape[1], b.coef.shape[1])
    ac, bc, ea, eb = _pad(a.coef, w), _pad(b.coef, w), _pad(a.err, w), _pad(b.err, w)
    to_bernstein = _bernstein_matrix(w - 1)
    # row k: every piece's k-th Bernstein coefficient (1D rows are the fastest form)
    a_bern, b_bern = ((c @ to_bernstein).T.copy() for c in (ac, bc))
    gap = _ZERO_REL * max(1.0, float(np.abs(a.hi).max()))
    bands = [(np.zeros(0, dtype=int), np.zeros(0), np.zeros(0))]
    roots = [(np.zeros(0), np.zeros(0, dtype=int))]
    for label, piece, m, n in blocks:
        m, n = np.asarray(m, dtype=float), np.asarray(n, dtype=float)
        ma = [m * a_bern[k].take(piece) for k in range(w)]
        nb = [n * b_bern[k].take(piece) for k in range(w)]
        cols = [x - y for x, y in zip(ma, nb)]
        b_lo, b_hi = functools.reduce(np.minimum, cols), functools.reduce(np.maximum, cols)
        tol = _ZERO_REL * np.maximum(np.abs(ma[0]) + np.abs(nb[0]),
                                     np.abs(ma[-1]) + np.abs(nb[-1]))
        zero = np.maximum(b_hi, -b_lo) <= tol

        z = np.flatnonzero(zero)
        band = bands[0]   # empty, until this block has a band
        if z.size:
            z = z[np.lexsort((piece[z], label[z]))]
            first = np.ones(z.size, dtype=bool)
            first[1:] = (label[z][1:] != label[z][:-1]) | (piece[z][1:] != piece[z][:-1] + 1)
            band = label[z][first], a.lo[piece[z][first]], a.hi[piece[z][np.roll(first, -1)]]
            bands.append(band)
        j = np.flatnonzero(~zero & (b_lo <= tol) & (b_hi >= -tol))
        if j.size:
            i, base = piece[j], label[j].min()
            c, e = _add(*_mul(ac[i], ea[i], m[j, None], 0.0),
                        *_mul(bc[i], eb[i], -n[j, None], 0.0))
            r, g = PiecewisePoly(a.lo[i], a.hi[i], c, e).roots(groups=label[j] - base)
            g = g + base
            inside = ((g[:, None] == band[0]) & (band[1] - gap <= r[:, None])
                      & (r[:, None] <= band[2] + gap)).any(axis=1)
            roots.append((r[~inside], g[~inside]))
    return (tuple(np.concatenate(x) for x in zip(*bands)),
            tuple(np.concatenate(x) for x in zip(*roots)))


@functools.lru_cache(maxsize=None)
def gauss_rule(n: int):
    """Gauss-Legendre nodes/weights on [-1, 1] (exact for degree 2n-1), read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_piecewise(fn, breakpoints, a: float, b: float, npts: int = 5) -> float:
    """Composite Gauss quadrature of fn over [a, b], split at breakpoints:
    one npts-point panel per interval; fn sees the nodes as one flat array.

    Exact (to rounding) when fn is a polynomial of degree <= 2*npts - 1 on
    each subinterval; that covers products of piecewise cubics.
    """
    if b < a:
        return -gauss_piecewise(fn, breakpoints, b, a, npts)
    pts = np.asarray(breakpoints, dtype=float)
    pts = pts[(pts > a) & (pts < b)]
    edges = np.concatenate([[a], np.unique(pts), [b]])
    x, w = gauss_rule(npts)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * x
    return float(np.sum(half * (np.reshape(fn(nodes.ravel()), nodes.shape) @ w)))


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def integrate_1d(fn, a: float, b: float, spec: QuadratureSpec | None = None) -> QuadResult:
    """Adaptive quadrature of fn over [a, b] with an error estimate."""
    from scipy.integrate import IntegrationWarning, quad

    spec = spec or DEFAULT_QUAD
    if a == b:
        return QuadResult(0.0, 0.0, True)
    converged = True
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            value, err = quad(fn, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                              limit=_QUAD_LIMIT)
        except IntegrationWarning:
            warnings.simplefilter("ignore", IntegrationWarning)
            value, err = quad(fn, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                              limit=_QUAD_LIMIT)
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

def ode_flow(field, start, time: float) -> OdeResult:
    """Flow `start` for `time` along field(t, y) at per-step tolerance
    1e-12; counts steps, detects NaN.  The error estimate is the step
    count times that tolerance times the largest state entry seen.

    A start or a first field value that is not finite raises at once:
    DOP853's first step size would be NaN, and its step loop would then
    neither take a step nor fail.  The stepper is built with numpy's
    floating-point warnings off, so that such a field raises without
    the warnings of its first-step estimate.
    """
    from scipy.integrate import DOP853

    y0 = np.asarray(start, dtype=float)
    if time == 0.0 or y0.size == 0:
        return OdeResult(y0.copy(), 0.0, 0)
    if not np.isfinite(y0).all():
        raise NonConvergenceError("ODE start is not finite")
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        stepper = DOP853(field, 0.0, y0, t_bound=float(time),
                         rtol=_ODE_TOL, atol=_ODE_TOL)
    if not np.isfinite(stepper.f).all():   # the field at the start
        raise NonConvergenceError("ODE field is not finite at the start")
    n = 0
    scale = max(1.0, float(np.max(np.abs(y0))))
    while stepper.status == "running":
        msg = stepper.step()
        n += 1
        if not np.all(np.isfinite(stepper.y)):
            raise NonConvergenceError("ODE state became non-finite")
        scale = max(scale, float(np.max(np.abs(stepper.y))))
        if n > _ODE_MAX_STEPS:
            raise NonConvergenceError(f"ODE exceeded {_ODE_MAX_STEPS} steps")
    if stepper.status == "failed":
        raise NonConvergenceError(f"ODE step failure: {msg}")
    return OdeResult(stepper.y.copy(), n * _ODE_TOL * scale, n)


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
    from scipy.optimize import brentq

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
