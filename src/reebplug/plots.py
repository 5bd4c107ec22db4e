"""Deterministic SVG line plots for profiles, return times, and orbits.

Hand-rolled SVG keeps the artifacts dependency-free and byte-stable:
fixed canvas geometry, fixed number formatting, no timestamps, and
iteration in input order.  Every public helper returns the SVG text;
callers decide where to write it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .profile import ProfileCurve, TauProfile
from .rotorus import OrbitRecord

__all__ = ["Series", "line_plot", "profile_plot", "tau_plot", "orbit_plot"]

_PALETTE = ("#1f6fb2", "#d1495b", "#3f7d20", "#8a5a83", "#c77d1e", "#2a9d8f")
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 18, 36, 48


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x: float) -> str:
    if x == 0.0:
        return "0"
    return f"{x:.6g}"


@dataclass(frozen=True)
class Series:
    x: tuple[float, ...]
    y: tuple[float, ...]
    label: str = ""
    dashed: bool = False
    markers: bool = False
    line: bool = True

    @classmethod
    def of(cls, x, y, **kw) -> "Series":
        xx = tuple(float(v) for v in np.asarray(x, dtype=float))
        yy = tuple(float(v) for v in np.asarray(y, dtype=float))
        if len(xx) != len(yy):
            raise ValueError("series needs matching x and y lengths")
        return cls(xx, yy, **kw)


def _tick_values(lo: float, hi: float, n: int = 5) -> list[float]:
    span = hi - lo
    if not math.isfinite(span) or span <= 0.0:
        return [lo]
    raw = span / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (mult * mag) <= n:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    out = []
    t = first
    while t <= hi + 1e-9 * span:
        out.append(0.0 if abs(t) < 1e-9 * span else t)
        t += step
    return out


def line_plot(series: Sequence[Series], title: str, xlabel: str, ylabel: str,
              vlines: Sequence[tuple[float, str]] = ()) -> str:
    """Render series on one axes pair; vlines are annotated guides."""
    xs = [v for s in series for v in s.x if math.isfinite(v)]
    ys = [v for s in series for v in s.y if math.isfinite(v)]
    xs += [x for x, _ in vlines]
    if not xs or not ys:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_lo + 0.5
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 0.5, y_lo + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
           f'height="{_H}" viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
           f'<text x="{_W // 2}" y="22" font-family="monospace" '
           f'font-size="14" text-anchor="middle">{_escape(title)}</text>']

    axis = '#303030'
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
               f'height="{_H - _MT - _MB}" fill="none" stroke="{axis}" '
               f'stroke-width="1"/>')
    for t in _tick_values(x_lo, x_hi):
        X = px(t)
        out.append(f'<line x1="{X:.2f}" y1="{_H - _MB}" x2="{X:.2f}" '
                   f'y2="{_H - _MB + 5}" stroke="{axis}"/>')
        out.append(f'<text x="{X:.2f}" y="{_H - _MB + 18}" '
                   f'font-family="monospace" font-size="11" '
                   f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _tick_values(y_lo, y_hi):
        Y = py(t)
        out.append(f'<line x1="{_ML - 5}" y1="{Y:.2f}" x2="{_ML}" '
                   f'y2="{Y:.2f}" stroke="{axis}"/>')
        out.append(f'<text x="{_ML - 8}" y="{Y + 4:.2f}" '
                   f'font-family="monospace" font-size="11" '
                   f'text-anchor="end">{_fmt(t)}</text>')
    out.append(f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 10}" '
               f'font-family="monospace" font-size="12" '
               f'text-anchor="middle">{_escape(xlabel)}</text>')
    out.append(f'<text x="16" y="{(_MT + _H - _MB) // 2}" '
               f'font-family="monospace" font-size="12" '
               f'text-anchor="middle" transform="rotate(-90 16 '
               f'{(_MT + _H - _MB) // 2})">{_escape(ylabel)}</text>')

    for x, label in vlines:
        X = px(x)
        out.append(f'<line x1="{X:.2f}" y1="{_MT}" x2="{X:.2f}" '
                   f'y2="{_H - _MB}" stroke="#999999" stroke-width="1" '
                   f'stroke-dasharray="2,3"/>')
        out.append(f'<text x="{X + 3:.2f}" y="{_MT + 12}" '
                   f'font-family="monospace" font-size="11" '
                   f'fill="#555555">{_escape(label)}</text>')

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = [(px(x), py(y)) for x, y in zip(s.x, s.y)
               if math.isfinite(x) and math.isfinite(y)]
        if s.line and len(pts) > 1:
            path = " ".join(f"{X:.2f},{Y:.2f}" for X, Y in pts)
            dash = ' stroke-dasharray="5,4"' if s.dashed else ""
            out.append(f'<polyline points="{path}" fill="none" '
                       f'stroke="{color}" stroke-width="1.6"{dash}/>')
        if s.markers:
            for X, Y in pts:
                out.append(f'<circle cx="{X:.2f}" cy="{Y:.2f}" r="2.6" '
                           f'fill="{color}"/>')

    labeled = [(i, s) for i, s in enumerate(series) if s.label]
    for row, (i, s) in enumerate(labeled):
        color = _PALETTE[i % len(_PALETTE)]
        Y = _MT + 14 + 16 * row
        X = _W - _MR - 150
        out.append(f'<line x1="{X}" y1="{Y - 4}" x2="{X + 22}" y2="{Y - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{X + 28}" y="{Y}" font-family="monospace" '
                   f'font-size="11">{_escape(s.label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def profile_plot(curve: ProfileCurve) -> str:
    """The profile arc in the (f, g) plane with its marked radii."""
    p = curve.params
    rr = np.linspace(0.0, p.rho, 600)
    gamma = Series.of(curve.f(rr), curve.g(rr), label="(f, g)")
    level = 1.0 + p.delta
    guide = Series.of([0.0, level], [level, 0.0], label="f + g = 1 + delta",
                      dashed=True)
    marks = Series.of([float(curve.f(r)) for r in (p.r0, p.r1, p.rho)],
                      [float(curve.g(r)) for r in (p.r0, p.r1, p.rho)],
                      label="r0, r1, rho", line=False, markers=True)
    return line_plot([gamma, guide, marks],
                     title="profile arc", xlabel="f", ylabel="g")


def tau_plot(tau: TauProfile) -> str:
    """Return time over the radius with the design radii marked."""
    p = tau.curve.params
    rr = np.linspace(0.0, p.rho, 600)
    level = 1.0 / (1.0 + p.delta)
    return line_plot(
        [Series.of(rr, tau(rr), label="tau"),
         Series.of([0.0, p.rho], [level, level], label="1/(1 + delta)",
                   dashed=True)],
        title="section return time", xlabel="r", ylabel="tau",
        vlines=[(p.r0, "r0"), (p.r1, "r1")])


def orbit_plot(records: Sequence[OrbitRecord], title: str = "orbit periods") -> str:
    """Detected closed orbits as period against radius.

    Bands are drawn as horizontal extents at their common period,
    isolated orbits and the core as markers.
    """
    if not records:
        raise ValueError("nothing to plot")
    series = []
    bands = [rec for rec in records if rec.is_band()]
    points = [rec for rec in records if not rec.is_band()]
    for j, rec in enumerate(bands):
        series.append(Series.of([rec.r_lo, rec.r_hi],
                                [rec.period, rec.period],
                                label="bands" if j == 0 else ""))
    if points:
        series.append(Series.of([rec.r for rec in points],
                                [rec.period for rec in points],
                                label="isolated", line=False, markers=True))
    return line_plot(series, title=title, xlabel="r", ylabel="T")
