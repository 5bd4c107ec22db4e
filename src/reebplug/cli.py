"""Command-line pipeline for profiles, forms, disk maps, plugs, certificates.

Artifacts are deterministic: JSON with sorted keys, CSV orbit tables
with the header kind,r,p,q,T, and static SVG plots.  Files are written
atomically (temp file plus rename) into --out.  Exit codes: 0 success,
1 mathematical check failure, 2 input or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .certify import CertificationError, assemble, systolic_bound
from .diskmap import (BumpHarmonic, DiskMap, PrimitiveOneForm, action, calabi,
                      periodic_points)
from .numerics import NonConvergenceError, integrate_disk
from .plug import (PlugError, PlugSystem, make_plug, orbit_periods,
                   realize_rotational, rescale_plug, verify_a, verify_b)
from .profile import (ProfileCurve, ProfileError, ProfileParams,
                      design_profile, tau_profile, to_rotform, verify_profile)
from .plots import orbit_plot, profile_plot, tau_plot
from .rotorus import (ContactError, RotForm, SectionError, contact_check,
                      orbit_enumerate, return_system, tmin, volume)

__all__ = ["main", "build_parser"]

_MATH_ERRORS = (ProfileError, ContactError, SectionError, PlugError,
                CertificationError, NonConvergenceError)


# ---------------------------------------------------------------------------
# Artifact helpers
# ---------------------------------------------------------------------------

def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_text(path: Path, text: str) -> None:
    # write once, atomically: finished content appears under the final name
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    print(f"wrote {path}")


def _write_json(path: Path, obj: dict) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True,
                                 default=_json_default) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _formats(args) -> set[str]:
    kinds = {k.strip() for k in args.format.split(",") if k.strip()}
    unknown = kinds - {"json", "csv", "svg"}
    if unknown:
        raise ValueError(f"unknown output format: {', '.join(sorted(unknown))}")
    return kinds


def _load_json(path: str, required: tuple[str, ...],
               optional: tuple[str, ...] = ()) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    missing = [k for k in required if k not in data]
    if missing:
        raise ValueError(f"{path}: missing keys: {', '.join(missing)}")
    unknown = [k for k in data if k not in required + optional]
    if unknown:
        raise ValueError(f"{path}: unknown keys: {', '.join(unknown)}")
    return data


def _orbit_csv(rows) -> str:
    """The kind,r,p,q,T table that every orbit artifact writes."""
    lines = ["kind,r,p,q,T"]
    lines += [f"{kind},{r!r},{p},{q},{T!r}" for kind, r, p, q, T in rows]
    return "\n".join(lines) + "\n"


def _map_orbit_row(orbit, T) -> tuple:
    # a period-k point of a disk map closes after k turns of the fiber
    kind = "fixed" if orbit.period == 1 else f"cycle-{orbit.period}"
    return kind, abs(orbit.point), 0, orbit.period, T


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def _profile_artifacts(curve: ProfileCurve, args, with_curve: bool) -> int:
    out = _out_dir(args)
    kinds = _formats(args)
    report = verify_profile(curve)
    tau_dict = None
    tau = None
    if report.passed:
        tau, tau_rep = tau_profile(curve)
        tau_dict = tau_rep.to_dict()
    if with_curve and "json" in kinds:
        _write_json(out / "curve.json", curve.to_dict())
    if "json" in kinds:
        _write_json(out / "profile_report.json",
                    {"profile": report.to_dict(), "tau": tau_dict,
                     "context": {"params": curve.params.to_dict()}})
    if "svg" in kinds:
        _write_text(out / "profile_arc.svg", profile_plot(curve))
        if tau is not None:
            _write_text(out / "tau.svg", tau_plot(tau))
    ok = report.passed and tau_dict is not None and tau_dict["passed"]
    if ok:
        if "json" in kinds:
            _write_json(out / "binding_form.json", to_rotform(curve).to_dict())
        print(f"profile: pass (gap = {curve.gap():.9g}, "
              f"sup tau deviation = {tau_dict['sup_deviation']:.9g})")
        return 0
    failed = report.first_failure()
    if failed is not None:
        print(f"profile: FAIL at {failed.name} "
              f"(r = {failed.r_at:.9g}, margin = {failed.margin:.3e})")
    else:
        print("profile: FAIL in the return-time checks")
    return 1


def _cmd_profile_design(args) -> int:
    params = ProfileParams(s=args.s, delta=args.delta, rho=args.rho,
                           r0=args.r0, r1=args.r1)
    curve = design_profile(params)
    return _profile_artifacts(curve, args, with_curve=True)


def _cmd_profile_verify(args) -> int:
    curve = ProfileCurve.from_dict(json.loads(Path(args.curve).read_text()))
    return _profile_artifacts(curve, args, with_curve=False)


# ---------------------------------------------------------------------------
# rotorus
# ---------------------------------------------------------------------------

def _load_form(path: str) -> RotForm:
    return RotForm.from_dict(json.loads(Path(path).read_text()))


def _cmd_rotorus_analyze(args) -> int:
    form = _load_form(args.form)
    margin = contact_check(form)
    sections = {}
    for name in ("disk-angle", "core-angle"):
        try:
            sys_ = return_system(form, name)
            sections[name] = {"available": True,
                              "tau_at_0": float(sys_.tau(0.0)),
                              "shift_at_0": float(sys_.shift(0.0))}
        except SectionError as exc:
            sections[name] = {"available": False, "reason": str(exc)}
    est = tmin(form, t_max=args.tmax, q_max=args.qmax)
    vol = volume(form)
    _write_json(_out_dir(args) / "analysis.json", {
        "contact_margin": margin,
        "sections": sections,
        "t_min": {"value": est.value, "kind": est.kind, "r": est.r,
                  "heuristic": est.heuristic},
        "volume": vol.to_dict(),
        "context": {"t_max": args.tmax, "q_max": args.qmax}})
    print(f"rotorus: contact margin {margin:.9g}, "
          f"t_min {est.value:.9g} ({est.kind}), "
          f"volume {vol.value:.9g} (spread {vol.spread:.3e})")
    if args.tol is not None and vol.spread > args.tol:
        print(f"rotorus: FAIL volume spread above {args.tol:.3e}")
        return 1
    return 0


def _cmd_rotorus_orbits(args) -> int:
    form = _load_form(args.form)
    records = orbit_enumerate(form, t_max=args.tmax, q_max=args.qmax)
    out = _out_dir(args)
    kinds = _formats(args)
    if "csv" in kinds:
        _write_text(out / "orbits.csv", _orbit_csv(
            (r.kind, r.r, r.p, r.q, r.period) for r in records))
    if "json" in kinds:
        _write_json(out / "orbits.json", {
            "records": [{"kind": r.kind, "r": r.r, "p": r.p, "q": r.q,
                         "T": r.period, "r_lo": r.r_lo, "r_hi": r.r_hi,
                         "residual": r.residual} for r in records],
            "context": {"t_max": args.tmax, "q_max": args.qmax}})
    if "svg" in kinds and records:
        _write_text(out / "orbits.svg", orbit_plot(records))
    print(f"rotorus: {len(records)} orbit families below T = {args.tmax:g}")
    return 0


def _cmd_rotorus_volume(args) -> int:
    form = _load_form(args.form)
    vol = volume(form)
    _write_json(_out_dir(args) / "volume.json", {
        **vol.to_dict(),
        "context": {"closed_form": "exact per-piece integral of the decided "
                                   "W = c'd - cd', times 2 pi P",
                    "section": "integral of tau dalpha over the "
                               f"{vol.section_name} section, Gauss exact "
                               "to degree 5 per knot interval"}})
    print(f"volume: {vol.closed_form!r} {vol.section!r} "
          f"(spread {vol.spread:.3e})")
    if args.tol is not None and vol.spread > args.tol:
        print(f"volume: FAIL spread above {args.tol:.3e}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# disk
# ---------------------------------------------------------------------------

def _load_map(path: str) -> DiskMap:
    return DiskMap.from_dict(json.loads(Path(path).read_text()))


def _cmd_disk_act(args) -> int:
    phi = _load_map(args.map)
    sigma = action(phi)
    probe = 0.35 * phi.radius + 0.2j * phi.radius
    report = {"sigma_center": float(sigma(0.0 + 0.0j)),
              "radial": bool(phi.is_radial),
              "path_independence": float(sigma.path_independence_check(probe)),
              "context": {"anchor": sigma.anchor,
                          "probe": [probe.real, probe.imag]}}
    if phi.is_radial:
        rr = np.linspace(0.0, phi.radius, 9)
        report["samples"] = [[float(r), float(v)]
                             for r, v in zip(rr, sigma.radial_profile(rr))]
    _write_json(_out_dir(args) / "action.json", report)
    print(f"action: sigma(0) = {report['sigma_center']:.9g}, "
          f"path independence {report['path_independence']:.3e}")
    return 0


def _cmd_disk_cal(args) -> int:
    phi = _load_map(args.map)
    cal = calabi(phi)
    alt = PrimitiveOneForm((BumpHarmonic(2, "cos", 0.05,
                                         0.75 * phi.radius),))
    sigma_alt = action(phi, alt)
    cal_alt = integrate_disk(
        lambda x, y: sigma_alt(np.asarray(x) + 1j * np.asarray(y)),
        phi.radius).require()
    tol = args.tol if args.tol is not None else 2e-8
    drift = abs(cal - cal_alt)
    _write_json(_out_dir(args) / "calabi.json", {
        "calabi": cal, "calabi_alt_primitive": cal_alt,
        "primitive_independence": drift,
        "context": {"tol": tol,
                    "alt_primitive": "cos(2 theta) bump correction",
                    "calabi": "exact: sum of per-primitive closed forms",
                    "calabi_alt_primitive":
                        "quadrature: integrate_disk of sigma under lam0 + du"}})
    print(f"calabi: {cal!r} (primitive independence {drift:.3e})")
    if drift > tol:
        print(f"calabi: FAIL primitive dependence above {tol:.3e}")
        return 1
    return 0


def _cmd_disk_periodic(args) -> int:
    phi = _load_map(args.map)
    orbits = periodic_points(phi, args.kmax)
    # T is the suspension period at unit fiber: k + action along orbit
    rows = [_map_orbit_row(o, o.period + o.action_sum) for o in orbits]
    out = _out_dir(args)
    kinds = _formats(args)
    if "csv" in kinds:
        _write_text(out / "periodic.csv", _orbit_csv(rows))
    if "json" in kinds:
        _write_json(out / "periodic.json", {
            "orbits": [{"kind": k, "r": r, "p": p, "q": q, "T": T,
                        "r_lo": o.r_lo, "r_hi": o.r_hi}
                       for (k, r, p, q, T), o in zip(rows, orbits)],
            "context": {"k_max": args.kmax, "fiber": 1.0,
                        "method": ("closed-form families" if phi.is_radial
                                   else "newton grid"),
                        "families": "one entry per family; r_lo and r_hi "
                                    "bound its radii, equal for a point "
                                    "or circle"}})
    print(f"periodic: {len(rows)} orbit families up to period {args.kmax}")
    return 0


# ---------------------------------------------------------------------------
# plug
# ---------------------------------------------------------------------------

def _load_plug(path: str) -> PlugSystem:
    data = _load_json(path, required=("L", "radius", "map"))
    return PlugSystem.from_dict(data)


def _write_plug(out: Path, name: str, plug: PlugSystem) -> dict:
    _write_json(out / name, plug.to_dict())
    summary = {
        "L": plug.L, "radius": plug.radius, "tau_min": plug.tau_min,
        "tau_argmin": [plug.tau_argmin.real, plug.tau_argmin.imag],
        "volume": plug.volume(),
        "context": {"tau": "L + sigma", "volume": "L pi R^2 + CAL"}}
    _write_json(out / (Path(name).stem + "_summary.json"), summary)
    return summary


def _cmd_plug_build(args) -> int:
    plug = make_plug(_load_map(args.map), args.L)
    summary = _write_plug(_out_dir(args), "plug.json", plug)
    print(f"plug: tau_min = {plug.tau_min:.9g}, "
          f"volume = {summary['volume']:.9g}")
    return 0


def _cmd_plug_verify_a(args) -> int:
    plug = _load_plug(args.plug)
    rep = verify_a(plug, args.eps, k_max=args.kmax)
    _write_json(_out_dir(args) / "report_a.json", rep.to_dict())
    for c in rep.checks:
        print(f"{c.name}: {'pass' if c.passed else 'FAIL'} "
              f"(margin {c.margin:.3e}) {c.note}")
    return 0 if rep.passed else 1


def _cmd_plug_verify_b(args) -> int:
    plug = _load_plug(args.plug)
    rep = verify_b(plug, args.n, args.eps, k_max=args.kmax)
    _write_json(_out_dir(args) / "report_b.json", rep.to_dict())
    for c in rep.checks:
        print(f"{c.name}: {'pass' if c.passed else 'FAIL'} "
              f"(margin {c.margin:.3e}) {c.note}")
    return 0 if rep.passed else 1


def _cmd_plug_orbits(args) -> int:
    plug = _load_plug(args.plug)
    found = orbit_periods(plug, args.kmax)
    _write_text(_out_dir(args) / "plug_orbits.csv",
                _orbit_csv(_map_orbit_row(orb, T) for orb, T in found))
    print(f"plug: {len(found)} orbits up to k = {args.kmax}")
    return 0


def _cmd_plug_volume(args) -> int:
    plug = _load_plug(args.plug)
    closed = plug.volume()
    quad = plug.volume_quadrature()
    spread = abs(closed - quad) / max(1e-300, abs(closed))
    _write_json(_out_dir(args) / "plug_volume.json", {
        "closed_form": closed, "section_quadrature": quad, "spread": spread,
        "context": {"closed_form": "L pi R^2 + CAL", "tol": args.tol}})
    print(f"volume: {closed!r} {quad!r} (spread {spread:.3e})")
    if args.tol is not None and spread > args.tol:
        print(f"volume: FAIL spread above {args.tol:.3e}")
        return 1
    return 0


def _cmd_plug_rescale(args) -> int:
    plug = rescale_plug(_load_plug(args.plug), args.factor)
    _write_plug(_out_dir(args), "plug_rescaled.json", plug)
    print(f"plug: rescaled by {args.factor:g}, L = {plug.L:.9g}, "
          f"radius = {plug.radius:.9g}")
    return 0


def _cmd_plug_realize(args) -> int:
    plug = _load_plug(args.plug)
    if not plug.map.is_radial:
        raise PlugError("realization needs a radial map")
    form = realize_rotational(plug.map.combined_profile(), plug.L,
                              plug.radius, n_knots=args.knots)
    _write_json(_out_dir(args) / "form.json", form.to_dict())
    print(f"realized: contact margin {contact_check(form):.9g}, "
          f"core period {form.core_period * float(form.d(0.0)):.9g}")
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _cmd_certify_run(args) -> int:
    spec = _load_json(args.assembly,
                      required=("eps", "areas", "tau_bound", "plugs"))
    base = Path(args.assembly).parent
    plugs = []
    for entry in spec["plugs"]:
        if isinstance(entry, str):
            plugs.append(_load_plug(str(base / entry)))
        else:
            plugs.append(PlugSystem.from_dict(entry))
    inp = assemble(spec["eps"], spec["areas"], plugs, spec["tau_bound"],
                   k_max=args.kmax)
    cert = systolic_bound(inp)
    out = _out_dir(args)
    _write_json(out / "certificate.json", cert.to_dict())
    _write_text(out / "certificate.txt", cert.render())
    print(f"certified: ratio > {float(cert.ratio_exact)!r} "
          f"= {cert.ratio_exact}")
    return 0


def _cmd_certify_sweep(args) -> int:
    eps_values = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    if len(eps_values) < 2:
        raise ValueError("sweep needs at least two eps values")
    ell = args.ell
    entries = []
    for eps in eps_values:
        # identity-map plug with pi R^2 = 0.81 eps: passes a3/a4 at eps
        radius = 0.9 * math.sqrt(eps / math.pi)
        plug = make_plug(DiskMap(radius, ()), 1.0)
        inp = assemble(eps, (1.05,) * ell, (plug,) * ell, eps / 2.0,
                       k_max=args.kmax)
        cert = systolic_bound(inp)
        entries.append({"eps": eps, "ratio": float(cert.ratio_exact),
                        "ratio_exact": f"{cert.ratio_exact.numerator}"
                                       f"/{cert.ratio_exact.denominator}",
                        "plug_radius": radius})
        print(f"eps = {eps:g}: ratio > {float(cert.ratio_exact)!r}")
    ratios = [e["ratio"] for e in entries]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    _write_json(_out_dir(args) / "sweep.json", {
        "ell": ell, "entries": entries, "monotone_increasing": increasing,
        "context": {"areas": 1.05, "tau_bound": "eps / 2",
                    "k_max": args.kmax}})
    if not increasing:
        print("sweep: FAIL bounds are not strictly increasing")
        return 1
    print(f"sweep: {len(entries)} certificates, strictly increasing")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _io_flags(p: argparse.ArgumentParser, fmt: str = "json,csv,svg") -> None:
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", default=fmt,
                   help="comma list among json,csv,svg")
    p.add_argument("--tol", type=float, default=None,
                   help="override the pass threshold where one applies")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="reebplug",
        description="profiles, rotational Reeb flows, disk-map plugs, "
                    "and systolic-ratio certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    prof = sub.add_parser("profile", help="binding profiles").add_subparsers(
        dest="action", required=True)
    p = prof.add_parser("design", help="design a curve from parameters")
    for name in ("s", "delta", "rho", "r0", "r1"):
        p.add_argument(f"--{name}", type=float, required=True)
    _io_flags(p)
    p.set_defaults(func=_cmd_profile_design)
    p = prof.add_parser("verify", help="verify a curve file")
    p.add_argument("curve")
    _io_flags(p)
    p.set_defaults(func=_cmd_profile_verify)

    rot = sub.add_parser("rotorus", help="rotational forms").add_subparsers(
        dest="action", required=True)
    p = rot.add_parser("analyze", help="contact margin, sections, t_min")
    p.add_argument("form")
    p.add_argument("--tmax", type=float, default=5.0)
    p.add_argument("--qmax", type=int, default=8)
    _io_flags(p)
    p.set_defaults(func=_cmd_rotorus_analyze)
    p = rot.add_parser("orbits", help="enumerate closed-orbit families")
    p.add_argument("form")
    p.add_argument("--tmax", type=float, default=5.0)
    p.add_argument("--qmax", type=int, default=8)
    _io_flags(p)
    p.set_defaults(func=_cmd_rotorus_orbits)
    p = rot.add_parser("volume", help="the volume and its section cross-check")
    p.add_argument("form")
    _io_flags(p)
    p.set_defaults(func=_cmd_rotorus_volume)

    disk = sub.add_parser("disk", help="area-preserving disk maps")
    dsub = disk.add_subparsers(dest="action", required=True)
    p = dsub.add_parser("act", help="action field of a map")
    p.add_argument("map")
    _io_flags(p)
    p.set_defaults(func=_cmd_disk_act)
    p = dsub.add_parser("cal", help="Calabi invariant")
    p.add_argument("map")
    _io_flags(p)
    p.set_defaults(func=_cmd_disk_cal)
    p = dsub.add_parser("periodic", help="periodic point search")
    p.add_argument("map")
    p.add_argument("--kmax", type=int, default=6)
    _io_flags(p)
    p.set_defaults(func=_cmd_disk_periodic)

    plug = sub.add_parser("plug", help="contact solid-torus plugs")
    psub = plug.add_subparsers(dest="action", required=True)
    p = psub.add_parser("build", help="plug from a map and a fiber length")
    p.add_argument("map")
    p.add_argument("--L", type=float, default=1.0)
    _io_flags(p)
    p.set_defaults(func=_cmd_plug_build)
    p = psub.add_parser("verify-a", help="unit-fiber axiom checks")
    p.add_argument("plug")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--kmax", type=int, default=8)
    _io_flags(p)
    p.set_defaults(func=_cmd_plug_verify_a)
    p = psub.add_parser("verify-b", help="sharpness-n axiom checks")
    p.add_argument("plug")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--kmax", type=int, default=None)
    _io_flags(p)
    p.set_defaults(func=_cmd_plug_verify_b)
    p = psub.add_parser("orbits", help="periodic orbits with suspended periods")
    p.add_argument("plug")
    p.add_argument("--kmax", type=int, default=6)
    _io_flags(p)
    p.set_defaults(func=_cmd_plug_orbits)
    p = psub.add_parser("volume", help="plug volume, cross-checked")
    p.add_argument("plug")
    _io_flags(p)
    p.set_defaults(func=_cmd_plug_volume)
    p = psub.add_parser("rescale", help="anisotropic rescaling")
    p.add_argument("plug")
    p.add_argument("--factor", type=float, required=True)
    _io_flags(p)
    p.set_defaults(func=_cmd_plug_rescale)
    p = psub.add_parser("realize", help="rotational form with this return system")
    p.add_argument("plug")
    p.add_argument("--knots", type=int, default=8193)
    _io_flags(p)
    p.set_defaults(func=_cmd_plug_realize)

    cert = sub.add_parser("certify", help="systolic-ratio certificates")
    csub = cert.add_subparsers(dest="action", required=True)
    p = csub.add_parser("run", help="certify one assembly file")
    p.add_argument("assembly")
    p.add_argument("--kmax", type=int, default=6)
    _io_flags(p)
    p.set_defaults(func=_cmd_certify_run)
    p = csub.add_parser("sweep", help="certificates along a decreasing eps list")
    p.add_argument("--eps", default="0.01,0.001,0.0001",
                   help="comma list, decreasing")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--kmax", type=int, default=3)
    _io_flags(p)
    p.set_defaults(func=_cmd_certify_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _MATH_ERRORS as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
