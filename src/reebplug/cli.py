"""Command-line pipeline for profiles, forms, disk maps, plugs, certificates.

Artifacts are deterministic: strict JSON (sorted keys, 2-space indent,
shortest round-trip floats, null for a non-finite value), CSV orbit
tables with the header kind,r,p,q,T, and static SVG plots.  Files are written
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
import orjson

from .certify import CertificationError, assemble, systolic_bound
from .diskmap import (BumpHarmonic, DiskMap, PrimitiveOneForm, action, calabi,
                      periodic_points)
from .numerics import NonConvergenceError, integrate_disk
from .plug import (A3_K_MAX, PlugError, PlugSystem, make_plug, orbit_periods,
                   plug_inputs, realize_rotational, rescale_plug, verify_a, verify_b)
from .profile import (ProfileCurve, ProfileError, ProfileParams,
                      design_profile, tau_profile, to_rotform)
from .plots import orbit_plot, profile_plot, tau_plot
from .rotorus import (ContactError, RotForm, SectionError, Volume, contact_check,
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
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    print(f"wrote {path}")


def _write_json(path: Path, obj: dict) -> None:
    text = orjson.dumps(obj, default=_json_default, option=orjson.OPT_INDENT_2
                        | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
    _write_text(path, text.decode())


def _read_json(path: str | Path) -> object:
    """The JSON value in a file.  Text that orjson refuses (a NaN or
    Infinity token, say) goes through the standard library's reader."""
    data = Path(path).read_bytes()
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        return json.loads(data)


def _finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _checked(data, where: str, keys: tuple[str, ...]) -> dict:
    """data, once it is an object with exactly the given keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(f"{where}: missing keys: {', '.join(missing)}")
    unknown = [k for k in data if k not in keys]
    if unknown:
        raise ValueError(f"{where}: unknown keys: {', '.join(unknown)}")
    return data


def _threshold(label: str, what: str, value: float, tol: float | None) -> int:
    """Exit code of a pass threshold: 1, with a FAIL line, when value > tol."""
    if tol is not None and value > tol:
        print(f"{label}: FAIL {what} above {tol:.3e}")
        return 1
    return 0


def _write_volume(args, name: str, vol: Volume, context: dict) -> int:
    _write_json(_out_dir(args) / name,
                {**vol.to_dict(), "context": {**context, "tol": args.tol}})
    print(f"volume: {vol.closed_form!r} {vol.section!r} "
          f"(spread {vol.spread:.3e})")
    return _threshold("volume", "spread", vol.spread, args.tol)


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
    kinds = args.format
    report = curve.report
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
    curve = ProfileCurve.from_dict(_read_json(args.curve))
    return _profile_artifacts(curve, args, with_curve=False)


# ---------------------------------------------------------------------------
# rotorus
# ---------------------------------------------------------------------------

def _load_form(path: str) -> RotForm:
    return RotForm.from_dict(_read_json(path))


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
        # none-found has value inf and r nan: written as null
        "t_min": {"value": _finite(est.value), "kind": est.kind,
                  "r": _finite(est.r), "heuristic": est.heuristic},
        "volume": vol.to_dict(),
        "context": {"t_max": args.tmax, "q_max": args.qmax}})
    print(f"rotorus: contact margin {margin:.9g}, "
          f"t_min {est.value:.9g} ({est.kind}), "
          f"volume {vol.value:.9g} (spread {vol.spread:.3e})")
    return _threshold("rotorus", "volume spread", vol.spread, args.tol)


def _cmd_rotorus_orbits(args) -> int:
    form = _load_form(args.form)
    records = orbit_enumerate(form, t_max=args.tmax, q_max=args.qmax)
    out = _out_dir(args)
    kinds = args.format
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
    vol = volume(_load_form(args.form))
    return _write_volume(args, "volume.json", vol, {
        "closed_form": "exact per-piece integral of the decided "
                       "W = c'd - cd', times 2 pi P",
        "section": f"integral of tau dalpha over the {vol.section_name} "
                   "section, Gauss exact to degree 5 per knot interval"})


# ---------------------------------------------------------------------------
# disk
# ---------------------------------------------------------------------------

def _load_map(path: str) -> DiskMap:
    return DiskMap.from_dict(_read_json(path))


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
    drift = abs(cal - cal_alt)
    _write_json(_out_dir(args) / "calabi.json", {
        "calabi": cal, "calabi_alt_primitive": cal_alt,
        "primitive_independence": drift,
        "context": {"tol": args.tol,
                    "alt_primitive": "cos(2 theta) bump correction",
                    "calabi": "exact: sum of per-primitive closed forms",
                    "calabi_alt_primitive":
                        "quadrature: integrate_disk of sigma under lam0 + du"}})
    print(f"calabi: {cal!r} (primitive independence {drift:.3e})")
    return _threshold("calabi", "primitive dependence", drift, args.tol)


def _cmd_disk_periodic(args) -> int:
    phi = _load_map(args.map)
    orbits = periodic_points(phi, args.kmax)
    # T is the suspension period at unit fiber: k + action along orbit
    rows = [_map_orbit_row(o, o.period + o.action_sum) for o in orbits]
    out = _out_dir(args)
    kinds = args.format
    if "csv" in kinds:
        _write_text(out / "periodic.csv", _orbit_csv(rows))
    if "json" in kinds:
        _write_json(out / "periodic.json", {
            "orbits": [{"kind": k, "r": r, "p": p, "q": q, "T": T,
                        "r_lo": o.r_lo, "r_hi": o.r_hi}
                       for (k, r, p, q, T), o in zip(rows, orbits)],
            "context": {**orbits.search, "fiber": 1.0,
                        "families": "one entry per family (a newton grid "
                                    "lists a circle of periodic points once "
                                    "per seed that lands on it); r_lo and "
                                    "r_hi bound its radii, equal for a "
                                    "point or circle"}})
    print(f"periodic: {len(rows)} orbit families up to period {args.kmax}")
    return 0


# ---------------------------------------------------------------------------
# plug
# ---------------------------------------------------------------------------

def _read_plug(entry, base: Path = Path()) -> dict:
    """A plug's {L, radius, map}: an inline entry, or the file a path names."""
    where = "inline plug"
    if isinstance(entry, str):
        where = str(base / entry)
        entry = _read_json(where)
    return _checked(entry, where, ("L", "radius", "map"))


def _load_plug(path: str) -> PlugSystem:
    return PlugSystem.from_dict(_read_plug(path))


def _write_report(args, name: str, rep) -> int:
    """The axiom report of verify-a or verify-b, one line per check."""
    _write_json(_out_dir(args) / name, rep.to_dict())
    for c in rep.checks:
        print(f"{c.name}: {'pass' if c.passed else 'FAIL'} "
              f"(margin {c.margin:.3e}) {c.note}")
    return 0 if rep.passed else 1


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
    return _write_report(args, "report_a.json",
                         verify_a(_load_plug(args.plug), args.eps, k_max=args.kmax))


def _cmd_plug_verify_b(args) -> int:
    return _write_report(args, "report_b.json",
                         verify_b(_load_plug(args.plug), args.n, args.eps))


def _cmd_plug_orbits(args) -> int:
    plug = _load_plug(args.plug)
    found = orbit_periods(plug, args.kmax)
    _write_text(_out_dir(args) / "plug_orbits.csv",
                _orbit_csv(_map_orbit_row(orb, T) for orb, T in found))
    print(f"plug: {len(found)} orbits up to k = {args.kmax} ({found.note})")
    return 0


def _cmd_plug_volume(args) -> int:
    plug = _load_plug(args.plug)
    return _write_volume(args, "plug_volume.json",
                         Volume(plug.volume(), plug.volume_quadrature(), "disk"),
                         {"closed_form": "L pi R^2 + CAL",
                          "section": "integral of tau = L + sigma over the disk"})


def _cmd_plug_rescale(args) -> int:
    plug = rescale_plug(_load_plug(args.plug), args.factor)
    _write_plug(_out_dir(args), "plug_rescaled.json", plug)
    print(f"plug: rescaled by {args.factor:g}, L = {plug.L:.9g}, "
          f"radius = {plug.radius:.9g}")
    return 0


def _cmd_plug_realize(args) -> int:
    phi, L = plug_inputs(_read_plug(args.plug))
    if not phi.is_radial:
        raise PlugError("realization needs a radial map")
    form = realize_rotational(phi.combined_profile(), L, phi.radius)
    _write_json(_out_dir(args) / "form.json", form.to_dict())
    print(f"realized: contact margin {contact_check(form):.9g}, "
          f"core period {form.core_period * float(form.d(0.0)):.9g}")
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _cmd_certify_run(args) -> int:
    spec = _checked(_read_json(args.assembly), args.assembly,
                    ("eps", "areas", "tau_bound", "plugs"))
    base = Path(args.assembly).parent
    plugs = [PlugSystem.from_dict(_read_plug(entry, base)) for entry in spec["plugs"]]
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
    bad = [eps for eps in eps_values if not (math.isfinite(eps) and 0.0 < eps < 1.0)]
    if bad:
        raise ValueError(f"eps must be finite and in (0, 1), not {', '.join(map(repr, bad))}")
    if args.ell < 1:
        raise ValueError(f"ell must be at least 1, not {args.ell}")
    entries = []
    for eps in eps_values:
        # identity-map plug with pi R^2 = 0.81 eps: passes a3/a4 at eps
        radius = 0.9 * math.sqrt(eps / math.pi)
        plug = make_plug(DiskMap(radius, ()), 1.0)
        inp = assemble(eps, (1.05,) * args.ell, (plug,) * args.ell, eps / 2.0,
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
        "ell": args.ell, "entries": entries, "monotone_increasing": increasing,
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

def _command(group, name: str, func, help: str) -> argparse.ArgumentParser:
    p = group.add_parser(name, help=help)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=func)
    return p


def _format_flag(p: argparse.ArgumentParser, kinds: str) -> None:
    """--format: a comma list among the artifact kinds this command writes."""
    def chosen(text: str) -> set[str]:
        picked = {k.strip() for k in text.split(",") if k.strip()}
        unknown = picked - set(kinds.split(","))
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown output format: {', '.join(sorted(unknown))} "
                f"(this command writes {kinds})")
        return picked
    p.add_argument("--format", default=kinds, type=chosen,
                   help=f"comma list among {kinds}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each subcommand has
    --out and only the flags its handler reads."""
    parser = argparse.ArgumentParser(
        prog="reebplug",
        description="profiles, rotational Reeb flows, disk-map plugs, "
                    "and systolic-ratio certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    prof = sub.add_parser("profile", help="binding profiles").add_subparsers(
        dest="action", required=True)
    p = _command(prof, "design", _cmd_profile_design,
                 "design a curve from parameters")
    for name in ("s", "delta", "rho", "r0", "r1"):
        p.add_argument(f"--{name}", type=float, required=True)
    _format_flag(p, "json,svg")
    p = _command(prof, "verify", _cmd_profile_verify, "verify a curve file")
    p.add_argument("curve")
    _format_flag(p, "json,svg")

    rot = sub.add_parser("rotorus", help="rotational forms").add_subparsers(
        dest="action", required=True)
    p = _command(rot, "analyze", _cmd_rotorus_analyze,
                 "contact margin, sections, t_min")
    p.add_argument("form")
    p.add_argument("--tmax", type=float, default=5.0)
    p.add_argument("--qmax", type=int, default=8)
    p.add_argument("--tol", type=float, default=None, help="pass threshold")
    p = _command(rot, "orbits", _cmd_rotorus_orbits,
                 "enumerate closed-orbit families")
    p.add_argument("form")
    p.add_argument("--tmax", type=float, default=5.0)
    p.add_argument("--qmax", type=int, default=8)
    _format_flag(p, "json,csv,svg")
    p = _command(rot, "volume", _cmd_rotorus_volume,
                 "the volume and its section cross-check")
    p.add_argument("form")
    p.add_argument("--tol", type=float, default=None, help="pass threshold")

    disk = sub.add_parser("disk", help="area-preserving disk maps")
    dsub = disk.add_subparsers(dest="action", required=True)
    p = _command(dsub, "act", _cmd_disk_act, "action field of a map")
    p.add_argument("map")
    p = _command(dsub, "cal", _cmd_disk_cal, "Calabi invariant")
    p.add_argument("map")
    p.add_argument("--tol", type=float, default=2e-8, help="pass threshold")
    p = _command(dsub, "periodic", _cmd_disk_periodic, "periodic point search")
    p.add_argument("map")
    p.add_argument("--kmax", type=int, default=6)
    _format_flag(p, "json,csv")

    plug = sub.add_parser("plug", help="contact solid-torus plugs")
    psub = plug.add_subparsers(dest="action", required=True)
    p = _command(psub, "build", _cmd_plug_build,
                 "plug from a map and a fiber length")
    p.add_argument("map")
    p.add_argument("--L", type=float, default=1.0)
    p = _command(psub, "verify-a", _cmd_plug_verify_a, "unit-fiber axiom checks")
    p.add_argument("plug")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--kmax", type=int, default=A3_K_MAX)
    p = _command(psub, "verify-b", _cmd_plug_verify_b, "sharpness-n axiom checks")
    p.add_argument("plug")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p = _command(psub, "orbits", _cmd_plug_orbits,
                 "periodic orbits with suspended periods")
    p.add_argument("plug")
    p.add_argument("--kmax", type=int, default=6)
    p = _command(psub, "volume", _cmd_plug_volume, "plug volume, cross-checked")
    p.add_argument("plug")
    p.add_argument("--tol", type=float, default=None, help="pass threshold")
    p = _command(psub, "rescale", _cmd_plug_rescale, "anisotropic rescaling")
    p.add_argument("plug")
    p.add_argument("--factor", type=float, required=True)
    p = _command(psub, "realize", _cmd_plug_realize,
                 "rotational form with this return system")
    p.add_argument("plug")

    cert = sub.add_parser("certify", help="systolic-ratio certificates")
    csub = cert.add_subparsers(dest="action", required=True)
    p = _command(csub, "run", _cmd_certify_run, "certify one assembly file")
    p.add_argument("assembly")
    p.add_argument("--kmax", type=int, default=A3_K_MAX)
    p = _command(csub, "sweep", _cmd_certify_sweep,
                 "certificates along a decreasing eps list")
    p.add_argument("--eps", default="0.01,0.001,0.0001",
                   help="comma list, decreasing")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--kmax", type=int, default=A3_K_MAX)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse refuses bad input with exit code 2
        return exc.code
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
