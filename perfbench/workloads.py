"""The three benchmark workloads: seeded inputs, one pass each, and its checks.

A pass runs a fixed list of operations (CLI commands through
`reebplug.cli.main`, or library calls) and checks every output that the
operation produced against `checks`.  Only the operations are timed; the
checks run between them, outside the timed intervals.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks as ck
# program calls go through module attributes, so that a traced run's
# wrappers (spans.install) see them
from reebplug import cli, diskmap, plug
from reebplug.diskmap import (BumpHarmonic, DiskMap, HamiltonianStep,
                              PrimitiveOneForm, RadialTwist, compose)
from reebplug.numerics import QuadratureSpec, RadialFunction


class Pass:
    """Timing, operation counts and check failures of one pass."""

    def __init__(self, out: Path):
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        self.out = out
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _timed(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failed operation is counted and the pass goes on
            self.wall += time.perf_counter() - t0
            self.failed += 1
            print(f"operation failed: {label}\n{traceback.format_exc()}", file=sys.stderr)
            return None, False
        self.wall += time.perf_counter() - t0
        return result, True

    def cli(self, *args, expect: int = 0) -> bool:
        """Run one CLI command; an exit code other than `expect` is a failure."""
        argv = [str(a) for a in args]
        with contextlib.redirect_stdout(io.StringIO()):
            rc, ok = self._timed(" ".join(argv), cli.main, argv)
        if ok and rc != expect:
            self.failed += 1
            print(f"operation failed: {' '.join(argv)} exited {rc}, expected {expect}",
                  file=sys.stderr)
            return False
        return ok

    def call(self, label: str, fn, *args, **kwargs):
        """Run one library call; returns (result, ok)."""
        return self._timed(label, fn, *args, **kwargs)

    def check(self, label: str, problems: list[str]) -> None:
        self.problems += [f"{label}: {p}" for p in problems]

    def digest(self) -> dict[str, str]:
        """sha256 of every artifact, by path relative to the pass directory."""
        return {str(p.relative_to(self.out)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(self.out.rglob("*")) if p.is_file()}


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# binding_profile: profile design -> verify -> rotorus analyze/orbits/volume
# ---------------------------------------------------------------------------

# the acceptance-test parameter sets (s, delta, rho, r0, r1)
PARAM_SETS = [(0.01, 0.1, 0.5, 0.1, 0.3),
              (0.02, 0.05, 0.8, 0.15, 0.5),
              (0.005, 0.2, 1.0, 0.05, 0.25)]
BIND_TMAX, BIND_QMAX = 12.0, 16   # deeper than the CLI default 5 / 8
S_JITTER = 0.02                   # seeded relative change of the arc height s


def binding_inputs(seed: int, inputs: Path) -> list[dict]:
    rng = random.Random(seed)
    sets = [{"s": s * (1.0 + S_JITTER * rng.uniform(-1.0, 1.0)), "delta": delta,
             "rho": rho, "r0": r0, "r1": r1} for s, delta, rho, r0, r1 in PARAM_SETS]
    _write_json(inputs / "params.json", sets)
    return sets


def binding_pass(sets: list[dict], p: Pass) -> None:
    for i, ps in enumerate(sets):
        d = p.out / f"set{i}"
        rot = d / "rotorus"
        if not p.cli("profile", "design", *[x for k in ("s", "delta", "rho", "r0", "r1")
                                            for x in (f"--{k}", repr(ps[k]))], "--out", d):
            continue
        curve = _json(d / "curve.json")
        p.check(f"set{i} curve", ck.check_profile_curve(curve))
        if curve["params"] != ps:
            p.check(f"set{i} curve", [f"params {curve['params']} != inputs {ps}"])
        p.check(f"set{i} report", ck.check_profile_report(
            _json(d / "profile_report.json"), ps["delta"]))
        form = _json(d / "binding_form.json")
        p.check(f"set{i} form", ck.check_binding_form(form, curve))
        if p.cli("profile", "verify", d / "curve.json", "--out", d / "verify"):
            same = (d / "verify" / "profile_report.json").read_bytes() \
                == (d / "profile_report.json").read_bytes()
            p.check(f"set{i} verify", [] if same else ["verify report differs from design's"])
        scan = ("--tmax", repr(BIND_TMAX), "--qmax", BIND_QMAX, "--out", rot)
        analyzed = p.cli("rotorus", "analyze", d / "binding_form.json", *scan)
        if p.cli("rotorus", "orbits", d / "binding_form.json", *scan):
            records = _json(rot / "orbits.json")["records"]
            p.check(f"set{i} orbits", ck.check_orbit_records(
                records, form, BIND_TMAX, BIND_QMAX, core_T=1.0))
            if analyzed and _json(rot / "analysis.json")["t_min"]["value"] != records[0]["T"]:
                p.check(f"set{i} analyze", ["t_min differs from the shortest orbit record"])
        if p.cli("rotorus", "volume", d / "binding_form.json", "--out", rot):
            vol = _json(rot / "volume.json")
            p.check(f"set{i} volume", ck.check_form_volume(vol, form))
            if analyzed and _json(rot / "analysis.json")["volume"]["closed_form"] \
                    != vol["closed_form"]:
                p.check(f"set{i} analyze", ["analysis volume differs from volume.json"])


# ---------------------------------------------------------------------------
# twist_plug: radial twists through plug / rotorus / certify commands
# ---------------------------------------------------------------------------

# positive twist: passes the a-family at EPS and certifies; its period-2
# resonance circle (2 pi / 2 < A) lies inside the k <= POS_KMAX search
POS_A, POS_S, POS_R, POS_KMAX = 3.5, 0.04, 0.05, 2
# negative twist: sigma(0) = A s^2/8 < 0 fails a3 and b3 at the origin
NEG_A, NEG_S, NEG_R = -2.0, 0.2, 0.6
A_JITTER = 0.01     # seeded relative change of A; no resonance appears or vanishes
FIBER, EPS, SWEEP = 1.0, "0.01", ("0.01", "0.001")
REALIZED_TMAX, REALIZED_QMAX = 3.0, 3


def twist_inputs(seed: int, inputs: Path) -> dict:
    rng = random.Random(seed)
    pos_a = POS_A * (1.0 + A_JITTER * rng.uniform(-1.0, 1.0))
    neg_a = NEG_A * (1.0 + A_JITTER * rng.uniform(-1.0, 1.0))
    pos = DiskMap(POS_R, (RadialTwist(RadialFunction.bump(pos_a, POS_S)),)).to_dict()
    neg = DiskMap(NEG_R, (RadialTwist(RadialFunction.bump(neg_a, NEG_S)),)).to_dict()
    _write_json(inputs / "pos.json", pos)
    _write_json(inputs / "neg.json", neg)
    _write_json(inputs / "assembly.json", {
        "eps": float(EPS), "areas": [1.05], "tau_bound": float(EPS) / 2.0,
        "plugs": [{"L": FIBER, "radius": POS_R, "map": pos}]})
    return {"dir": inputs, "pos": ck.CubicBump(pos_a, POS_S),
            "neg": ck.CubicBump(neg_a, NEG_S)}


def _plug_rows(path: Path) -> list[tuple[float, int, float]]:
    with path.open() as fh:
        return [(float(r["r"]), int(r["q"]), float(r["T"])) for r in csv.DictReader(fh)]


def twist_pass(inp: dict, p: Pass) -> None:
    src, pos, neg = inp["dir"], inp["pos"], inp["neg"]
    P, N, C = p.out / "pos", p.out / "neg", p.out / "certify"
    L = FIBER
    pos_vol = L * math.pi * POS_R ** 2 + pos.calabi()

    if p.cli("plug", "build", src / "pos.json", "--L", L, "--out", P):
        s = _json(P / "plug_summary.json")
        p.check("pos build", ck.check_values("volume", s["volume"], pos_vol, 1e-9)
                + ck.check_values("tau_min", s["tau_min"], L + pos.sigma_min(), 1e-9))
    else:
        return
    plug = P / "plug.json"
    t_min = None
    if p.cli("plug", "verify-a", plug, "--eps", EPS, "--kmax", POS_KMAX, "--out", P):
        rep = _json(P / "report_a.json")
        t_min = rep["t_min"]
        p.check("pos verify-a", ck.check_verdicts(rep, dict.fromkeys(("a1", "a2", "a3", "a4"), True))
                + ck.check_values("volume", rep["volume"], pos_vol, 1e-9))
    if p.cli("plug", "orbits", plug, "--kmax", POS_KMAX, "--out", P):
        rows = _plug_rows(P / "plug_orbits.csv")
        p.check("pos orbits", ck.check_twist_orbits(rows, pos, L, POS_KMAX))
        if t_min is not None and rows and t_min != min(T for _, _, T in rows):
            p.check("pos verify-a", [f"t_min {t_min!r} is not the shortest orbit period"])
    if p.cli("plug", "volume", plug, "--out", P):
        v = _json(P / "plug_volume.json")
        p.check("pos volume", ck.check_values("closed form", v["closed_form"], pos_vol, 1e-9)
                + ([] if v["spread"] <= 1e-9 else [f"volume spread {v['spread']:.3e}"]))
    if p.cli("plug", "realize", plug, "--out", P):
        form = _json(P / "form.json")
        p.check("pos realize", ck.check_realized_form(form, pos, L, POS_R))
        rot = P / "rotorus"
        if p.cli("rotorus", "orbits", P / "form.json", "--tmax", REALIZED_TMAX,
                 "--qmax", REALIZED_QMAX, "--out", rot):
            p.check("realized orbits", ck.check_orbit_records(
                _json(rot / "orbits.json")["records"], form, REALIZED_TMAX,
                REALIZED_QMAX, core_T=L + float(pos.sigma(0.0))))
        if p.cli("rotorus", "volume", P / "form.json", "--out", rot):
            p.check("realized volume", ck.check_form_volume(
                _json(rot / "volume.json"), form, expected=pos_vol))
    if p.cli("certify", "run", src / "assembly.json", "--kmax", 1, "--out", C):
        p.check("certify run", ck.check_certificate(_json(C / "certificate.json"), 1, EPS))
    if p.cli("certify", "sweep", "--eps", ",".join(SWEEP), "--ell", 1, "--kmax", 1,
             "--out", C):
        p.check("certify sweep", ck.check_sweep(_json(C / "sweep.json"), 1, list(SWEEP)))

    neg_vol = L * math.pi * NEG_R ** 2 + neg.calabi()
    sig0 = float(neg.sigma(0.0))
    if p.cli("plug", "build", src / "neg.json", "--L", L, "--out", N):
        s = _json(N / "plug_summary.json")
        p.check("neg build", ck.check_values("volume", s["volume"], neg_vol, 1e-9)
                + ck.check_values("tau_min", s["tau_min"], L + sig0, 1e-9))
    else:
        return
    if p.cli("plug", "verify-a", N / "plug.json", "--eps", EPS, "--kmax", 1,
             "--out", N, expect=1):
        rep = _json(N / "report_a.json")
        p.check("neg verify-a", ck.check_verdicts(
            rep, {"a1": True, "a2": True, "a3": False, "a4": neg_vol < float(EPS)})
            + ck.check_origin_witness(rep, "a3")
            + ck.check_values("t_min", rep["t_min"], L + sig0, 1e-9))
    if p.cli("plug", "verify-b", N / "plug.json", "--n", 1, "--eps", EPS,
             "--out", N, expect=1):
        rep = _json(N / "report_b.json")
        margin = {c["name"]: c["margin"] for c in rep["checks"]}["b3"]
        p.check("neg verify-b", ck.check_verdicts(rep, {
            "b1": sig0 >= 0.0,   # floor -L + L/n = 0 at n = 1
            "b2": neg.calabi() < -L * math.pi * NEG_R ** 2 + float(EPS),
            "b3": False, "b4": True})
            + ck.check_origin_witness(rep, "b3")
            + ck.check_values("b3 margin", margin, -sig0, 1e-9))


# ---------------------------------------------------------------------------
# ham_plug: library calls on bump-harmonic Hamiltonian steps
# ---------------------------------------------------------------------------

HAM_A, HAM_T, HAM_COEF, HAM_POWER = 0.3, 0.1, 0.05, 4
TWIST_A = -1.0                       # smoothstep twist composed with the m = 2 step
DU_TERM = {"m": 2, "trig": "sin", "coef": 0.02, "support": HAM_A, "power": 4}
N_POINTS = 6                         # seeded action / map probes
CAL_SPEC = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8)
CAL_TOL = 1e-9
PLUG_GRID = (12, 8)                  # make_plug n_r x n_theta (default 256 x 64)
PERIODIC = (1, 4, 4)                 # periodic_points k_max, n_r, n_theta
COEF_JITTER = 0.01


def _term(m: int, trig: str, coef: float) -> dict:
    return {"m": m, "trig": trig, "coef": coef, "support": HAM_A, "power": HAM_POWER}


def ham_inputs(seed: int, inputs: Path) -> dict:
    rng = random.Random(seed)
    t0 = _term(0, "cos", HAM_COEF * (1.0 + COEF_JITTER * rng.uniform(-1.0, 1.0)))
    t2 = _term(2, "cos", HAM_COEF * (1.0 + COEF_JITTER * rng.uniform(-1.0, 1.0)))
    # probes uniform in area inside 0.9 of the support
    rad = 0.9 * HAM_A * np.sqrt([rng.random() for _ in range(N_POINTS)])
    ang = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(N_POINTS)]
    points = rad * np.exp(1j * np.asarray(ang))
    _write_json(inputs / "ham.json", {"m0": t0, "m2": t2, "du": DU_TERM,
                                      "points": [[z.real, z.imag] for z in points]})
    step0 = HamiltonianStep((BumpHarmonic.from_dict(t0),), time=HAM_T)
    step2 = HamiltonianStep((BumpHarmonic.from_dict(t2),), time=HAM_T)
    twist = RadialFunction(np.array([0.0, HAM_A]), np.array([TWIST_A, 0.0]),
                           np.zeros(2), parity="even")
    return {"t0": t0, "t2": t2, "points": points,
            "h0": DiskMap(HAM_A, (step0,)), "h2": DiskMap(HAM_A, (step2,)),
            "comp": compose(DiskMap(HAM_A, (RadialTwist(twist),)), DiskMap(HAM_A, (step2,))),
            "twist": ck.Smoothstep(TWIST_A, HAM_A),
            "du": PrimitiveOneForm((BumpHarmonic.from_dict(DU_TERM),))}


def ham_pass(inp: dict, p: Pass) -> None:
    pts = inp["points"]
    t0, t2 = [inp["t0"]], [inp["t2"]]
    if "flows" not in inp:   # reference flows at the probes, once per run
        inp["flows"] = ([ck.flow_with_action(t0, HAM_T, z) for z in pts],
                        [ck.flow_with_action(t2, HAM_T, z) for z in pts])
    flows0, flows2 = inp["flows"]

    sig, ok = p.call("action h0", lambda: diskmap.action(inp["h0"])(pts))
    if ok:
        p.check("action h0", ck.check_values("sigma", sig, [a for _, a in flows0], 1e-8))
    sig, ok = p.call("action h2", lambda: diskmap.action(inp["h2"])(pts))
    if ok:
        p.check("action h2", ck.check_values("sigma", sig, [a for _, a in flows2], 1e-8))
    sig, ok = p.call("action comp", lambda: diskmap.action(inp["comp"])(pts))
    if ok:
        # cocycle: sigma_twist(phi_H(z)) + sigma_H(z)
        want = [float(inp["twist"].sigma(abs(w))) + a for w, a in flows2]
        p.check("action comp", ck.check_values("sigma", sig, want, 1e-8))
    res, ok = p.call("map h2", inp["h2"].evaluate_with_differential, pts)
    if ok:
        w, J = res
        H = ck.ham_value_grad(t2, pts.real, pts.imag)[0]
        Hw = ck.ham_value_grad(t2, w.real, w.imag)[0]
        p.check("map h2", ck.check_values("phi", np.abs(w - [f for f, _ in flows2]),
                                          np.zeros(len(pts)), 1e-9)
                + ck.check_values("H(phi(z))", Hw, H, 1e-12)
                + ck.check_values("det D phi", np.linalg.det(J), np.ones(len(pts)), 1e-9))

    cal0 = ck.bump_calabi(inp["t0"], HAM_T)
    c_lam0, ok0 = p.call("calabi h0", diskmap.calabi, inp["h0"], spec=CAL_SPEC)
    if ok0:
        p.check("calabi h0", ck.check_values("CAL", c_lam0, cal0, CAL_TOL))
    c_du, ok = p.call("calabi h0 du", diskmap.calabi, inp["h0"], inp["du"], spec=CAL_SPEC)
    if ok:
        p.check("calabi h0 du", ck.check_values("CAL", c_du, cal0, CAL_TOL)
                + (ck.check_values("CAL lam0 vs lam0 + du", c_du, c_lam0, CAL_TOL) if ok0 else []))
    # the m = 2 step enters through the composition: CAL is additive, so
    # CAL(twist o H2) = CAL(twist) + 0
    c, ok = p.call("calabi comp", diskmap.calabi, inp["comp"], spec=CAL_SPEC)
    if ok:
        p.check("calabi comp", ck.check_values(
            "CAL", c, inp["twist"].calabi() + ck.bump_calabi(inp["t2"], HAM_T), CAL_TOL))

    n_r, n_theta = PLUG_GRID
    built, ok = p.call("make_plug h2", plug.make_plug, inp["h2"], FIBER,
                       n_r=n_r, n_theta=n_theta)
    if ok:
        z_at = complex(built.tau_argmin)
        own_at = FIBER + ck.flow_with_action(t2, HAM_T, z_at)[1]
        # the minimum runs over the program's own polar grid, so it can be
        # no larger than tau at any grid node
        grid = [HAM_A * (i + 1) / n_r * complex(math.cos(2 * math.pi * j / n_theta),
                                                math.sin(2 * math.pi * j / n_theta))
                for i, j in ((n_r - 1, 0), (n_r // 2, n_theta // 4), (1, n_theta // 2))]
        own_grid = [FIBER + ck.flow_with_action(t2, HAM_T, z)[1] for z in grid]
        p.check("make_plug h2", ck.check_values("tau_min", built.tau_min, own_at, 1e-8)
                + [f"tau_min {built.tau_min!r} above tau {v!r} at grid node {z!r}"
                   for z, v in zip(grid, own_grid) if built.tau_min > v + 1e-10])

    k_max, n_r, n_theta = PERIODIC
    orbs, ok = p.call("periodic_points h2", diskmap.periodic_points, inp["h2"], k_max,
                      n_r=n_r, n_theta=n_theta)
    if ok:
        p.check("periodic_points h2", ck.check_closed_orbits(
            [(o.point, o.period, o.action_sum) for o in orbs], t2, HAM_T)
            + ([] if orbs else ["no periodic orbit returned"]))


WORKLOADS = {
    "binding_profile": (binding_inputs, binding_pass),
    "twist_plug": (twist_inputs, twist_pass),
    "ham_plug": (ham_inputs, ham_pass),
}
