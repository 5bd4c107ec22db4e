"""End-to-end acceptance checks, one per advertised guarantee.

Each test covers one numbered guarantee at its stated tolerance, prints
a single pass/fail line (run pytest with -s to see the lines on fully
passing runs), and asserts the same condition:

1. volume identity on varied radial-twist plugs: both volume legs of the
   realized form against L pi R^2 + CAL
2. Reeb field correctness and ODE flow against the closed form
3. return-time and angle-shift formulas on the boundary model
4. profile designer meets B1-B5 with room and the tau bounds
5. action and Calabi calculus laws
6. period dictionary between the 3D flow and the 2D return map
7. axiom verifier soundness on planted violations
8. exact-arithmetic certificate values and the monotone sweep
9. byte-identical report files across repeated runs
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from reebplug.certify import assemble, bound_formula, systolic_bound
from reebplug.cli import main as cli_main
from reebplug.diskmap import (ActionField, BumpHarmonic, DiskMap,
                              HamiltonianStep, PrimitiveOneForm, RadialTwist,
                              action, calabi, compose,
                              rescale)
from reebplug.numerics import QuadratureSpec, RadialFunction, find_root_1d
from reebplug.plug import PlugError, make_plug, realize_rotational, verify_a, verify_b
from reebplug.profile import (ProfileParams, TauProfile, design_profile,
                              tau_profile, to_rotform, verify_profile)
from reebplug.rotorus import (alpha_pairing, dalpha_contraction, ode_check,
                              orbit_enumerate, reeb_field, return_system,
                              volume)

PARAM_SETS = [
    (0.01, 0.1, 0.5, 0.1, 0.3),
    (0.02, 0.05, 0.8, 0.15, 0.5),
    (0.005, 0.2, 1.0, 0.05, 0.25),
]

# (amplitude, support, L, R): twist shape, fiber length, plug radius
TWIST_CONFIGS = [
    (-4.0, 1.0, 1.0, 1.0),
    (-2.0, 0.7, 0.5, 1.0),
    (3.0, 0.9, 2.0, 1.2),
    (-1.5, 0.5, 1.0, 0.8),
    (-6.0, 0.8, 2.0, 1.0),
]

_SUITE: list = []
_BINDING: list = []


def twist_suite():
    """Five varied radial-twist plugs with their realized forms, memoized."""
    if not _SUITE:
        for amp, support, L, R in TWIST_CONFIGS:
            rho = RadialFunction.bump(amp, support)
            plug = make_plug(DiskMap(R, (RadialTwist(rho),)), L)
            form = realize_rotational(rho, L=L, R=R)
            _SUITE.append((plug, form))
    return _SUITE


def binding_curve():
    if not _BINDING:
        _BINDING.append(design_profile(ProfileParams(*PARAM_SETS[0])))
    return _BINDING[0]


def report(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_volume_identity():
    t0 = time.perf_counter()
    worst_spread = 0.0
    worst_closed = 0.0
    for plug, form in twist_suite():
        closed = plug.L * math.pi * plug.radius ** 2 + calabi(plug.map)
        vol = volume(form)
        values = [vol.closed_form, vol.section]
        worst_spread = max(worst_spread, vol.spread)
        worst_closed = max(worst_closed,
                           max(abs(v - closed) for v in values))
    elapsed = time.perf_counter() - t0
    ok = worst_spread < 1e-6 and worst_closed < 1e-7 and elapsed < 30.0
    report(1, ok, f"{len(TWIST_CONFIGS)} plugs, pairwise rel spread "
                  f"{worst_spread:.2e}, vs L pi R^2 + CAL {worst_closed:.2e}, "
                  f"{elapsed:.1f} s")


def test_criterion_2_reeb_correctness():
    forms = [to_rotform(binding_curve())] + [f for _, f in twist_suite()[:3]]
    pair_err = 0.0
    contr_err = 0.0
    flow_err = 0.0
    for form in forms:
        rr = np.linspace(0.0, form.radius * (1.0 - 1e-9), 1000)
        for r in rr:
            v = reeb_field(form, (float(r), 0.3, 0.7))
            pair_err = max(pair_err,
                           abs(alpha_pairing(form, float(r), v) - 1.0))
            contr = dalpha_contraction(form, float(r), v)
            contr_err = max(contr_err, float(np.max(np.abs(contr))))
        horizon = 10.0 * form.core_period * float(form.d(0.0))
        for frac in (0.35, 0.6, 0.85):
            start = (frac * form.radius, 0.2, -0.4)
            flow_err = max(flow_err, ode_check(form, start, horizon))
    ok = pair_err < 1e-10 and contr_err < 1e-10 and flow_err < 1e-6
    report(2, ok, f"4 forms x 1000 points: |alpha(R)-1| {pair_err:.2e}, "
                  f"|i_R dalpha| {contr_err:.2e}, ODE vs closed flow "
                  f"{flow_err:.2e} over 10 fiber periods")


def test_criterion_3_return_formulas():
    curve = binding_curve()
    p = curve.params
    form = to_rotform(curve)
    rs = return_system(form, "disk-angle")
    tau = TauProfile(curve)

    rr = np.linspace(0.0, p.rho, 2000)
    tau_err = float(np.max(np.abs(rs.tau(rr) - tau(rr))))

    inner = rr[rr > 0.0]
    fp = curve.f.derivative(inner)
    gp = curve.g.derivative(inner)
    shift_err = float(np.max(np.abs(rs.shift(inner)
                                    - (-2.0 * math.pi * fp / gp))))

    line = np.linspace(0.0, p.r0, 400)
    tau_line = float(np.max(np.abs(rs.tau(line) - 1.0)))
    # the shift is an angle: -2 pi and +2 pi are the same rotation
    shifts = rs.shift(line)
    shift_line = float(np.max(np.abs(
        shifts - 2.0 * math.pi * np.round(shifts / (2.0 * math.pi)))))
    full_turn = float(np.max(np.abs(np.abs(shifts) - 2.0 * math.pi)))
    edge = abs(rs.tau(p.rho) - 1.0 / (1.0 + p.delta))

    ok = max(tau_err, shift_err, tau_line, shift_line, full_turn,
             edge) < 1e-10
    report(3, ok, f"tau formula {tau_err:.2e}, shift formula "
                  f"{shift_err:.2e}; on [0, r0] tau = 1 to {tau_line:.2e} "
                  f"and shift = -2 pi (mod 2 pi) to {shift_line:.2e}; "
                  f"tau(rho) = 1/(1+delta) to {edge:.2e}")


def test_criterion_4_profile_design():
    worst_room = math.inf
    worst_att = 0.0
    for ps in PARAM_SETS:
        params = ProfileParams(*ps)
        curve = design_profile(params)
        rep = verify_profile(curve)
        assert rep.passed
        # margins are violation sizes: strictly negative means room
        worst_room = min(worst_room, min(-c.margin for c in rep.conditions
                                         if c.name.startswith("B")))
        _, tau_rep = tau_profile(curve)
        bound = params.delta / (1.0 + params.delta)
        assert tau_rep.passed
        assert tau_rep.max_value <= 1.0 + 1e-10
        assert tau_rep.min_value >= 1.0 / (1.0 + params.delta) - 1e-10
        assert tau_rep.monotone_margin <= 1e-10
        worst_att = max(worst_att,
                        abs(tau_rep.sup_deviation - bound) / bound)
    ok = worst_room > 0.0 and worst_att <= 0.05
    report(4, ok, f"{len(PARAM_SETS)} parameter sets, smallest condition "
                  f"room {worst_room:.2e}, sup|tau-1| off its bound by "
                  f"{100.0 * worst_att:.2f}%")


def test_criterion_5_action_calabi_calculus():
    # quadrature at 1e-9, one order below the advertised tolerances
    spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)
    alt = PrimitiveOneForm((BumpHarmonic(2, "cos", 0.05, 0.75),))
    twist = DiskMap(1.0, (RadialTwist(RadialFunction.bump(-3.0, 0.8)),))
    ham = DiskMap(1.0, (HamiltonianStep(
        (BumpHarmonic(2, "cos", 0.08, 0.7),), time=1.0),))

    cal_lam = max(abs(calabi(twist, alt, spec) - calabi(twist)),
                  abs(calabi(ham, alt, spec) - calabi(ham, spec=spec)))

    # fixed points: the -2 pi circle of a strong twist, the origin of
    # the Hamiltonian step
    strong = DiskMap(1.0, (RadialTwist(RadialFunction.bump(-7.0, 1.0)),))
    prof = strong.combined_profile()
    r_star = find_root_1d(lambda r: prof(r) + 2.0 * math.pi,
                          bracket=(0.1, 0.3))
    z_star = r_star * complex(math.cos(0.4), math.sin(0.4))
    assert abs(strong.evaluate(z_star) - z_star) < 1e-12
    assert abs(ham.evaluate(0.0j)) < 1e-12
    fix_lam = max(
        abs(complex(ActionField(strong, alt)(z_star)).real
            - complex(action(strong)(z_star)).real),
        abs(complex(ActionField(ham, alt)(0.0j)).real
            - complex(action(ham)(0.0j)).real))

    # the homomorphism on a radial pair, where CAL is an exact Gauss
    # sum, backed by the pointwise cocycle rule on a non-radial pair
    pair = (DiskMap(1.0, (RadialTwist(RadialFunction.bump(1.1, 1.0)),)),
            DiskMap(1.0, (RadialTwist(RadialFunction.bump(-0.6, 0.8)),)))
    comp = abs(calabi(compose(*pair)) - (calabi(pair[0]) + calabi(pair[1])))
    probe = np.array([0.2 + 0.1j, 0.45 - 0.3j, 0.05 + 0.6j, -0.5 - 0.2j])
    cocycle = float(np.max(np.abs(
        action(compose(twist, ham))(probe)
        - (action(twist)(ham.evaluate(probe)) + action(ham)(probe)))))

    factor = 0.6
    small = rescale(twist, factor)
    sig = action(twist)
    sig_small = action(small)
    zz = np.array([0.1, 0.3 + 0.2j, 0.55j, -0.7 + 0.1j, 0.45 - 0.45j])
    target = factor ** 2 * sig(zz)
    scale_sigma = float(np.max(np.abs(sig_small(factor * zz) - target))
                        / np.max(np.abs(target)))
    cal_t = calabi(twist)
    scale_cal = abs(calabi(small) - factor ** 4 * cal_t) \
        / abs(factor ** 4 * cal_t)

    path = max(float(sig.path_independence_check(z)) for z in zz)

    ok = (cal_lam < 2e-8 and fix_lam < 2e-8 and comp < 1e-7
          and cocycle < 1e-7 and scale_sigma < 1e-8 and scale_cal < 1e-7
          and path < 1e-8)
    report(5, ok, f"CAL lam-independence {cal_lam:.2e}, fixed-point "
                  f"actions {fix_lam:.2e}, composition {comp:.2e} "
                  f"(cocycle {cocycle:.2e}), scaling "
                  f"{scale_sigma:.2e}/{scale_cal:.2e}, path-integrated "
                  f"sigma {path:.2e}")


def test_criterion_6_period_dictionary():
    cases = [twist_suite()[0], twist_suite()[4]]
    for amp, support in ((-2.0 * math.pi * 1.4, 0.9), (-3.5, 0.8)):
        rho = RadialFunction.bump(amp, support)
        plug = make_plug(DiskMap(1.0, (RadialTwist(rho),)), 1.0)
        cases.append((plug, realize_rotational(rho, L=1.0, R=1.0)))

    worst = 0.0
    n_records = 0
    n_resonant = 0
    for plug, form in cases:
        records = orbit_enumerate(form, t_max=3.2, q_max=3)
        assert records
        for rec in records:
            assert rec.q >= 1, "no pure page orbits can occur here"
            z = complex(rec.r, 0.0)
            total = 0.0
            for _ in range(rec.q):
                total += float(plug.tau(z))
                z = complex(plug.map.evaluate(z))
            worst = max(worst, abs(rec.period - total))
            n_records += 1
            if rec.kind == "resonant-torus" and not rec.is_band():
                n_resonant += 1
    ok = worst < 1e-8 and n_resonant >= 3
    report(6, ok, f"{n_records} orbit families on {len(cases)} plugs "
                  f"({n_resonant} isolated resonances), 3D period vs "
                  f"2D tau sums {worst:.2e}")


def test_criterion_7_verifier_soundness():
    notes = []

    # every negative radial twist must fail b3 with the origin witness
    for amp, support, radius in [(-0.5, 0.6, 1.0), (-2.0, 1.0, 1.0),
                                 (-5.0, 0.8, 1.0), (-0.05, 0.3, 0.5)]:
        phi = DiskMap(radius, (RadialTwist(RadialFunction.bump(amp, support)),))
        rep = verify_b(make_plug(phi, 1.0), n=2, eps=10.0)
        b3 = rep.check("b3")
        assert not b3.passed and not rep.passed
        assert math.hypot(*b3.witness) < 1e-6
    notes.append("b3 fails on 4/4 negative twists at the origin")

    # identity plugs pass the a-family exactly when pi r^2 < eps
    for radius, eps, expect in [(0.05, 0.01, True), (0.06, 0.01, False),
                                (0.5, 0.8, True), (0.5, 0.7, False)]:
        rep = verify_a(make_plug(DiskMap(radius, ()), 1.0), eps, k_max=2)
        assert rep.passed is expect
        assert rep.check("a4").passed is (math.pi * radius ** 2 < eps)
    notes.append("a4 iff pi r^2 < eps on 4/4 identity plugs")

    # planted violations, one per remaining axiom.  sigma(0) = -1 makes
    # tau(0) = 0, which is no plug; sigma(0) = -0.875 is a plug whose b1
    # floor at n = 4 is -0.75
    deep = DiskMap(1.0, (RadialTwist(RadialFunction.bump(-8.0, 1.0)),))
    with pytest.raises(PlugError, match="tau"):
        make_plug(deep, 1.0)
    below = make_plug(DiskMap(1.0, (RadialTwist(RadialFunction.bump(-7.0, 1.0)),)), 1.0)
    b1 = verify_b(below, n=4, eps=10.0).check("b1")
    assert not b1.passed and math.hypot(*b1.witness) < 1e-6

    fat = verify_b(make_plug(DiskMap(1.0, ()), 1.0), n=2, eps=1e-6).check("b2")
    assert not fat.passed  # CAL = 0 cannot undercut -pi + 1e-6

    shallow = DiskMap(1.0, (RadialTwist(RadialFunction.bump(-4.0, 1.0)),))
    r2 = math.sqrt(1.0 - (math.pi / 4.0) ** (1.0 / 3.0))
    b4 = verify_b(make_plug(shallow, 1.0), n=3, eps=10.0).check("b4")
    assert not b4.passed and abs(math.hypot(*b4.witness) - r2) < 1e-6

    slow = make_plug(DiskMap(0.12, (RadialTwist(
        RadialFunction.bump(-2.0, 0.1)),)), 1.0)
    rep = verify_a(slow, eps=0.05, k_max=2)
    a3 = rep.check("a3")
    assert rep.check("a4").passed
    assert not a3.passed and math.hypot(*a3.witness) < 1e-6
    notes.append("planted b1/b2/b4/a3 violations caught with witnesses")

    report(7, True, "; ".join(notes))


def test_criterion_8_certificate_arithmetic():
    plugs = {0.01: make_plug(DiskMap(0.05, ()), 1.0),
             0.001: make_plug(DiskMap(0.015, ()), 1.0),
             0.04: make_plug(DiskMap(0.1, ()), 1.0)}
    frozen = [(1, 0.01, Fraction(9801, 400), 24.5025),
              (1, 0.001, Fraction(998001, 4000), 249.500),
              (2, 0.04, Fraction(576, 175), 3.2914)]

    t0 = time.perf_counter()
    for ell, eps, exact, approx in frozen:
        inp = assemble(eps, [1.05] * ell, [plugs[eps]] * ell,
                       tau_bound=eps / 2.0, k_max=2)
        cert = systolic_bound(inp)
        assert cert.ratio_exact == exact
        assert cert.ratio_float == pytest.approx(approx, abs=5e-4)
        assert cert.ratio_exact == bound_formula(ell, eps)
        # the whole chain re-verifies step by step in exact arithmetic
        for step in cert.trace:
            assert isinstance(step.lhs, Fraction)
            assert isinstance(step.rhs, Fraction)
            assert step.holds
    sweep = [bound_formula(1, e) for e in (0.02, 0.01, 0.005, 0.001, 0.0005)]
    monotone = all(a < b for a, b in zip(sweep, sweep[1:]))
    elapsed = time.perf_counter() - t0

    ok = monotone and elapsed < 1.0
    report(8, ok, f"3 frozen bounds re-checked exactly "
                  f"(24.5025 = 9801/400, ...), sweep strictly increasing "
                  f"over 5 eps values, {elapsed * 1000.0:.0f} ms")


def _run_pipeline(inputs: Path, out: Path) -> None:
    runs = [
        ["profile", "design", "--s", "0.01", "--delta", "0.1",
         "--rho", "0.5", "--r0", "0.1", "--r1", "0.3",
         "--out", str(out / "profile")],
        ["rotorus", "analyze", str(out / "profile" / "binding_form.json"),
         "--tmax", "2.5", "--qmax", "2",
         "--out", str(out / "rotorus")],
        ["rotorus", "orbits", str(out / "profile" / "binding_form.json"),
         "--tmax", "2.5", "--qmax", "2",
         "--out", str(out / "rotorus")],
        ["disk", "act", str(inputs / "map.json"), "--out", str(out / "disk")],
        ["disk", "periodic", str(inputs / "map.json"), "--kmax", "2",
         "--out", str(out / "disk")],
        ["plug", "build", str(inputs / "map.json"), "--L", "1.0",
         "--out", str(out / "plug")],
        ["plug", "verify-a", str(out / "plug" / "plug.json"),
         "--eps", "0.2", "--kmax", "2", "--out", str(out / "plug")],
        ["plug", "orbits", str(out / "plug" / "plug.json"), "--kmax", "2",
         "--out", str(out / "plug")],
        ["certify", "run", str(inputs / "assembly.json"), "--kmax", "3",
         "--out", str(out / "certify")],
        ["certify", "sweep", "--eps", "0.01,0.001", "--ell", "1",
         "--kmax", "2", "--out", str(out / "certify")],
    ]
    for args in runs:
        assert cli_main(args) == 0, " ".join(args)


def test_criterion_9_determinism(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    # positive twist: sigma >= 0, so the a-family checks pass at eps = 0.2
    small = DiskMap(0.25, (RadialTwist(RadialFunction.bump(1.0, 0.2)),))
    (inputs / "map.json").write_text(json.dumps(small.to_dict()))
    (inputs / "assembly.json").write_text(json.dumps(
        {"eps": 0.01, "areas": [1.05], "tau_bound": 0.005,
         "plugs": [{"L": 1.0, "radius": 0.05,
                    "map": DiskMap(0.05, ()).to_dict()}]}))

    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        _run_pipeline(inputs, out)
        outs.append({p.relative_to(out): p.read_bytes()
                     for p in sorted(out.rglob("*")) if p.is_file()})
    same_names = set(outs[0]) == set(outs[1])
    diffs = [str(k) for k in outs[0] if outs[0][k] != outs[1].get(k)]
    ok = same_names and not diffs and len(outs[0]) >= 15
    report(9, ok, f"two pipeline runs, {len(outs[0])} report files each, "
                  f"{'byte-identical' if not diffs else 'DIFF: ' + ', '.join(diffs)}")
