"""Tests of the benchmark's own checks: each must pass on correct output and
fail on a planted wrong one.  Run with

    python3 -m pytest perfbench/test_checks.py
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks as ck  # noqa: E402
import spans  # noqa: E402
from reebplug import diskmap, profile, rotorus  # noqa: E402
from reebplug.diskmap import (BumpHarmonic, DiskMap, HamiltonianStep,  # noqa: E402
                              RadialTwist)
from reebplug.numerics import RadialFunction  # noqa: E402
from reebplug.plug import realize_rotational  # noqa: E402


# -- radial twists ------------------------------------------------------------

TW = ck.CubicBump(3.5, 0.04)
L = 1.0


def twist_rows():
    rows = [(0.0, 1, L + float(TW.sigma(0.0))), (0.045, 1, L)]
    rows += [(r, k, k * (L + float(TW.sigma(r)))) for k, _, r in TW.circles(2)]
    return rows


def test_twist_orbits_accepts_closed_form_table():
    assert TW.circles(2) and ck.check_twist_orbits(twist_rows(), TW, L, 2) == []


@pytest.mark.parametrize("plant", ["radius", "period", "missing"])
def test_twist_orbits_rejects_planted_error(plant):
    rows = twist_rows()
    r, k, T = rows[-1]
    if plant == "radius":
        rows[-1] = (r + 1e-6, k, T)
    elif plant == "period":
        rows[-1] = (r, k, T + 1e-6)
    else:
        rows.pop()
    assert ck.check_twist_orbits(rows, TW, L, 2)


def test_twist_closed_forms_match_the_program():
    phi = DiskMap(0.05, (RadialTwist(RadialFunction.bump(TW.A, TW.s)),))
    rr = np.linspace(0.0, 0.05, 41)
    assert ck.check_values("sigma", diskmap.action(phi).radial_profile(rr),
                           TW.sigma(rr), 1e-12) == []
    cal = diskmap.calabi(phi)
    assert ck.check_values("CAL", cal, TW.calabi(), 1e-12) == []
    assert ck.check_values("CAL", cal + 1e-6, TW.calabi(), 1e-9)


def test_realized_form_rejects_planted_sigma():
    rho = RadialFunction.bump(TW.A, TW.s)
    form = realize_rotational(rho, L=L, R=0.05, n_knots=257).to_dict()
    assert ck.check_realized_form(form, TW, L, 0.05) == []
    form["d"]["values"][10] += 1e-6
    assert ck.check_realized_form(form, TW, L, 0.05)


# -- certificates ---------------------------------------------------------------

def cert_dict(ratio: Fraction) -> dict:
    e = Fraction("0.01")
    return {"ratio": {"exact": str(ratio)}, "total_bound": {"exact": str(4 * e)},
            "t_min_bound": {"exact": str(1 - e)}, "trace": [{"holds": True}]}


def test_certificate_ratio_is_the_exact_formula():
    assert ck.certificate_ratio(1, "0.01") == Fraction(9801, 400)
    assert ck.check_certificate(cert_dict(Fraction(9801, 400)), 1, "0.01") == []
    assert ck.check_certificate(cert_dict(Fraction(9801, 400) + Fraction(1, 10 ** 9)),
                                1, "0.01")


def test_sweep_rejects_planted_ratio():
    entries = [{"ratio_exact": str(ck.certificate_ratio(1, e))} for e in ("0.01", "0.001")]
    good = {"entries": entries, "monotone_increasing": True}
    assert ck.check_sweep(good, 1, ["0.01", "0.001"]) == []
    entries[1] = {"ratio_exact": str(ck.certificate_ratio(1, "0.001") - Fraction(1, 10 ** 9))}
    assert ck.check_sweep(good, 1, ["0.01", "0.001"])


def test_verdicts_and_witness():
    rep = {"checks": [{"name": "a3", "passed": False, "witness": [0.0, 0.0]}]}
    assert ck.check_verdicts(rep, {"a3": False}) == []
    assert ck.check_verdicts(rep, {"a3": True})
    assert ck.check_origin_witness(rep, "a3") == []
    rep["checks"][0]["witness"] = [1e-3, 0.0]
    assert ck.check_origin_witness(rep, "a3")


# -- binding profile ------------------------------------------------------------

@pytest.fixture(scope="module")
def binding():
    curve = profile.design_profile(profile.ProfileParams(0.01, 0.1, 0.5, 0.1, 0.3))
    form = profile.to_rotform(curve)
    records = [{"kind": r.kind, "r": r.r, "p": r.p, "q": r.q, "T": r.period,
                "r_lo": r.r_lo, "r_hi": r.r_hi}
               for r in rotorus.orbit_enumerate(form, t_max=5.0, q_max=4)]
    triple = rotorus.volume(form)
    return (curve.to_dict(), form.to_dict(), records,
            {"closed_form": triple.closed_form, "section": triple.section})


def test_binding_checks_accept_program_output(binding):
    curve, form, records, vol = binding
    assert ck.check_profile_curve(curve) == []
    assert ck.check_binding_form(form, curve) == []
    assert ck.check_orbit_records(records, form, 5.0, 4, core_T=1.0) == []
    assert ck.check_form_volume(vol, form) == []


def test_profile_curve_rejects_planted_violations(binding):
    curve = binding[0]
    bad_b2 = {**curve, "g": {**curve["g"], "derivs": list(curve["g"]["derivs"])}}
    bad_b2["g"]["derivs"][2] = 0.5          # g' > 0 at r0
    assert any(m.startswith("B2") for m in ck.check_profile_curve(bad_b2))
    bad_b1 = {**curve, "f": {**curve["f"], "values": list(curve["f"]["values"])}}
    bad_b1["f"]["values"][-1] += 1e-6       # off the B1 arc
    assert any(m.startswith("B1") for m in ck.check_profile_curve(bad_b1))


@pytest.mark.parametrize("field,delta", [("T", 1e-6), ("r", 1e-6)])
def test_orbit_records_reject_planted_error(binding, field, delta):
    _, form, records, _ = binding
    # an isolated resonance: inside a band every radius is resonant
    i = next(i for i, r in enumerate(records)
             if r["kind"] != "core" and r["r_lo"] == r["r_hi"])
    planted = [dict(r) for r in records]
    planted[i][field] += delta
    assert ck.check_orbit_records(planted, form, 5.0, 4, core_T=1.0)


def test_volume_rejects_planted_leg(binding):
    _, form, _, vol = binding
    assert ck.check_form_volume({**vol, "section": vol["section"] + 1e-6}, form)
    assert ck.check_form_volume({**vol, "closed_form": vol["closed_form"] + 1e-6}, form)


# -- Hamiltonian steps ------------------------------------------------------------

TERM0 = {"m": 0, "trig": "cos", "coef": 0.05, "support": 0.3, "power": 4}
TERM2 = {"m": 2, "trig": "cos", "coef": 0.05, "support": 0.3, "power": 4}


def test_own_gradient_matches_finite_differences():
    x, y, h = 0.11, -0.07, 1e-6
    for term in (TERM0, TERM2, {**TERM2, "trig": "sin", "m": 3}):
        H, Hx, Hy = ck.ham_value_grad([term], x, y)
        fx = (ck.ham_value_grad([term], x + h, y)[0] - ck.ham_value_grad([term], x - h, y)[0]) / (2 * h)
        fy = (ck.ham_value_grad([term], x, y + h)[0] - ck.ham_value_grad([term], x, y - h)[0]) / (2 * h)
        assert abs(Hx - fx) < 1e-9 and abs(Hy - fy) < 1e-9


def test_flow_action_matches_program_and_rejects_planted_error():
    step = DiskMap(0.3, (HamiltonianStep((BumpHarmonic.from_dict(TERM2),), time=0.25),))
    z = 0.12 + 0.05j
    w, sig = ck.flow_with_action([TERM2], 0.25, z)
    got = float(diskmap.action(step)(z))
    assert ck.check_values("sigma", got, sig, 1e-8) == []
    assert ck.check_values("sigma", got + 1e-6, sig, 1e-8)
    assert abs(complex(step.evaluate(z)) - w) < 1e-9


def test_calabi_closed_form_rejects_planted_error():
    cal = ck.bump_calabi(TERM0, 0.25)
    assert cal == pytest.approx(2 * 0.25 * 0.05 * math.pi * 0.09 / 5, rel=1e-15)
    assert ck.bump_calabi(TERM2, 0.25) == 0.0
    assert ck.check_values("CAL", cal + 1e-6, cal, 1e-9)
    sm = ck.Smoothstep(-1.0, 0.3)
    prof = RadialFunction(np.array([0.0, 0.3]), np.array([-1.0, 0.0]), np.zeros(2), parity="even")
    twist = DiskMap(0.3, (RadialTwist(prof),))
    assert ck.check_values("CAL", diskmap.calabi(twist), sm.calabi(), 1e-12) == []


def test_closed_orbits_reject_planted_point():
    step = DiskMap(0.3, (HamiltonianStep((BumpHarmonic.from_dict(TERM2),), time=0.25),))
    assert abs(complex(step.evaluate(0j))) < 1e-15   # the origin is a critical point
    assert ck.check_closed_orbits([(0j, 1, 0.0)], [TERM2], 0.25) == []
    assert ck.check_closed_orbits([(0.1 + 0j, 1, 0.0)], [TERM2], 0.25)
    assert ck.check_closed_orbits([(0j, 1, 1e-6)], [TERM2], 0.25)


# -- artifacts and spans ------------------------------------------------------------

def test_same_artifacts_rejects_changed_byte():
    first = {"a.json": "00", "b.csv": "11"}
    assert ck.check_same_artifacts(first, dict(first)) == []
    assert ck.check_same_artifacts(first, {"a.json": "00", "b.csv": "12"})
    assert ck.check_same_artifacts(first, {"a.json": "00"})


def test_spans_cover_imported_names_and_restore():
    original = profile.contact_check
    tracer = spans.Tracer()
    inst = spans.install(tracer)
    try:
        assert profile.contact_check is not original
        curve = profile.design_profile(profile.ProfileParams(0.01, 0.1, 0.5, 0.1, 0.3))
        first = len(tracer)
        profile.to_rotform(curve)
        last = len(tracer)
    finally:
        inst.remove()
    assert profile.contact_check is original
    names = [tracer.names[tracer.name_id[i]] for i in range(first, last)]
    assert names[0] == "profile.to_rotform" and "rotorus.contact_check" in names
    m = spans.layer_metrics(tracer, first, last, {})
    assert m["rotorus.contact_check_calls"] == 1.0 and m["diskmap.map_eval_calls"] == 0.0
    total = tracer.end[first] - tracer.start[first]
    assert sum(m[f"{mod}.self_s"] for mod in spans.MODULES) == pytest.approx(total, rel=1e-9)
