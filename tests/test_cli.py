import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reebplug import cli as cli_module
from reebplug import diskmap as diskmap_module
from reebplug import plug as plug_module
from reebplug import profile as profile_module
from reebplug import rotorus
from reebplug.cli import build_parser, main
from reebplug.diskmap import BumpHarmonic, DiskMap, HamiltonianStep, RadialTwist
from reebplug.numerics import NonConvergenceError, QuadResult, RadialFunction
from reebplug.rotorus import RotForm

DESIGN = ["profile", "design", "--s", "0.01", "--delta", "0.1",
          "--rho", "0.5", "--r0", "0.1", "--r1", "0.3"]


def run(args, out):
    return main(args + ["--out", str(out)])


def twist_dict(c: float, support: float = 1.0, radius: float = 1.0) -> dict:
    phi = DiskMap(radius, (RadialTwist(RadialFunction.bump(-c, support)),))
    return phi.to_dict()


def write_plug(path: Path, map_dict: dict, L: float = 1.0) -> Path:
    path.write_text(json.dumps({"L": L, "radius": map_dict["radius"],
                                "map": map_dict}))
    return path


def write_assembly(path: Path, **over) -> Path:
    plug = {"L": 1.0, "radius": 0.05, "map": DiskMap(0.05, ()).to_dict()}
    spec = {"eps": 0.01, "areas": [1.05], "tau_bound": 0.005,
            "plugs": [plug]}
    spec.update(over)
    path.write_text(json.dumps(spec))
    return path


def test_profile_design_pass(tmp_path, capsys, monkeypatch):
    calls = []
    decide = profile_module.verify_profile
    # count the calls made under either module's name for the verifier
    for owner in (profile_module, cli_module):
        monkeypatch.setattr(owner, "verify_profile",
                            lambda curve: calls.append(curve) or decide(curve), raising=False)
    assert run(DESIGN, tmp_path) == 0
    assert len(calls) == 1   # the design's report is the one written
    out = capsys.readouterr().out
    assert "profile: pass" in out
    for name in ("curve.json", "profile_report.json", "profile_arc.svg",
                 "tau.svg", "binding_form.json"):
        assert (tmp_path / name).exists()
    report = json.loads((tmp_path / "profile_report.json").read_text())
    assert report["profile"]["passed"] is True
    assert report["tau"]["passed"] is True
    assert "n_grid" not in report["context"]


def test_profile_design_infeasible(tmp_path, capsys):
    rc = run(["profile", "design", "--s", "0.5", "--delta", "0.01",
              "--rho", "0.5", "--r0", "0.1", "--r1", "0.3"], tmp_path)
    assert rc == 1
    assert "infeasible" in capsys.readouterr().err


def test_profile_verify_names_planted_violation(tmp_path, capsys):
    assert run(DESIGN, tmp_path / "good") == 0
    curve = json.loads((tmp_path / "good" / "curve.json").read_text())
    # g' > 0 at the r0 knot violates strict decrease
    curve["g"]["derivs"][2] = 0.5
    bad = tmp_path / "bad_curve.json"
    bad.write_text(json.dumps(curve))
    rc = main(["profile", "verify", str(bad),
               "--out", str(tmp_path / "v")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL at B2" in out
    report = json.loads((tmp_path / "v" / "profile_report.json").read_text())
    failed = [c["name"] for c in report["profile"]["conditions"]
              if not c["passed"]]
    assert "B2" in failed


def test_profile_design_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(DESIGN, a) == 0
    assert run(DESIGN, b) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_rotorus_orbits_csv(tmp_path):
    assert run(DESIGN, tmp_path) == 0
    rc = main(["rotorus", "orbits", str(tmp_path / "binding_form.json"),
               "--tmax", "2", "--qmax", "3",
               "--out", str(tmp_path / "orb")])
    assert rc == 0
    lines = (tmp_path / "orb" / "orbits.csv").read_text().splitlines()
    assert lines[0] == "kind,r,p,q,T"
    kinds = [ln.split(",")[0] for ln in lines[1:]]
    assert "core" in kinds


def test_parser_shared_without_leaking_arguments(tmp_path):
    # the parser is built once; each call still parses into a fresh namespace
    assert build_parser() is build_parser()
    assert run(DESIGN + ["--format", "json"], tmp_path / "a") == 0
    assert not (tmp_path / "a" / "tau.svg").exists()
    rc = main(["rotorus", "orbits", str(tmp_path / "a" / "binding_form.json"),
               "--tmax", "2", "--qmax", "3", "--out", str(tmp_path / "orb")])
    assert rc == 0
    assert {p.name for p in (tmp_path / "orb").iterdir()} == \
        {"orbits.csv", "orbits.json", "orbits.svg"}
    assert main(["rotorus", "volume", str(tmp_path / "a" / "binding_form.json"),
                 "--tol", "0.5", "--out", str(tmp_path / "vol")]) == 0
    args = build_parser().parse_args(["rotorus", "orbits", "form.json"])
    assert (args.format, args.out) == ({"json", "csv", "svg"}, ".")
    assert not hasattr(args, "s") and not hasattr(args, "tol")
    assert run(DESIGN, tmp_path / "b") == 0
    assert (tmp_path / "b" / "tau.svg").exists()


@pytest.mark.parametrize("tmax", ["inf", "nan", "-1"])
@pytest.mark.parametrize("command", ["orbits", "analyze"])
def test_rotorus_refuses_a_bad_tmax(tmp_path, capsys, command, tmax):
    assert run(DESIGN + ["--format", "json"], tmp_path) == 0
    capsys.readouterr()
    assert main(["rotorus", command, str(tmp_path / "binding_form.json"),
                 "--tmax", tmax, "--out", str(tmp_path / "r")]) == 2
    assert f"t_max must be finite and positive, not {float(tmax)!r}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists() or not list((tmp_path / "r").iterdir())


def test_rotorus_analyze_binding(tmp_path):
    assert run(DESIGN, tmp_path) == 0
    rc = main(["rotorus", "analyze", str(tmp_path / "binding_form.json"),
               "--qmax", "4", "--tol", "1e-6",
               "--out", str(tmp_path / "an")])
    assert rc == 0
    data = json.loads((tmp_path / "an" / "analysis.json").read_text())
    assert data["contact_margin"] > 0.0
    # the outer arc has c' = 0, so only the disk-angle section survives
    assert data["sections"]["core-angle"]["available"] is False
    assert data["sections"]["disk-angle"]["tau_at_0"] == pytest.approx(
        1.0, abs=1e-12)
    assert data["t_min"]["value"] == pytest.approx(1.0 / 1.1, rel=1e-9)
    # analysis.json and volume.json carry the same two volume legs
    rc = main(["rotorus", "volume", str(tmp_path / "binding_form.json"),
               "--tol", "1e-12", "--out", str(tmp_path / "vol")])
    assert rc == 0
    vol = json.loads((tmp_path / "vol" / "volume.json").read_text())
    for legs in (data["volume"], vol):
        assert {"closed_form", "section"} <= set(legs)
        assert "quadrature" not in legs
        assert legs["section_name"] == "disk-angle"
    assert vol["closed_form"] == data["volume"]["closed_form"]


def test_disk_act_and_cal(tmp_path, capsys):
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps(twist_dict(1.0, 0.6, 0.8)))
    assert main(["disk", "act", str(mp), "--out", str(tmp_path)]) == 0
    act = json.loads((tmp_path / "action.json").read_text())
    # sigma(0) = amplitude * support^2 / 8 for the cubic bump profile
    assert act["sigma_center"] == pytest.approx(-1.0 * 0.36 / 8.0, abs=1e-9)
    assert act["radial"] is True
    assert main(["disk", "cal", str(mp), "--out", str(tmp_path)]) == 0
    cal = json.loads((tmp_path / "calabi.json").read_text())
    assert cal["primitive_independence"] < 2e-8


def test_disk_periodic_header(tmp_path):
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps(twist_dict(0.5, 0.6, 0.8)))
    assert main(["disk", "periodic", str(mp), "--kmax", "2",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "periodic.csv").read_text().splitlines()
    assert lines[0] == "kind,r,p,q,T"


def test_plug_build_and_verify_b_fails_negative_twist(tmp_path):
    plug_file = write_plug(tmp_path / "plug.json", twist_dict(4.0))
    rc = main(["plug", "verify-b", str(plug_file), "--n", "3",
               "--eps", "0.7", "--out", str(tmp_path)])
    assert rc == 1
    rep = json.loads((tmp_path / "report_b.json").read_text())
    b3 = [c for c in rep["checks"] if c["name"] == "b3"][0]
    assert not b3["passed"]
    assert abs(complex(*b3["witness"])) < 1e-6


def test_plug_verify_a_identity(tmp_path):
    plug_file = write_plug(tmp_path / "plug.json",
                           DiskMap(0.05, ()).to_dict())
    rc = main(["plug", "verify-a", str(plug_file), "--eps", "0.01",
               "--kmax", "2", "--out", str(tmp_path)])
    assert rc == 0
    rc = main(["plug", "verify-a", str(plug_file), "--eps", "0.005",
               "--kmax", "2", "--out", str(tmp_path)])
    assert rc == 1


def count_calls(monkeypatch, *names) -> dict:
    """Wrap plug-module functions; each call's result is appended to its list."""
    results = {name: [] for name in names}
    for name, out in results.items():
        fn = getattr(plug_module, name)
        monkeypatch.setattr(plug_module, name, lambda *args, fn=fn, out=out, **kw:
                            out.append(fn(*args, **kw)) or out[-1])
    return results


def test_plug_realize_and_volume(tmp_path, capsys):
    plug_file = write_plug(tmp_path / "plug.json", twist_dict(1.0))
    rc = main(["plug", "realize", str(plug_file), "--out", str(tmp_path)])
    assert rc == 0
    form = RotForm.from_dict(
        json.loads((tmp_path / "form.json").read_text()))
    assert form.radius == 1.0
    rc = main(["plug", "volume", str(plug_file), "--tol", "1e-6",
               "--out", str(tmp_path)])
    assert rc == 0
    vol = json.loads((tmp_path / "plug_volume.json").read_text())
    assert vol["spread"] <= 1e-9
    assert vol["section_name"] == "disk" and "section" in vol
    # the realized form's volume is `plug realize` then `rotorus volume`
    assert "realized" not in vol


def test_unconverged_disk_quadrature_is_a_check_failure(tmp_path, monkeypatch):
    ham = DiskMap(1.0, (HamiltonianStep((BumpHarmonic(2, "cos", 0.05, 0.7),), time=1.0),))
    plug_file = write_plug(tmp_path / "plug.json", ham.to_dict())
    monkeypatch.setattr(plug_module, "integrate_disk",
                        lambda fn, radius: QuadResult(1.0, 1e-3, False))
    with pytest.raises(NonConvergenceError):
        plug_module.PlugSystem.from_dict(json.loads(plug_file.read_text())).volume_quadrature()
    assert main(["plug", "volume", str(plug_file), "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "plug_volume.json").exists()


def count_contact_decisions(monkeypatch) -> list:
    decide = rotorus._contact
    calls = []
    monkeypatch.setattr(rotorus, "_contact", lambda form: calls.append(form) or decide(form))
    return calls


def same_but_float_spelling(line: str, ref: str) -> bool:
    """Two artifact lines that are equal, or that differ only in how one
    number is spelled (0.00001953125 and 1.953125e-05, say)."""
    if line == ref:
        return True
    head, _, value = line.rpartition(" ")
    ref_head, _, ref_value = ref.rpartition(" ")
    try:
        same_number = float(value.rstrip(",")) == float(ref_value.rstrip(","))
    except ValueError:
        return False
    return head == ref_head and same_number and value.endswith(",") == ref_value.endswith(",")


def test_realized_form_round_trips_bit_for_bit(tmp_path):
    # the twist_plug workload's positive plug: its knots are multiples of
    # 0.04/256, which the standard library spells with an exponent
    twist = DiskMap(0.05, (RadialTwist(RadialFunction.bump(3.5, 0.04)),)).to_dict()
    plug_file = write_plug(tmp_path / "plug.json", twist)
    assert main(["plug", "realize", str(plug_file), "--out", str(tmp_path)]) == 0
    phi, L = plug_module.plug_inputs(cli_module._read_plug(str(plug_file)))
    form = plug_module.realize_rotational(phi.combined_profile(), L, phi.radius)
    back = RotForm.from_dict(cli_module._read_json(tmp_path / "form.json"))
    assert (back.radius, back.core_period, back.kappa) == (form.radius, form.core_period,
                                                           form.kappa)
    for name in ("c", "d"):
        for field in ("knots", "values", "derivs"):
            ours = getattr(getattr(form, name), field)
            assert getattr(getattr(back, name), field).tobytes() == ours.tobytes(), (name, field)
    # the standard library's layout (sorted keys, 2-space indent) line for
    # line, apart from float spelling, and one newline at the end
    text = (tmp_path / "form.json").read_text()
    ref = json.dumps(json.loads(text), indent=2, sort_keys=True).splitlines()
    assert text.endswith("}\n") and len(text.splitlines()) == len(ref)
    assert all(same_but_float_spelling(a, b) for a, b in zip(text.splitlines(), ref))


def test_plug_realize_decides_contact_once(tmp_path, capsys, monkeypatch):
    # the margin printed is the one realize_rotational decided
    plug_file = write_plug(tmp_path / "plug.json", twist_dict(1.0))
    calls = count_contact_decisions(monkeypatch)
    assert main(["plug", "realize", str(plug_file), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    form = RotForm.from_dict(json.loads((tmp_path / "form.json").read_text()))
    assert f"contact margin {rotorus.contact_check(form):.9g}," in capsys.readouterr().out


def test_rotorus_analyze_decides_contact_once(tmp_path, monkeypatch):
    # the contact margin, orbit search and volume all read one decision
    assert run(DESIGN + ["--format", "json"], tmp_path) == 0
    calls = count_contact_decisions(monkeypatch)
    assert main(["rotorus", "analyze", str(tmp_path / "binding_form.json"),
                 "--qmax", "4", "--out", str(tmp_path / "an")]) == 0
    assert len(calls) == 1


def test_plug_verify_b_reads_the_plugs_sigma_minimum(tmp_path, monkeypatch):
    # make_plug builds sigma and searches its minimum once; verify-b reads
    # both from the plug and takes its orbits from one orbit_periods pass
    ham = DiskMap(1.0, (HamiltonianStep((BumpHarmonic(2, "cos", 0.05, 0.7),), time=1.0),))
    plug_file = write_plug(tmp_path / "plug.json", ham.to_dict())
    results = count_calls(monkeypatch, "action", "orbit_periods", "_min_sigma")
    assert main(["plug", "verify-b", str(plug_file), "--n", "1", "--eps", "10",
                 "--out", str(tmp_path)]) == 1
    assert {name: len(out) for name, out in results.items()} == dict.fromkeys(results, 1)
    b1 = json.loads((tmp_path / "report_b.json").read_text())["checks"][0]
    sig_min, z_min = results["_min_sigma"][0]
    assert (b1["name"], b1["passed"]) == ("b1", False)
    assert b1["margin"] == 0.0 - sig_min and b1["witness"] == [z_min.real, z_min.imag]


def test_newton_search_reports_its_identity_collar(tmp_path):
    # the collar of the ham_plug map h2 is one row, and the reports and
    # artifacts of a Newton search say where it stopped
    h2 = DiskMap(0.3, (HamiltonianStep((BumpHarmonic(2, "cos", 0.05, 0.3),), time=0.1),))
    plug_file = write_plug(tmp_path / "plug.json", h2.to_dict())
    assert main(["plug", "orbits", str(plug_file), "--kmax", "1", "--out", str(tmp_path)]) == 0
    rows = [ln.split(",") for ln in (tmp_path / "plug_orbits.csv").read_text().splitlines()[1:]]
    assert [(kind, float(r), float(T)) for kind, r, _, _, T in rows if float(r) > 0.2] == [
        ("fixed", 0.3, 1.0)]
    # a3 fails: the critical points on r = a/sqrt 5 close in T = 1 - 4.096e-4
    assert main(["plug", "verify-a", str(plug_file), "--eps", "1", "--kmax", "2",
                 "--out", str(tmp_path)]) == 1
    search = json.loads((tmp_path / "report_a.json").read_text())["search"]
    r_c = search["collar_radius"]
    assert search["accept_tol"] == 1e-9 and len(r_c) == 2 and 0.299 < r_c[0] <= r_c[1] < 0.3
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(h2.to_dict()))
    assert main(["disk", "periodic", str(map_file), "--kmax", "1", "--out", str(tmp_path)]) == 0
    periodic = json.loads((tmp_path / "periodic.json").read_text())
    assert periodic["context"]["collar_radius"] == r_c[:1]
    assert periodic["orbits"][-1] == {"kind": "fixed", "r": 0.3, "p": 0, "q": 1, "T": 1.0,
                                      "r_lo": r_c[0], "r_hi": 0.3}


@pytest.mark.parametrize("radial", [False, True], ids=["h2", "twist"])
def test_each_periodic_report_finds_the_collar_once(tmp_path, monkeypatch, radial):
    # the search's own description goes into each report, so the collar is
    # bisected once per report, and never for a radial map
    phi = (DiskMap(1.0, (RadialTwist(RadialFunction.bump(-4.0, 0.8)),)) if radial else
           DiskMap(0.3, (HamiltonianStep((BumpHarmonic(2, "cos", 0.05, 0.3),), time=0.1),)))
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(phi.to_dict()))
    plug_file = write_plug(tmp_path / "plug.json", phi.to_dict())
    calls = []
    bisect = diskmap_module._collar_radii
    monkeypatch.setattr(diskmap_module, "_collar_radii",
                        lambda *args: calls.append(args) or bisect(*args))
    counts = []
    for argv in (["plug", "verify-a", str(plug_file), "--eps", "1", "--kmax", "1"],
                 ["plug", "verify-b", str(plug_file), "--n", "1", "--eps", "1"],
                 ["plug", "orbits", str(plug_file), "--kmax", "1"],
                 ["disk", "periodic", str(map_file), "--kmax", "1"]):
        main(argv + ["--out", str(tmp_path)])
        counts.append(len(calls))
    assert counts == ([0, 0, 0, 0] if radial else [1, 2, 3, 4])


@pytest.mark.parametrize("L", ["0", "nan", "inf"])
def test_plug_build_refuses_a_non_finite_fiber(tmp_path, capsys, L):
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(DiskMap(0.5, ()).to_dict()))
    assert main(["plug", "build", str(map_file), "--L", L, "--out", str(tmp_path)]) == 1
    assert "fiber length must be positive and finite" in capsys.readouterr().err
    plug_file = write_plug(tmp_path / "plug.json", DiskMap(0.5, ()).to_dict(), L=float(L))
    assert main(["plug", "verify-a", str(plug_file), "--eps", "1",
                 "--out", str(tmp_path)]) == 1
    assert "fiber length must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["nan", "inf"])
@pytest.mark.parametrize("command", [["plug", "verify-a"], ["plug", "verify-b", "--n", "1"]])
def test_plug_verify_refuses_a_non_finite_eps(tmp_path, capsys, command, eps):
    plug_file = write_plug(tmp_path / "plug.json", DiskMap(0.5, ()).to_dict())
    assert main(command + [str(plug_file), "--eps", eps, "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("report_*.json"))


def test_plug_realize_builds_one_plug(tmp_path, monkeypatch):
    # realize_rotational takes sigma from make_plug; the CLI reads the plug
    # file without building a plug of its own first
    plug_file = write_plug(tmp_path / "plug.json", twist_dict(1.0))
    results = count_calls(monkeypatch, "action", "_min_sigma", "make_plug")
    assert main(["plug", "realize", str(plug_file), "--out", str(tmp_path)]) == 0
    assert {name: len(out) for name, out in results.items()} == dict.fromkeys(results, 1)


def test_plug_radius_must_be_its_maps(tmp_path, capsys):
    plug_file = tmp_path / "plug.json"
    plug_file.write_text(json.dumps({"L": 1.0, "radius": 0.9,
                                     "map": DiskMap(0.05, ()).to_dict()}))
    for command in ("volume", "realize"):
        assert main(["plug", command, str(plug_file), "--out", str(tmp_path)]) == 2
        assert "differs from its map's radius" in capsys.readouterr().err
    assert not (tmp_path / "plug_volume.json").exists()


def test_plug_rescale(tmp_path):
    plug_file = write_plug(tmp_path / "plug.json", twist_dict(1.0))
    rc = main(["plug", "rescale", str(plug_file), "--factor", "0.5",
               "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads(
        (tmp_path / "plug_rescaled_summary.json").read_text())
    assert summary["L"] == pytest.approx(0.25)
    assert summary["radius"] == pytest.approx(0.5)


def test_certify_run_frozen_value(tmp_path, capsys):
    assembly = write_assembly(tmp_path / "assembly.json")
    rc = main(["certify", "run", str(assembly), "--kmax", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "9801/400" in capsys.readouterr().out
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["ratio"]["exact"] == "9801/400"
    assert all(step["holds"] for step in cert["trace"])
    assert "9801/400" in (tmp_path / "certificate.txt").read_text()


def test_certify_run_deterministic(tmp_path):
    assembly = write_assembly(tmp_path / "assembly.json")
    for sub in ("a", "b"):
        assert main(["certify", "run", str(assembly), "--kmax", "2",
                     "--out", str(tmp_path / sub)]) == 0
    for name in ("certificate.json", "certificate.txt"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_certify_run_refusal_names_inequality(tmp_path, capsys):
    assembly = write_assembly(tmp_path / "assembly.json", areas=[0.5])
    rc = main(["certify", "run", str(assembly), "--kmax", "2",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "area" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


def test_certify_rejects_unknown_keys(tmp_path, capsys):
    assembly = write_assembly(tmp_path / "assembly.json")
    spec = json.loads(assembly.read_text())
    spec["surprise"] = 1
    assembly.write_text(json.dumps(spec))
    rc = main(["certify", "run", str(assembly), "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown keys" in capsys.readouterr().err
    # an inline plug entry is checked as a plug file is
    plug = json.loads(assembly.read_text())["plugs"][0]
    for entry, message in (({**plug, "surprise": 1}, "unknown keys: surprise"),
                           ({"L": 1.0, "map": plug["map"]}, "missing keys: radius")):
        write_assembly(assembly, plugs=[entry])
        assert main(["certify", "run", str(assembly), "--out", str(tmp_path)]) == 2
        assert f"inline plug: {message}" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


def test_certify_sweep_monotone(tmp_path, capsys):
    rc = main(["certify", "sweep", "--eps", "0.01,0.001,0.0001",
               "--out", str(tmp_path)])
    assert rc == 0
    sweep = json.loads((tmp_path / "sweep.json").read_text())
    ratios = [e["ratio"] for e in sweep["entries"]]
    assert sweep["monotone_increasing"] is True
    assert ratios == sorted(ratios)
    assert ratios[0] == pytest.approx(24.5025, rel=1e-12)


@pytest.mark.parametrize("flags, named", [
    (["--ell", "0"], "ell must be at least 1, not 0"),
    (["--eps", "2,1.5"], "not 2.0, 1.5"),
    (["--eps", "0.01,-0.5"], "not -0.5"),
    (["--eps", "0.01,nan"], "not nan"),
    (["--eps", "inf,0.01"], "not inf"),
], ids=["ell0", "above1", "negative", "nan", "inf"])
def test_certify_sweep_refuses_bad_input(tmp_path, capsys, monkeypatch, flags, named):
    # refused before any plug is built: exit 2, a message naming the value
    built = []
    monkeypatch.setattr(cli_module, "make_plug", lambda *a, **kw: built.append(a))
    assert main(["certify", "sweep", *flags, "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert built == []
    assert not (tmp_path / "sweep.json").exists()


def test_missing_input_is_config_error(tmp_path, capsys):
    rc = main(["rotorus", "analyze", str(tmp_path / "missing.json"),
               "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("parity", ["odd", "none"])
def test_rotorus_analyze_refuses_a_non_even_form(tmp_path, capsys, parity):
    assert run(DESIGN + ["--format", "json"], tmp_path) == 0
    form = json.loads((tmp_path / "binding_form.json").read_text())
    form["d"]["parity"] = parity
    (tmp_path / "form.json").write_text(json.dumps(form))
    capsys.readouterr()
    assert main(["rotorus", "analyze", str(tmp_path / "form.json"),
                 "--out", str(tmp_path / "r")]) == 2
    assert f"parity must be 'even', not {parity!r}" in capsys.readouterr().err


def test_bad_format_is_config_error(tmp_path, capsys):
    assert run(DESIGN + ["--format", "docx"], tmp_path) == 2
    assert "unknown output format" in capsys.readouterr().err
    # profile design writes json and svg, never csv
    assert run(DESIGN + ["--format", "csv"], tmp_path) == 2
    assert "unknown output format: csv" in capsys.readouterr().err


# Every subcommand's settable values (argparse dests, positionals included)
# and an argv that runs it on the files `cli_inputs` writes.
COMMANDS = {
    "profile design": ({"s", "delta", "rho", "r0", "r1", "format", "out"}, DESIGN[2:]),
    "profile verify": ({"curve", "format", "out"}, ["{d}/curve.json"]),
    "rotorus analyze": ({"form", "tmax", "qmax", "tol", "out"},
                        ["{d}/binding_form.json", "--qmax", "2"]),
    "rotorus orbits": ({"form", "tmax", "qmax", "format", "out"},
                       ["{d}/binding_form.json", "--qmax", "2"]),
    "rotorus volume": ({"form", "tol", "out"}, ["{d}/binding_form.json"]),
    "disk act": ({"map", "out"}, ["{d}/map.json"]),
    "disk cal": ({"map", "tol", "out"}, ["{d}/map.json"]),
    "disk periodic": ({"map", "kmax", "format", "out"}, ["{d}/map.json", "--kmax", "2"]),
    "plug build": ({"map", "L", "out"}, ["{d}/map.json"]),
    "plug verify-a": ({"plug", "eps", "kmax", "out"},
                      ["{d}/plug.json", "--eps", "0.01", "--kmax", "2"]),
    "plug verify-b": ({"plug", "n", "eps", "out"},
                      ["{d}/plug.json", "--n", "1", "--eps", "0.01"]),
    "plug orbits": ({"plug", "kmax", "out"}, ["{d}/plug.json", "--kmax", "2"]),
    "plug volume": ({"plug", "tol", "out"}, ["{d}/plug.json"]),
    "plug rescale": ({"plug", "factor", "out"}, ["{d}/plug.json", "--factor", "0.5"]),
    "plug realize": ({"plug", "out"}, ["{d}/plug.json"]),
    "certify run": ({"assembly", "kmax", "out"}, ["{d}/assembly.json", "--kmax", "1"]),
    "certify sweep": ({"eps", "ell", "kmax", "out"}, ["--eps", "0.01,0.001", "--kmax", "1"]),
}


def subcommand_options(command: str) -> set[str]:
    parser = build_parser()
    for name in command.split():
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[name]
    return {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    twist = DiskMap(0.05, (RadialTwist(RadialFunction.bump(3.5, 0.04)),)).to_dict()
    (d / "map.json").write_text(json.dumps(twist))
    write_plug(d / "plug.json", twist)
    write_assembly(d / "assembly.json", plugs=["plug.json"])
    assert run(DESIGN + ["--format", "json"], d) == 0
    return d


def refuse_constant(token: str):
    raise ValueError(f"{token} is not JSON")


def test_every_artifact_is_strict_json(cli_inputs, tmp_path):
    # one run of each command, and analyze on a range where no orbit is
    # found: its t_min (inf at radius nan) is written as null
    runs = {command: command.split() + [a.format(d=cli_inputs) for a in argv]
            for command, (_, argv) in COMMANDS.items()}
    runs["rotorus analyze none-found"] = ["rotorus", "analyze",
                                          str(cli_inputs / "binding_form.json"), "--tmax", "0.5"]
    for name, argv in runs.items():
        assert run(argv, tmp_path / name.replace(" ", "_")) == 0, name
    artifacts = sorted(tmp_path.rglob("*.json"))
    assert len(artifacts) == 22
    for path in artifacts:
        json.loads(path.read_text(), parse_constant=refuse_constant)
    t_min = json.loads((tmp_path / "rotorus_analyze_none-found" / "analysis.json").read_text())["t_min"]
    assert t_min["kind"] == "none-found"
    assert t_min["value"] is None and t_min["r"] is None


def test_parser_pins_each_subcommands_options():
    assert sum(len(opts) for opts, _ in COMMANDS.values()) == 61
    for command, (opts, _) in COMMANDS.items():
        assert subcommand_options(command) == opts, command


class ReadRecorder:
    """A parsed namespace that records which attributes are read."""

    def __init__(self, namespace):
        self._values, self.read = vars(namespace), set()

    def __getattr__(self, name):
        self.read.add(name)
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_option_is_read_by_its_handler(command, cli_inputs, tmp_path):
    opts, argv = COMMANDS[command]
    argv = command.split() + [a.format(d=cli_inputs) for a in argv]
    args = ReadRecorder(build_parser().parse_args(argv + ["--out", str(tmp_path)]))
    assert args.func(args) == 0
    assert args.read >= opts
    # a flag the handler would not read is refused, --kmax on verify-b
    # (which searches to its --n) and --knots on realize included
    for flag in ({"--tol", "--format", "--kmax", "--knots"} - {f"--{o}" for o in opts}):
        assert main(argv + [flag, "1"]) == 2, (command, flag)


# Runs in a fresh interpreter: design a profile, analyze its rotorus, build
# and verify a radial twist plug, realize it, certify, and list the scipy
# modules loaded on the way.
RADIAL_PIPELINE = r'''
import json, sys
from pathlib import Path
from reebplug.cli import main
from reebplug.diskmap import DiskMap, RadialTwist
from reebplug.numerics import RadialFunction

out = Path(sys.argv[1])
twist = DiskMap(0.05, (RadialTwist(RadialFunction.bump(3.5, 0.04)),)).to_dict()
(out / "twist.json").write_text(json.dumps(twist))
(out / "assembly.json").write_text(json.dumps({
    "eps": 0.01, "areas": [1.05], "tau_bound": 0.005,
    "plugs": [{"L": 1.0, "radius": 0.05, "map": twist}]}))
form, plug = str(out / "binding_form.json"), str(out / "plug.json")
commands = [
    ["profile", "design", "--s", "0.01", "--delta", "0.1", "--rho", "0.5",
     "--r0", "0.1", "--r1", "0.3"],
    ["profile", "verify", str(out / "curve.json")],
    ["rotorus", "analyze", form], ["rotorus", "orbits", form], ["rotorus", "volume", form],
    ["plug", "build", str(out / "twist.json"), "--L", "1.0"],
    ["plug", "verify-a", plug, "--eps", "0.01", "--kmax", "2"],
    ["plug", "orbits", plug, "--kmax", "2"],
    ["plug", "realize", plug],
    ["plug", "volume", plug],
    ["certify", "run", str(out / "assembly.json"), "--kmax", "1"],
    ["certify", "sweep", "--eps", "0.01,0.001", "--ell", "1", "--kmax", "1"],
]
codes = [main(c + ["--out", str(out)]) for c in commands]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
'''


def test_radial_pipeline_never_imports_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(plug_module.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", RADIAL_PIPELINE, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 12
    assert result["scipy"] == []


def cli_import_modules() -> list[str]:
    """The modules a fresh interpreter has loaded after `import reebplug.cli`."""
    env = dict(os.environ, PYTHONPATH=str(Path(plug_module.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, reebplug.cli; print('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_cli_import_loads_no_network_modules():
    # the SVG writer escapes text itself; xml.sax.saxutils pulls in urllib
    assert not {"urllib.request", "http.client"} & set(cli_import_modules())


def test_cli_import_loads_no_scipy():
    # scipy loads on the first command that integrates with it, not with the
    # CLI: importing it would put about 0.8 s into every command's start-up
    assert [m for m in cli_import_modules() if m.split(".")[0] == "scipy"] == []
