"""In-memory spans around reebplug's layers, and the per-layer metrics read from them.

Untraced runs never import this module.  A traced run calls `install`,
which replaces selected public functions and methods of each reebplug
module by wrappers that open a span (name, start, end, parent) on entry
and close it on exit.  Where one module uses another's function through
an imported name (`from .rotorus import contact_check`), the wrapper is
put on that name too, so every call path is traced and no file under
`src/` changes.  Spans stay in flat arrays until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("numerics", "diskmap", "rotorus", "profile", "plug", "certify",
           "cli", "plots")


class Tracer:
    """Flat span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        # counts that a span cannot carry (points, bytes, results), per pass
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.name_id)

    def new_pass(self) -> int:
        """Start a pass with fresh counts; returns the index of its first span."""
        self.counts = defaultdict(float)
        return len(self.name_id)

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            start=np.frombuffer(self.start, np.float64),
            end=np.frombuffer(self.end, np.float64),
            parent=np.frombuffer(self.parent, np.int32))


# ---------------------------------------------------------------------------
# What is wrapped, and what each wrapper counts
# ---------------------------------------------------------------------------

# A counter gets (tracer, fn, args, kwargs, out) after fn returns.

def _arg1_points(metric):
    # methods whose points arrive as the first argument after self
    def count(tracer, fn, args, kwargs, out):
        tracer.counts[metric] += int(np.size(args[1]))
    return count


def _periodic(tracer, fn, args, kwargs, out):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    tracer.counts["diskmap.periodic_seeds"] += a["k_max"] * (1 + a["n_r"] * a["n_theta"])
    tracer.counts["diskmap.periodic_orbits"] += len(out)


def _orbit_records(tracer, fn, args, kwargs, out):
    tracer.counts["rotorus.orbit_records"] += len(out)


def _certificate(tracer, fn, args, kwargs, out):
    tracer.counts["certify.certificates"] += 1


def _artifact(tracer, fn, args, kwargs, out):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.counts["cli.artifact_bytes"] += len(text.encode())


def _svg(tracer, fn, args, kwargs, out):
    tracer.counts["plots.svg_bytes"] += len(out.encode())


# (module, attribute path, metric group or None, counter or None).  The span
# name is "<module>.<attribute path>"; groups collect spans into the
# per-layer metrics named in BENCHMARK.json.
TARGETS = [
    ("numerics", "RadialFunction.__call__", "numerics.radial_eval", _arg1_points("numerics.radial_eval_points")),
    ("numerics", "RadialFunction.derivative", "numerics.radial_eval", _arg1_points("numerics.radial_eval_points")),
    ("numerics", "RadialFunction.second_derivative", "numerics.radial_eval", _arg1_points("numerics.radial_eval_points")),
    ("numerics", "RadialFunction.integral", None, None),
    ("numerics", "gauss_piecewise", "numerics.quad", None),
    ("numerics", "integrate_1d", "numerics.quad", None),
    ("numerics", "integrate_disk", "numerics.quad", None),
    ("numerics", "ode_flow", None, None),
    ("numerics", "find_root_1d", None, None),
    ("diskmap", "DiskMap.evaluate", "diskmap.map_eval", _arg1_points("diskmap.map_eval_points")),
    ("diskmap", "DiskMap.evaluate_with_differential", "diskmap.map_eval", _arg1_points("diskmap.map_eval_points")),
    ("diskmap", "HamiltonianStep.evaluate", "diskmap.flow", _arg1_points("diskmap.flow_points")),
    ("diskmap", "HamiltonianStep.differential", "diskmap.flow", _arg1_points("diskmap.flow_points")),
    ("diskmap", "HamiltonianStep.evaluate_with_differential", "diskmap.flow", _arg1_points("diskmap.flow_points")),
    ("diskmap", "ActionField.__init__", "diskmap.action", None),
    ("diskmap", "ActionField.__call__", "diskmap.action", _arg1_points("diskmap.action_points")),
    ("diskmap", "ActionField.radial_profile", "diskmap.action", _arg1_points("diskmap.action_points")),
    ("diskmap", "ActionField.path_independence_check", "diskmap.action", None),
    ("diskmap", "calabi", "diskmap.calabi", None),
    ("diskmap", "periodic_points", "diskmap.periodic", _periodic),
    ("diskmap", "compose", None, None),
    ("diskmap", "rescale", None, None),
    ("rotorus", "contact_check", "rotorus.contact_check", None),
    ("rotorus", "return_system", None, None),
    ("rotorus", "orbit_enumerate", "rotorus.orbit_enumerate", _orbit_records),
    ("rotorus", "tmin", None, None),
    ("rotorus", "volume", "rotorus.volume", None),
    ("rotorus", "RotForm.wronskian", None, None),
    ("rotorus", "ReturnSystem.tau", None, None),
    ("rotorus", "ReturnSystem.shift", None, None),
    ("profile", "design_profile", "profile.design", None),
    ("profile", "verify_profile", "profile.verify", None),
    ("profile", "tau_profile", None, None),
    ("profile", "to_rotform", None, None),
    ("profile", "TauProfile.__call__", None, None),
    ("plug", "make_plug", "plug.make_plug", None),
    ("plug", "PlugSystem.volume", "plug.volume", None),
    ("plug", "PlugSystem.volume_quadrature", None, None),
    ("plug", "verify_a", "plug.verify", None),
    ("plug", "verify_b", "plug.verify", None),
    ("plug", "orbit_periods", None, None),
    ("plug", "rescale_plug", None, None),
    ("plug", "realize_rotational", None, None),
    ("certify", "assemble", None, None),
    ("certify", "volume_budget", None, None),
    ("certify", "tmin_ledger", None, None),
    ("certify", "systolic_bound", "certify.systolic_bound", _certificate),
    ("certify", "bound_formula", None, None),
    ("cli", "main", "cli.commands", None),
    ("cli", "_write_text", None, _artifact),
    ("plots", "line_plot", None, None),
    ("plots", "profile_plot", None, _svg),
    ("plots", "tau_plot", None, _svg),
    ("plots", "orbit_plot", None, _svg),
]


# span name -> metric group
GROUPS = {f"{m}.{path}": g for m, path, g, _ in TARGETS if g is not None}


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer, fn, args, kwargs, out)
        return out

    return traced


class Installation:
    """The wrappers put in place by `install`; `remove` restores the originals."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every target, on its defining module or class and on every alias."""
    mods = {m: importlib.import_module(f"reebplug.{m}") for m in MODULES}
    namespaces = list(mods.values()) + [importlib.import_module("reebplug")]
    inst = Installation()
    for mod_name, path, group, count in TARGETS:
        name = f"{mod_name}.{path}"
        owner = mods[mod_name]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = _wrap(tracer, name, original, count)
        inst.set(owner, attr, wrapper)
        if not cls_path:
            for ns in namespaces:
                for alias, value in list(vars(ns).items()):
                    if value is original:
                        inst.set(ns, alias, wrapper)
    return inst


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

GROUP_CALLS = {
    "numerics.radial_eval": "numerics.radial_eval_calls",
    "numerics.quad": "numerics.quad_calls",
    "diskmap.map_eval": "diskmap.map_eval_calls",
    "diskmap.calabi": "diskmap.calabi_calls",
    "rotorus.contact_check": "rotorus.contact_check_calls",
    "profile.verify": "profile.verify_calls",
    "plug.make_plug": "plug.make_plug_calls",
    "plug.volume": "plug.volume_calls",
    "cli.commands": "cli.commands",
}

GROUP_SECONDS = {
    "numerics.radial_eval": "numerics.radial_eval_s",
    "numerics.quad": "numerics.quad_s",
    "diskmap.map_eval": "diskmap.map_eval_s",
    "diskmap.flow": "diskmap.flow_s",
    "diskmap.action": "diskmap.action_s",
    "diskmap.calabi": "diskmap.calabi_s",
    "diskmap.periodic": "diskmap.periodic_s",
    "rotorus.orbit_enumerate": "rotorus.orbit_enumerate_s",
    "rotorus.volume": "rotorus.volume_s",
    "profile.design": "profile.design_s",
    "profile.verify": "profile.verify_s",
    "plug.make_plug": "plug.make_plug_s",
    "plug.verify": "plug.verify_s",
    "certify.systolic_bound": "certify.systolic_bound_s",
}

COUNTED = ("numerics.radial_eval_points", "diskmap.map_eval_points",
           "diskmap.flow_points", "diskmap.action_points",
           "diskmap.periodic_seeds", "diskmap.periodic_orbits",
           "rotorus.orbit_records", "certify.certificates",
           "cli.artifact_bytes", "plots.svg_bytes")


def unit(metric: str) -> str:
    """The unit BENCHMARK.json gives a per-layer metric."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_yield"):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer, first: int, last: int,
                  counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of the spans first..last-1 (one pass).

    Calls count every span of a group; seconds sum only the outermost
    span of a group along each path, so a group calling itself is not
    counted twice.  A module's self time is its spans' durations minus
    the time of their direct child spans.
    """
    nid = np.frombuffer(tracer.name_id, np.int32)[first:last]
    dur = (np.frombuffer(tracer.end, np.float64)[first:last]
           - np.frombuffer(tracer.start, np.float64)[first:last])
    parent = np.frombuffer(tracer.parent, np.int32)[first:last] - first

    group_ids = {g: k for k, g in enumerate(sorted(set(GROUPS.values())))}
    gid = np.array([group_ids.get(GROUPS.get(n), -1) for n in tracer.names],
                   dtype=np.int64)[nid]
    # groups of each span's ancestors as a bit mask; parents come first
    mask = np.zeros(len(nid), dtype=np.int64)
    for i, p in enumerate(parent):
        if p >= 0:
            mask[i] = mask[p] | ((1 << int(gid[p])) if gid[p] >= 0 else 0)
    outer = (gid >= 0) & ((mask >> np.maximum(gid, 0)) & 1 == 0)

    out: dict[str, float] = {}
    for g, metric in GROUP_CALLS.items():
        out[metric] = float(np.count_nonzero(gid == group_ids[g]))
    for g, metric in GROUP_SECONDS.items():
        out[metric] = float(dur[outer & (gid == group_ids[g])].sum())
    for metric in COUNTED:
        out[metric] = float(counts.get(metric, 0.0))
    seeds = out["diskmap.periodic_seeds"]
    out["diskmap.periodic_yield"] = out["diskmap.periodic_orbits"] / seeds if seeds else 0.0

    inner = parent >= 0
    self_time = dur - np.bincount(parent[inner], weights=dur[inner], minlength=len(nid))
    module = np.array([MODULES.index(n.split(".")[0]) for n in tracer.names],
                      dtype=np.int64)[nid]
    for k, m in enumerate(MODULES):
        out[f"{m}.self_s"] = float(self_time[module == k].sum())
    return out
