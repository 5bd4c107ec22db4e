"""The benchmark's traced run wraps reebplug attributes by name; every one must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for mod_name, path, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"reebplug.{mod_name}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = vars(owner).get(part)
            if owner is None:
                break
        # the traced run reads owner.__dict__[attr], so inherited names do not count
        if owner is None or attr not in vars(owner):
            missing.append(f"{mod_name}.{path}")
    assert not missing, f"perfbench/spans.py targets gone: {missing}"
