"""reebplug benchmark: one workload, timed passes, checked outputs, one JSON line.

    python3 perfbench/run.py --workload twist_plug --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  After one warm-up pass, the run repeats whole passes of the
workload for --seconds and reports medians.  With --trace 0 it
prints the end-to-end metrics; with --trace 1 it first times untraced
passes, then wraps reebplug's layers (perfbench/spans.py) and prints the
per-layer metrics of the traced passes plus the tracing overhead, and
writes the spans to perfbench/out/.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("binding_profile", "twist_plug", "ham_plug")
SETUP_STARTS = 7     # fresh interpreters timed for setup_s (median)
MIN_PASSES = 3       # timed passes even when one pass outlasts --seconds
MIN_TRACED = 2

# one fresh interpreter: imports, then the workload's inputs from the seed
SETUP_SNIPPET = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from pathlib import Path
import workloads
workloads.WORKLOADS[sys.argv[3]][0](int(sys.argv[4]), Path(sys.argv[5]))
"""


class SetupClock:
    """Times fresh interpreters from start to inputs written."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.args = [workload, str(seed)]
        self.work = work
        self.times: list[float] = []

    def sample(self) -> None:
        if len(self.times) >= SETUP_STARTS:
            return
        inputs = self.work / f"setup{len(self.times)}"
        inputs.mkdir(parents=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE),
                        *self.args, str(inputs)], check=True)
        self.times.append(time.perf_counter() - t0)


class Runner:
    """Runs passes of one workload and keeps what the result needs."""

    def __init__(self, workloads, name: str, inputs, work: Path):
        self.wl = workloads
        self.run_pass = workloads.WORKLOADS[name][1]
        self.inputs = inputs
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest = None

    def one(self) -> float:
        """One pass; returns the summed time of its operations."""
        p = self.wl.Pass(self.work / "pass")
        try:
            self.run_pass(self.inputs, p)
        except Exception:  # a check could not read an output: report it, go on
            p.problems.append(f"checks aborted the pass:\n{traceback.format_exc()}")
        self.attempted += p.attempted
        self.failed += p.failed
        self.problems += p.problems
        digest = p.digest()
        if self.first_digest is None:
            self.first_digest = digest
        self.problems += self.wl.ck.check_same_artifacts(self.first_digest, digest)
        return p.wall

    def repeat(self, seconds: float, minimum: int, before=None, after=None) -> list[float]:
        """Whole passes until the next one would end after `seconds`.

        `before` and `after` run around each pass, outside its timing.
        """
        walls = []
        t0 = time.perf_counter()
        last = 0.0
        while len(walls) < minimum or time.perf_counter() - t0 + last <= seconds:
            t = time.perf_counter()
            if before:
                before()
            walls.append(self.one())
            if after:
                after()
            last = time.perf_counter() - t
        return walls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # one thread in numpy's BLAS pool, set before numpy loads: on a
    # two-core machine an idle pool thread spins on the second core and
    # the pass times scatter with it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    if not (SRC / "reebplug" / "__init__.py").is_file():
        print(f"error: no reebplug package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import reebplug
    if Path(reebplug.__file__).resolve().parent != SRC / "reebplug":
        print(f"error: imported {reebplug.__file__}, not the checkout's", file=sys.stderr)
        return 2
    import workloads

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs_dir = work / "inputs"
        inputs_dir.mkdir()
        inputs = workloads.WORKLOADS[args.workload][0](args.seed, inputs_dir)
        runner = Runner(workloads, args.workload, inputs, work)
        if args.trace:
            runner.one()  # warm-up
            metrics = traced_metrics(runner, args)
        else:
            # set-up starts are spread between the passes, so that their
            # median samples the whole run rather than its first seconds
            setup = SetupClock(args.workload, args.seed, work)
            setup.sample()
            runner.one()  # warm-up
            walls = runner.repeat(args.seconds, MIN_PASSES, after=setup.sample)
            while len(setup.times) < SETUP_STARTS:
                setup.sample()
            print(f"{args.workload}: {len(walls)} timed passes, wall_s "
                  + " ".join(f"{w:.4f}" for w in walls) + "; setup_s "
                  + " ".join(f"{t:.4f}" for t in setup.times), file=sys.stderr)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                       "setup_s": {"value": statistics.median(setup.times), "unit": "s"},
                       "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in runner.problems:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {"correct": not runner.problems, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    line = json.dumps(result, sort_keys=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(line + "\n")
    print(line)
    return 0


def traced_metrics(runner: Runner, args) -> dict:
    """Untraced then traced passes; per-layer medians plus the overhead."""
    import spans

    half = args.seconds / 2.0
    untraced = runner.repeat(half, MIN_TRACED)
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    bounds: list[int] = []
    per_pass_counts: list = []

    def on_pass():
        bounds.append(tracer.new_pass())
        per_pass_counts.append(tracer.counts)

    try:
        traced = runner.repeat(half, MIN_TRACED, before=on_pass)
    finally:
        installed.remove()
    bounds.append(len(tracer))
    tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")

    rows = [spans.layer_metrics(tracer, bounds[i], bounds[i + 1],
                                per_pass_counts[i]) for i in range(len(traced))]
    metrics = {}
    for name in rows[0]:
        value = statistics.median(r[name] for r in rows)
        metrics[name] = {"value": value, "unit": spans.unit(name)}
    metrics["trace.wall_s"] = {"value": statistics.median(traced), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
    metrics["trace.spans"] = {
        "value": float(statistics.median(b - a for a, b in zip(bounds, bounds[1:]))),
        "unit": "count"}
    print(f"{args.workload}: untraced " + " ".join(f"{w:.4f}" for w in untraced)
          + ", traced " + " ".join(f"{w:.4f}" for w in traced), file=sys.stderr)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
