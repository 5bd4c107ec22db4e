"""One pass of each benchmark workload on the checkout: no operation fails and
every output passes the benchmark's own checks.  The benchmark builds radial
functions, maps and forms through the same public names a user does, so a
change to them shows here and not only in a benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_of_each_workload_is_correct(tmp_path, name):
    make_inputs, run_pass = workloads.WORKLOADS[name]
    (tmp_path / "inputs").mkdir()
    inputs = make_inputs(1, tmp_path / "inputs")
    p = workloads.Pass(tmp_path / "pass")
    run_pass(inputs, p)
    assert p.attempted > 0
    assert p.failed == 0
    assert p.problems == []
