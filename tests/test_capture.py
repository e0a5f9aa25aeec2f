"""The benchmark's workloads against their capture: each `perfbench`
workload argv, run in-process through the CLI, passes the benchmark's own
report checks (`perfbench/verify.py`), the aggregates within its capture
tolerance of `perfbench/reference.json`."""
import json
import os
import sys

import pytest

from qmloc.cli import EXIT_OK, main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)
import verify  # noqa: E402  (perfbench/verify.py)


def _captures():
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        return json.load(fh)["workloads"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_matches_its_capture(workload, capsys):
    argv = run.WORKLOADS[workload](run.DEFAULT_SEED)
    capture = _captures()[workload]
    assert capture["argv"] == argv
    assert main(argv) == EXIT_OK
    assert verify.problems(workload, argv, capsys.readouterr().out, capture) == []
