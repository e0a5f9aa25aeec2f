"""The benchmark's workloads against their capture: each `perfbench`
workload argv, run in-process through the CLI, passes the benchmark's own
report checks (`perfbench/verify.py`), the aggregates within its capture
tolerance of `perfbench/reference.json`; and the benchmark's tracer
(`perfbench/tracing.py`) runs on the small argv of its self-test."""
import json
import os
import sys

import pytest

from qmloc.cli import EXIT_OK, main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)
import selftest  # noqa: E402  (perfbench/selftest.py)
import tracing  # noqa: E402  (perfbench/tracing.py)
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


def _traced(argv, capsys):
    """One CLI call under a fresh tracer: (report, tracer)."""
    tracer = tracing.Tracer(run_id="test")
    tracer.install()
    try:
        assert tracer.root(main, argv) == EXIT_OK
    finally:
        tracer.uninstall()
    return capsys.readouterr().out, tracer


@pytest.mark.parametrize("workload", sorted(selftest.SMALL))
def test_tracer_runs_on_the_small_workloads(workload, capsys):
    """The tracer reads public names of the package (`solve_spd`'s system,
    `TargetField.value`/`gradient`, the plan's weights and polar elements):
    two traced calls and one untraced call give equal report bytes, nested
    spans and equal counters, and the global solves are counted and their
    residuals, read through ``matrix[free][:, free]``, are small."""
    argv = selftest.SMALL[workload]
    (first, tracer), (second, again) = _traced(argv, capsys), _traced(argv, capsys)
    assert main(argv) == EXIT_OK
    assert first == second == capsys.readouterr().out
    assert tracer.check_nesting() == [] and again.check_nesting() == []
    calls = [{name: rec["calls"] for name, rec in t.summary()["per_name"].items()}
             for t in (tracer, again)]
    assert tracer.counts == again.counts and calls[0] == calls[1]
    if workload != "ladder":
        assert tracer.counts["bestapprox.solve_spd.unknowns"] > 0
        assert tracer.counts["bestapprox.solve_spd.rel_residual"] <= 1e-9
