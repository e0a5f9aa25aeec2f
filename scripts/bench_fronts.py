#!/usr/bin/env python3
"""Parent-against-change benchmark of the global solve's elimination trees.

    git archive PARENT | tar -x -C /tmp/parent
    git archive HEAD | tar -x -C /tmp/change
    python3 scripts/bench_fronts.py --parent /tmp/parent --change /tmp/change \
        --out BENCH.json

Each side is a fresh export of one commit.  Every run is one fresh process,
run one at a time with no bytecode cache, parent and change alternating
(pair i: parent first when i is even).  Two parts:

- ``no_regression``: ``perfbench/run.py --trace 0`` of each benchmark
  workload, ``--pairs`` pairs per workload; medians, quartiles
  (numpy.percentile) and the pairs the change wins, per end-to-end metric.
- ``scaled_sizes``: one CLI call per process (numpy and ``qmloc.cli``
  imported first, stdout to a buffer), timed by ``time.perf_counter``, peak
  RSS by ``getrusage``; in the same process the elimination-tree builds
  (``dissection_fronts``, and ``level_fronts`` where it exists) are counted
  and timed, and the largest factor price from ``bestapprox._front_bytes``
  is kept.  Commands named in ``--change-only`` run on the change alone; for
  those the parent's P1 ``stars`` price is read from its
  ``harness._star_factor_bytes`` without running the sweep.

``bytes_per_element`` reads the peak RSS of the change at two sizes per
sweep and reports twice the slope, against the harness's estimate tables.
``--previous FILE`` keeps the record of an earlier round, so that every run
made is reported.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

WORKLOADS = ("rd", "alpha", "stars", "ladder")
METRICS = {"wall_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower",
           "verified_frac": "higher"}
SCALED = ("stars --n 32", "stars --n 128", "stars --n 256", "alpha --refines 6",
          "rd --refines 5", "alpha --refines 6 --ell 3")
SLOPES = {"stars": (("stars --n 16", 2048), ("stars --n 32", 8192)),
          "alpha": (("alpha --refines 4", 1024), ("alpha --refines 5", 4096)),
          "rd": (("rd --refines 4", 1024), ("rd --refines 5", 4096))}

# One CLI call, measured; prints one JSON line.
ONE_CALL = r"""
import contextlib, io, json, resource, sys, time
sys.path.insert(0, "src")
import numpy
import qmloc.bestapprox as ba
import qmloc.cli
stats = {"tree_builds": 0, "tree_build_s": 0.0, "front_bytes": 0}

def timed(build):
    def wrapped(*args):
        start = time.perf_counter()
        try:
            return build(*args)
        finally:
            stats["tree_builds"] += 1
            stats["tree_build_s"] += time.perf_counter() - start
    return wrapped

for name in ("dissection_fronts", "level_fronts"):
    if hasattr(ba, name):
        setattr(ba, name, timed(getattr(ba, name)))
front_bytes = ba._front_bytes

def priced(*args):
    price = front_bytes(*args)
    stats["front_bytes"] = max(stats["front_bytes"], int(price))
    return price

ba._front_bytes = priced
argv = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    code = qmloc.cli.main(argv)
    wall = time.perf_counter() - start
stats.update(exit=code, wall_s=wall,
             peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
print(json.dumps(stats))
"""

# The P1 `stars` factor price of a commit that priced its level chain from N
# alone; null for one that does not.
STAR_PRICE = r"""
import sys
sys.path.insert(0, "src")
try:
    from qmloc.harness import _star_factor_bytes
except ImportError:
    print("null")
else:
    print(_star_factor_bytes(int(sys.argv[1])))
"""

ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
       "PYTHONDONTWRITEBYTECODE": "1"}


def _python(tree: str, args: list, code: str | None = None) -> str:
    cmd = [sys.executable, *(["-c", code] if code else []), *args]
    done = subprocess.run(cmd, cwd=tree, env=ENV, capture_output=True, text=True, check=True)
    return done.stdout.strip().splitlines()[-1]


def _alternating(pairs: int, run) -> dict:
    out = {"parent": [], "change": []}
    for i in range(pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            out[side].append(run(side))
            print(f"  {side}: {json.dumps(out[side][-1])[:160]}", file=sys.stderr, flush=True)
    return out


def _summary(parent: list, change: list, better: str) -> dict:
    p, c = np.array(parent), np.array(change)
    wins = int(np.sum(c < p) if better == "lower" else np.sum(c > p))
    q1, med, q3 = np.percentile(p, [25, 50, 75])
    cq1, cmed, cq3 = np.percentile(c, [25, 50, 75])
    return {"pairs": len(p), "change_wins": wins, "parent_median": med, "parent_q1": q1,
            "parent_q3": q3, "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
            "relative_change": (cmed - med) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--parent-label", help="what the parent export is, for the record")
    parser.add_argument("--change-label", help="what the change export is, for the record")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--scaled-pairs", type=int, default=3)
    parser.add_argument("--change-only", default="stars --n 256",
                        help="comma-separated scaled commands run on the change alone")
    parser.add_argument("--previous", action="append", default=[],
                        help="an earlier record of this script, kept under earlier_rounds")
    args = parser.parse_args()
    trees = {"parent": args.parent, "change": args.change}
    record = {
        "parent": args.parent_label or args.parent, "change": args.change_label or args.change,
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs, "
                   f"Python {platform.python_version()}, numpy {np.__version__}",
        "order": "one run at a time, each side a fresh export with no bytecode cache; pair i "
                 "parent first when i is even, change first when odd",
        "claimed_gain": None,
        "pairs": args.pairs, "scaled_pairs": args.scaled_pairs,
    }

    runs, no_regression = {}, {}
    for workload in WORKLOADS:
        print(f"perfbench {workload}", file=sys.stderr, flush=True)
        argv = ["perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "24",
                "--trace", "0"]
        got = _alternating(args.pairs, lambda side: json.loads(_python(trees[side], argv)))
        runs[workload] = got
        no_regression[workload] = {
            m: _summary([r["metrics"][m]["value"] for r in got["parent"]],
                        [r["metrics"][m]["value"] for r in got["change"]], better)
            for m, better in METRICS.items()}
        no_regression[workload]["failed"] = {side: sum(r["failed"] for r in got[side])
                                            for side in got}
    record["no_regression"], record["runs"] = no_regression, runs

    change_only = {c.strip() for c in args.change_only.split(",") if c.strip()}
    scaled = {}
    for command in SCALED:
        print(command, file=sys.stderr, flush=True)
        argv = [*command.split(), "--format", "json"]

        def run(side, argv=argv):
            return json.loads(_python(trees[side], argv, ONE_CALL))

        if command in change_only:
            got = {"change": [run("change") for _ in range(args.scaled_pairs)]}
            n = int(command.split()[-1])
            got["parent_front_bytes_unrun"] = json.loads(_python(args.parent, [str(n)],
                                                                 STAR_PRICE))
        else:
            got = _alternating(args.scaled_pairs, run)
        for side in ("parent", "change"):
            if side in got:
                got[side + "_median"] = {
                    k: float(np.median([r[k] for r in got[side]]))
                    for k in ("wall_s", "peak_rss_mb", "tree_builds", "tree_build_s",
                              "front_bytes")}
        scaled[command] = got
    record["scaled_sizes"] = scaled

    slopes = {}
    for sweep, ((small, n_small), (large, n_large)) in SLOPES.items():
        rss = {c: json.loads(_python(args.change, [*c.split(), "--format", "json"],
                                     ONE_CALL))["peak_rss_mb"] for c in (small, large)}
        slopes[sweep] = {"peak_rss_mb": rss, "twice_slope_bytes_per_element": round(
            2 * (rss[large] - rss[small]) * 2**20 / (n_large - n_small))}
    record["bytes_per_element"] = slopes
    record["earlier_rounds"] = []
    for path in args.previous:
        with open(path) as fh:
            record["earlier_rounds"].append(json.load(fh))

    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
