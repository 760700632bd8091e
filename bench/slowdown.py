"""Check that the speed normalization passes a known slowdown through in full.

The probe kernel of ``speed.py`` runs inside the measured process, so a
regression that works through shared state (a larger heap, more cache
misses) might slow the kernel too and be divided out.  This script runs the
factor workload in this process, alternating a plain pass with two slowed
ones, and compares the rise of the normalized ``total_s`` with the rise of
the raw wall time:

* ``twice``: every job's run step is called twice (added work);
* ``heap``: a ballast of ``BALLAST`` live lists, and a full collection over
  it inside every ``COLLECT_EVERY``-th job's run step (memory-bound work that
  grows with the heap and evicts the caches the kernel shares).

It exits 1 if a normalized rise differs from the raw one by more than
``TOLERANCE`` of the raw rise.

    python3 bench/slowdown.py
"""
from __future__ import annotations

import gc
import json
import platform
import statistics
import sys

from checks import Checker
from speed import SpeedProbe
from tracing import NullTracer
from worker import EXPECTED, execute
from workloads import build

BALLAST = 500_000
COLLECT_EVERY = 800
TOLERANCE = 0.15
ROUNDS = 2  # each round runs every variant once, so all see the same machine phases


def twice(jobs):
    for job in jobs:
        job.run = lambda run=job.run: (run(), run())[1]


def heap(jobs):
    ballast = [[i] for i in range(BALLAST)]  # lives as long as the jobs
    for job in jobs[::COLLECT_EVERY]:
        job.run = lambda run=job.run, ballast=ballast: (gc.collect(), run())[1]


SLOWDOWNS = {"plain": lambda jobs: None, "twice": twice, "heap": heap}


def main() -> int:
    expected = json.loads(EXPECTED.read_text())
    totals = {name: {"normalized": [], "raw": []} for name in SLOWDOWNS}
    for round_ in range(ROUNDS):
        for name, slow_down in SLOWDOWNS.items():
            workload = build("factor", round_, NullTracer())
            slow_down(workload.jobs)
            with SpeedProbe() as probe:
                result = execute(workload, NullTracer(), Checker(expected), probe)
            del workload
            if result["failed"]:
                print(f"{name}: {result['failed']} jobs failed:", *result["failures"], sep="\n  ")
                return 1
            totals[name]["normalized"].append(result["total_s"])
            totals[name]["raw"].append(result["total_raw_s"])
            print(f"round {round_} {name}: total {result['total_s']:.4f} s ({result['total_raw_s']:.4f} s raw)",
                  flush=True)

    plain = {kind: statistics.median(values) for kind, values in totals["plain"].items()}
    ok = True
    print(f"python {platform.python_version()}, medians over {ROUNDS} rounds:")
    for name in ("twice", "heap"):
        rise = {kind: statistics.median(values) / plain[kind] for kind, values in totals[name].items()}
        agree = abs(rise["normalized"] / rise["raw"] - 1) <= TOLERANCE
        ok &= agree
        print(f"  {name}: normalized total_s x{rise['normalized']:.3f}, raw x{rise['raw']:.3f}"
              f"{'' if agree else '  DIFFERENT'}")
    print("slowdown:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
