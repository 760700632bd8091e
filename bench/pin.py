"""Record the expected results of the fixed jobs into ``expected.json``.

The file holds the outputs of the commit it was produced on; the benchmark
checks every later commit against it.  Re-pin only for an output change that
is intended and documented.  Seeded jobs are never pinned: they are checked
by independent round trips.

    python3 bench/pin.py
"""
import json
import sys

from checks import Checker
from speed import SpeedProbe
from tracing import NullTracer
from worker import EXPECTED, execute
from workloads import build


def main() -> int:
    pinned = {}
    for small in (False, True):
        for name in ("catalog", "factor", "cli"):
            checker = Checker({}, pinning=True)
            with SpeedProbe() as probe:
                result = execute(build(name, 0, NullTracer(), small), NullTracer(), checker, probe)
            if result["failed"]:
                print(f"{name}: {result['failed']} jobs failed their own checks:", *result["failures"], sep="\n  ")
                return 1
            pinned.update(checker.pinned)
    EXPECTED.write_text(json.dumps(pinned, indent=0, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} results into {EXPECTED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
