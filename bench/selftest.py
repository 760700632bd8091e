"""Self-test of the benchmark at reduced sizes.

Checks that ``BENCHMARK.json`` names exactly the metrics the benchmark
defines, that every workload emits every end-to-end metric untraced and
every per-layer metric traced with all its jobs passing, that each
per-layer metric reads non-zero in the workload that calls its layer (so a
span that stops recording shows), and that a wrong pinned value is reported
as a failure naming what differs.

    python3 bench/selftest.py
"""
import copy
import json
import subprocess
import sys
from pathlib import Path

from checks import Checker
from metrics import END_TO_END, PER_LAYER, PER_LAYER_NAMES, TRACE_OVERHEAD, WORKLOADS
from speed import SpeedProbe
from tracing import NullTracer
from worker import EXPECTED, execute
from workloads import build

BENCH = Path(__file__).resolve().parent
problems = []


def expect(condition, message):
    if not condition:
        problems.append(message)


def check_declaration():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    expect(declared == [tuple(m) for m in END_TO_END], f"end_to_end in BENCHMARK.json: {declared}")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    defined = [tuple(m[:3]) for m in PER_LAYER] + [TRACE_OVERHEAD[:3]]
    expect(declared == defined, "per_layer in BENCHMARK.json differs from metrics.py")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names differ")


def check_runs():
    names = {0: [m[0] for m in END_TO_END], 1: list(PER_LAYER_NAMES)}
    traced = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--small"],
                capture_output=True, text=True, timeout=300,
            )
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(line) == ["attempted", "correct", "failed", "metrics"], f"{where}: keys {sorted(line)}")
            expect(line["correct"] and line["failed"] == 0, f"{where}: {line['failed']} jobs failed")
            expect(list(line["metrics"]) == names[trace], f"{where}: metrics {sorted(line['metrics'])}")
            if trace:
                traced[workload] = line["metrics"]
    for name, _unit, _better, workload, *_ in PER_LAYER:
        if workload in traced:
            value = traced[workload].get(name, {}).get("value")
            expect(value, f"{workload} --trace 1: {name} reads {value}, its layer was not recorded")


def failures_with(workload, tamper):
    expected = copy.deepcopy(json.loads(EXPECTED.read_text()))
    tamper(expected)
    checker = Checker(expected)
    with SpeedProbe() as probe:
        result = execute(build(workload, 7, NullTracer(), small=True), NullTracer(), checker, probe)
    return result["failed"], checker.failures


def check_tampering():
    def item(key, index, value):
        def tamper(expected):
            expected[key]["items"][index] = value
        return tamper

    def field(key, name, value):
        def tamper(expected):
            expected[key][name] = value
        return tamper

    cases = [
        ("catalog", item("catalog:trees/4", 3, "(|)"), "catalog:trees/4: item 3: expected '(|)'"),
        ("catalog", field("catalog:laws/binary/duplex/5", "triples_checked", 1),
         "catalog:laws/binary/duplex/5: triples_checked expected 1, got 34"),
        ("cli", item("cli:count --sequence d --max 4", 4, "[2, 1]"),
         "cli:count --sequence d --max 4: item 4: expected '[2, 1]'"),
    ]
    for workload, tamper, message in cases:
        failed, failures = failures_with(workload, tamper)
        expect(failed == 1 and len(failures) == 1 and failures[0].startswith(message),
               f"tampered {workload}: {failed} failed, messages {failures}")


def main() -> int:
    check_declaration()
    check_tampering()
    check_runs()
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
