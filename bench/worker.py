"""One pass of one workload in a fresh interpreter.

Prints ``ready`` once the job list is built, so the parent can time set-up,
then runs every job, checks its output and prints one JSON line with the
pass's timings, failures and, on a traced pass, its per-layer metrics; a
traced pass also writes its spans to ``results/spans-<workload>.jsonl``.
Timings are normalized to the reference machine speed (see ``speed.py``);
the raw wall times are reported beside them.

    python3 bench/worker.py --workload catalog --seed 1 --trace 0
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import Checker  # noqa: E402
from metrics import GROWTH, growth_points, layer_metrics  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import END, LOCAL, START, NullTracer, Tracer, summarize  # noqa: E402
from workloads import build  # noqa: E402

EXPECTED = Path(__file__).with_name("expected.json")
RESULTS = Path(__file__).with_name("results")
MAX_MESSAGES = 20


def _run(job, tracer):
    start = time.perf_counter()
    try:
        with tracer.span("job", job.name.split("/")[0]):
            output = job.run()
    except Exception as exc:  # recorded as this job's failure
        return None, exc, start, time.perf_counter()
    return output, None, start, time.perf_counter()


def execute(workload, tracer, checker, probe) -> dict:
    """Run and check every job once; one job's failure never stops the pass.

    Jobs that wait on a child process pause the timer samples, which would
    take the child's core, and are sampled just before and after instead.
    """
    if tracer.enabled and workload.traced_only:
        with probe.paused():
            workload.traced_only()
    times, failed, counts = [], [], Counter()
    total_raw = 0.0
    for job_id, job in enumerate(workload.jobs):
        tracer.job = job_id
        before = len(checker.failures)
        if workload.in_process:
            output, error, start, end = _run(job, tracer)
            times.append(probe.normalize(start, end))
        else:
            with probe.paused():
                probe.sample()
                output, error, start, end = _run(job, tracer)
                probe.sample()
            times.append((end - start) * probe.scale(start, probe.ends[-1]))
        total_raw += end - start
        if error is not None:
            checker.failures.append(f"{job.name}: raised {type(error).__name__}: {error}")
        else:
            try:
                counts.update(job.check(checker, output) or {})
            except Exception as exc:  # a check that cannot read the output fails the job
                checker.failures.append(f"{job.name}: check raised {type(exc).__name__}: {exc}")
        if len(checker.failures) > before:
            failed.append(job.name)
    return {
        "total_s": sum(times),
        "total_raw_s": total_raw,
        "samples_s": [t for t, job in zip(times, workload.jobs) if job.sample],
        "attempted": len(workload.jobs),
        "failed": len(failed),
        "failures": checker.failures[:MAX_MESSAGES],
        "counts": dict(counts),
    }


def peak_rss_mib(in_process: bool) -> float:
    """Of this process, or of the largest child for work done in children."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for the self-test")
    args = parser.parse_args()

    with SpeedProbe() as probe:
        setup_start = time.perf_counter()
        tracer = Tracer() if args.trace else NullTracer()
        workload = build(args.workload, args.seed, tracer, args.small)
        if not workload.in_process:
            # children inherit the core, so the samples between them measure it
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        checker = Checker(json.loads(EXPECTED.read_text()))
        setup_end = time.perf_counter()
        print("ready", flush=True)
        result = execute(workload, tracer, checker, probe)

    result["setup_speed_s"] = probe.speed(setup_start, setup_end)
    result["setup_probe_s"] = (setup_end - setup_start) - probe.net(setup_start, setup_end)
    result["probe_s"] = probe.median()
    result["peak_rss_mib"] = peak_rss_mib(workload.in_process)
    if args.trace:
        summary = summarize(
            tracer.spans,
            net=lambda s: probe.net(s[START], s[END]) if s[LOCAL] and workload.in_process else s[END] - s[START],
            scale=lambda s: probe.scale(s[START], s[END]),
        )
        result["layers"] = layer_metrics(summary, result["counts"])
        result["spans_summary"] = {
            key: {f: v for f, v in entry.items() if f != "durations"} for key, entry in summary.items()
        }
        result["growth_points"] = {name: growth_points(summary, name) for name in GROWTH}
        RESULTS.mkdir(exist_ok=True)
        with open(RESULTS / f"spans-{args.workload}.jsonl", "w") as out:
            for span in tracer.spans:
                out.write(json.dumps(span) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
