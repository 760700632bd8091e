"""Benchmark of the duplexes library and CLI.

    python3 bench/run.py --workload catalog|factor|cli --seed N --seconds S --trace 0|1

Runs passes of one workload, each in a fresh worker interpreter and one
after another (a closed loop with a single client, no parallel children),
while another pass still fits in ``--seconds``; at least ``MIN_PASSES`` run.  Every
job's output is checked.  Report lines go to stdout, then, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced passes, and
reports the difference of their median ``total_s`` as ``trace.overhead_s``.
Times are normalized to a reference machine speed (see ``speed.py``); the
report lines give the raw wall times beside them.  The full result, with
the environment stamp, is also written to ``bench/results/``, and a traced
run's spans to ``bench/results/spans-<workload>.jsonl``.

Metric definitions are in ``metrics.py``; workloads in ``workloads.py``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, TRACE_OVERHEAD, WORKLOADS
from speed import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
MIN_PASSES = 2
PASS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def quantile(samples, q, half_band=0.025):
    """The mean of the samples ranked within ``half_band`` of quantile ``q``.

    A plain order statistic hops between neighbouring jobs whose times sit
    apart (catalog's small slices); averaging the band around it does not.
    """
    ranked = sorted(samples)
    last = len(ranked) - 1
    lo, hi = round((q - half_band) * last), round((q + half_band) * last)
    return statistics.fmean(ranked[lo : hi + 1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def stamp(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_digest": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "small": args.small,
    }


def run_pass(args, traced: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced))]
    if args.small:
        cmd.append("--small")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"a {args.workload} pass took longer than {PASS_TIMEOUT_S} s") from None
    if ready.strip() != "ready" or proc.returncode != 0 or not rest.strip():
        raise BenchError(f"worker exited with {proc.returncode} before reporting a pass")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_raw_s"] = setup
    result["setup_s"] = (setup - result["setup_probe_s"]) * REFERENCE_S / result["setup_speed_s"]
    result["traced"] = traced
    result["wall_s"] = time.perf_counter() - start
    return result


def run_passes(args) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(args, traced))
        elapsed = time.perf_counter() - start
        longest = max(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + longest > args.seconds:
            return passes


def end_to_end(passes) -> tuple[dict, dict]:
    samples = [s for p in passes for s in p["samples_s"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "total_s": statistics.median(p["total_s"] for p in passes),
        "op_p50_ms": 1e3 * quantile(samples, 0.5),
        "op_p90_ms": 1e3 * quantile(samples, 0.9),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "ok_ratio": (attempted - failed) / attempted,
    }
    return values, {"latency_samples": len(samples), "beyond_p90": len(samples) - round(0.9 * len(samples))}


def per_layer(traced, untraced) -> dict:
    values = {name: statistics.median(p["layers"][name] for p in traced) for name, *_ in PER_LAYER}
    values[TRACE_OVERHEAD[0]] = (statistics.median(p["total_s"] for p in traced)
                                 - statistics.median(p["total_s"] for p in untraced))
    return values


def report(args, env, passes, metrics, extra) -> None:
    print("environment: " + json.dumps(env))
    for i, p in enumerate(passes):
        print(f"pass {i}{' traced' if p['traced'] else ''}: total {p['total_s']:.4f} s "
              f"({p['total_raw_s']:.4f} s raw), setup {p['setup_s']:.4f} s ({p['setup_raw_s']:.4f} s raw), "
              f"probe {1e6 * p['probe_s']:.0f} us, peak {p['peak_rss_mib']:.1f} MiB, "
              f"{p['failed']}/{p['attempted']} jobs failed")
        for message in p["failures"]:
            print(f"  FAIL {message}")
    if not args.trace:
        print(f"latency samples: {extra['latency_samples']} ({extra['beyond_p90']} beyond p90)")
        units = {name: unit for name, unit, *_ in END_TO_END}
    else:
        units = {name: unit for name, unit, *_ in PER_LAYER + (TRACE_OVERHEAD,)}
        last = [p for p in passes if p["traced"]][-1]
        print("spans of the last traced pass (calls, inclusive s, self s):")
        for key, entry in sorted(last["spans_summary"].items()):
            print(f"  {key}: {entry['calls']} {entry['incl_s']:.4f} {entry['self_s']:.4f}")
        for name, points in last["growth_points"].items():
            if points:
                raw = ", ".join(f"n={n}: {t:.4f} s" for n, t in points)
                print(f"  growth {name}: {last['layers'][name + '.growth']:.3f} ({raw})")
        print("expected effect of each per-layer metric:")
        for name, _unit, _better, workload, moves, _value in PER_LAYER:
            print(f"  {name} ({workload}) -> {moves}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the duplexes library and CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for the self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "duplexes" / "__init__.py").is_file():
        print(f"error: no duplexes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    env = stamp(args)
    try:
        passes = run_passes(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer([p for p in passes if p["traced"]], [p for p in passes if not p["traced"]])
        extra = {}
    else:
        metrics, extra = end_to_end(passes)
    report(args, env, passes, metrics, extra)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER + (TRACE_OVERHEAD,)}
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    full = {"environment": env, **extra, **line,
            "passes": [{k: v for k, v in p.items() if k not in ("samples_s",)} for p in passes]}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
