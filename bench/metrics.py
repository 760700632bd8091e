"""Metric definitions: names, units, and which end-to-end metric each
per-layer metric is expected to move.  ``BENCHMARK.json`` lists the same
names and units; ``selftest.py`` checks that the two agree.

Every time is in normalized seconds (see ``speed.py``).  End-to-end
metrics come from untraced passes, one fresh worker interpreter per pass,
and are medians over the passes of one run:

* ``total_s``: summed run time of the pass's jobs (output checks excluded);
* ``op_p50_ms`` / ``op_p90_ms``: job latency over the latency samples of all
  passes (catalog: every slice and audit; factor: the 8! normal forms; cli:
  every command), each the mean of the samples ranked within 2.5 percentile
  points of the quantile;
* ``setup_s``: from spawning the worker to its job list being ready
  (interpreter start, import, input generation);
* ``peak_rss_mib``: the worker's peak RSS, for cli the largest CLI child's;
* ``ok_ratio``: jobs whose output was correct over jobs attempted, that is
  1 - fail_ratio, so that it never reads 0.

Per-layer metrics come from traced passes and are named
``module.function[.qualifier].unit``.  A ``.s`` metric is the pass's total
time inside the named calls, a ``.ms`` / ``_ms`` metric the median time of
one call.  Each is declared with the workload that calls its layer; a layer
that a workload does not call reads 0 there.
"""
from __future__ import annotations

import math

from tracing import median_call_ms

WORKLOADS = ("catalog", "factor", "cli")

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("total_s", "s", "lower", 0.2),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.01),
)

ENUMERATE = (
    "planar_trees.enumerate_trees", "binary_trees.enumerate_binary", "decorated_trees.enumerate_decorated",
    "permutations.enumerate_permutations", "permutations.enumerate_indecomposable", "cubes.enumerate_cubes",
)
RENDER = (
    "planar_trees.format_tree", "binary_trees.format_binary", "permutations.format_permutation",
    "cubes.format_cube",
)
STRUCTURES = ("perm", "decorated", "binary", "cube")
NORMAL_FORMS = (
    "permutations.duplex_factorize", "permutations.multiply_out", "decorated_trees.parse_expr",
    "morphisms.alpha", "morphisms.rho", "morphisms.phi", "morphisms.leaf_sign_vector",
)
GROWTH = ("permutations.duplex_factorize", "permutations.multiply_out", "decorated_trees.parse_expr")
SUBCOMMANDS = ("enumerate", "count", "factor", "eval", "map", "laws", "verify")
CHECKS = ("ass", "fesvi", "usformula", "supercatalan", "dupl", "desformula", "cor52")
SOURCES = ("factorials", "sharp-indec", "s2-indec", "super-catalan", "catalan", "dupl")

CATALOG_MOVES = "catalog.total_s and catalog.peak_rss_mib; factor unchanged"
FACTOR_MOVES = "factor.total_s and factor.op_p50_ms; catalog unchanged"


def _busy(key):
    return lambda summary, counts: summary[key]["incl_s"] if key in summary else 0.0


def _per_call(key):
    return lambda summary, counts: median_call_ms(summary, key)


def _rate(structure):
    key = f"laws.check_laws.{structure}"

    def rate(summary, counts):
        busy = summary[key]["incl_s"] if key in summary else 0.0
        return counts.get(f"triples.{structure}", 0) / busy if busy else 0.0

    return rate


def _triples(summary, counts):
    return sum(counts.get(f"triples.{s}", 0) for s in STRUCTURES)


def growth_points(summary, name) -> list[tuple[int, float]]:
    """(n, seconds) for the calls qualified ``n<degree>`` in a degree sweep."""
    prefix = name + ".n"
    return sorted(
        (int(key[len(prefix):]), entry["incl_s"])
        for key, entry in summary.items()
        if key.startswith(prefix) and key[len(prefix):].isdigit()
    )


def growth_exponent(points) -> float:
    """Least-squares slope of log(time) against log(n)."""
    points = [(math.log(n), math.log(t)) for n, t in points if t > 0]
    if len(points) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def _growth(name):
    return lambda summary, counts: growth_exponent(growth_points(summary, name))


# name, unit, better, workload that calls the layer, expected effect, value(summary, counts)
PER_LAYER = (
    *((f"{n}.s", "s", "lower", "catalog", CATALOG_MOVES, _busy(n)) for n in ENUMERATE + RENDER),
    *((f"laws.check_laws.{s}.s", "s", "lower", "catalog", "catalog.total_s", _busy(f"laws.check_laws.{s}"))
      for s in STRUCTURES),
    *((f"laws.check_laws.{s}.triples_per_s", "1/s", "higher", "catalog", "catalog.total_s", _rate(s))
      for s in STRUCTURES),
    ("laws.triples_checked", "count", "higher", "catalog", "none: repeats exactly", _triples),
    *((f"{n}.s", "s", "lower", "factor", FACTOR_MOVES, _busy(n)) for n in NORMAL_FORMS),
    ("decorated_trees.format_expr.s", "s", "lower", "factor",
     "catalog.total_s (decorated slices) and factor.total_s", _busy("decorated_trees.format_expr")),
    *((f"{n}.growth", "exponent", "lower", "factor", "factor.total_s", _growth(n)) for n in GROWTH),
    ("cli.spawn_ms", "ms", "lower", "cli", "cli.op_p50_ms", _per_call("cli.spawn")),
    ("cli.import_ms", "ms", "lower", "cli", "cli.op_p50_ms", _per_call("cli.import")),
    *((f"cli.main.{c}.ms", "ms", "lower", "cli", "cli.op_p50_ms", _per_call(f"cli.main.{c}"))
      for c in SUBCOMMANDS),
    *((f"series.verify_identity.{c}.ms", "ms", "lower", "cli", "cli.op_p90_ms and cli.total_s",
       _per_call(f"series.verify_identity.{c}")) for c in CHECKS),
    *((f"series.from_counts.{s}.ms", "ms", "lower", "cli", "cli.op_p90_ms and cli.total_s",
       _per_call(f"series.from_counts.{s}")) for s in SOURCES),
)

# reported by the runner from the traced and untraced passes of one run
TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower", "none: cost of tracing itself")

PER_LAYER_NAMES = tuple(m[0] for m in PER_LAYER) + (TRACE_OVERHEAD[0],)


def layer_metrics(summary: dict, counts: dict) -> dict[str, float]:
    return {name: value(summary, counts) for name, *_, value in PER_LAYER}
