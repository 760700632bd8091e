"""Spans around the benchmark's calls into the library's public functions.

A span is ``[name, qualifier, start, end, parent, job, local]``: ``parent``
is the index of the enclosing span (-1 for none), ``job`` the id of the job
the call served and ``local`` false for spans recorded in a child process.
Spans stay in memory until the pass ends.  Untraced passes use
:class:`NullTracer`, whose ``wrap`` hands back the function itself, so an
untraced pass calls the library exactly as a user would.
"""
from __future__ import annotations

import statistics
import time
from contextlib import nullcontext

NAME, QUALIFIER, START, END, PARENT, JOB, LOCAL = range(7)


class NullTracer:
    enabled = False
    job = None

    def wrap(self, name, fn, qualifier=None):
        return fn

    def span(self, name, qualifier=None):
        return nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer._open(self.record)
        return self.record

    def __exit__(self, *exc):
        self.tracer._close(self.record)
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = None

    def _open(self, record):
        record[PARENT] = self._stack[-1] if self._stack else -1
        record[JOB] = self.job
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()

    def _close(self, record):
        record[END] = time.perf_counter()
        self._stack.pop()

    def span(self, name, qualifier=None):
        return _Span(self, [name, qualifier, 0.0, 0.0, -1, None, True])

    def wrap(self, name, fn, qualifier=None):
        def traced(*args, **kwargs):
            record = [name, qualifier, 0.0, 0.0, -1, None, True]
            self._open(record)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    def adopt(self, spans):
        """Append spans recorded in a child process under the open span.

        Both processes read the same monotonic clock, so the times compare.
        """
        base = len(self.spans)
        outer = self._stack[-1] if self._stack else -1
        for name, qualifier, start, end, parent, *_ in spans:
            self.spans.append([name, qualifier, start, end, outer if parent < 0 else base + parent, self.job, False])


def summarize(spans, net=lambda s: s[END] - s[START], scale=lambda s: 1.0) -> dict[str, dict]:
    """Per ``name`` and per ``name.qualifier``: call count, inclusive and self
    seconds, and the duration of every call (for per-call medians).

    ``net(span)`` is the span's own measured seconds and ``scale(span)`` the
    factor that normalizes them; self time is the span's net time minus
    that of its direct children, scaled by the span's own factor.
    """
    nets = [net(s) for s in spans]
    covered = [0.0] * len(spans)
    for s, seconds in zip(spans, nets):
        if s[PARENT] >= 0:
            covered[s[PARENT]] += seconds
    out: dict[str, dict] = {}
    for s, seconds, children in zip(spans, nets, covered):
        factor = scale(s)
        keys = [s[NAME]] if s[QUALIFIER] is None else [s[NAME], f"{s[NAME]}.{s[QUALIFIER]}"]
        for key in keys:
            entry = out.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["incl_s"] += seconds * factor
            entry["self_s"] += (seconds - children) * factor
            entry["durations"].append(seconds * factor)
    return out


def median_call_ms(summary: dict, key: str) -> float:
    entry = summary.get(key)
    return 1e3 * statistics.median(entry["durations"]) if entry else 0.0
