"""Comparison of a job's outputs with the results pinned from the seed commit.

A sequence of rendered items is pinned verbatim when it is short and as a
size, a whole digest and one digest per block of ``BLOCK`` items when it is
long, so that a mismatch can still be located.  Every mismatch is recorded
with a message naming what differs first; none aborts the pass.
"""
from __future__ import annotations

import hashlib
import json

BLOCK = 64


def _digest(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()


def fingerprint(items: list[str]) -> dict:
    if len(items) <= BLOCK:
        return {"size": len(items), "items": list(items)}
    blocks = [_digest(items[i : i + BLOCK])[:12] for i in range(0, len(items), BLOCK)]
    return {"size": len(items), "digest": _digest(items), "blocks": blocks}


def _short(text, limit=120) -> str:
    text = str(text)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def first_difference(expected: dict, items: list[str]) -> str | None:
    """None if ``items`` match the fingerprint, else where they first differ."""
    if "items" in expected:
        for i, (want, got) in enumerate(zip(expected["items"], items)):
            if want != got:
                return f"item {i}: expected {_short(want)!r}, got {_short(got)!r}"
    else:
        got_blocks = fingerprint(items).get("blocks", [])
        for b, (want, got) in enumerate(zip(expected["blocks"], got_blocks)):
            if want != got:
                start = b * BLOCK
                return (
                    f"items {start}..{start + BLOCK - 1} differ from the pinned order "
                    f"(item {start} is now {_short(items[start])!r})"
                )
        if len(items) == expected["size"] and _digest(items) != expected["digest"]:
            return "digest differs from the pinned one"
    if len(items) != expected["size"]:
        return f"expected {expected['size']} items, got {len(items)}"
    return None


class Checker:
    """Collects the mismatches of one pass, per job.

    With ``pinning`` set, observations are recorded into ``pinned`` instead
    of being compared; that is how the expected results are produced.
    """

    def __init__(self, expected: dict, pinning: bool = False):
        self.expected = expected
        self.pinning = pinning
        self.pinned: dict = {}
        self.failures: list[str] = []

    def ok(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def seq(self, key: str, items: list[str]) -> None:
        if self.pinning:
            self.pinned[key] = fingerprint(items)
            return
        want = self.expected.get(key)
        if want is None:
            self.failures.append(f"{key}: no pinned result")
            return
        diff = first_difference(want, items)
        if diff:
            self.failures.append(f"{key}: {diff}")

    def value(self, key: str, observed: dict) -> None:
        observed = json.loads(json.dumps(observed))
        if self.pinning:
            self.pinned[key] = observed
            return
        want = self.expected.get(key)
        if want is None:
            self.failures.append(f"{key}: no pinned result")
            return
        for field in want:
            if observed.get(field) != want[field]:
                self.failures.append(
                    f"{key}: {field} expected {_short(json.dumps(want[field]))}, "
                    f"got {_short(json.dumps(observed.get(field)))}"
                )
                return
