"""Planar rooted trees with grafting and edge-contracting grafting.

A tree is either a leaf or an internal vertex carrying an ordered sequence
of at least two subtrees.  Trees are graded by leaf count; the number of
trees with ``n`` leaves is the n-th super Catalan number (1, 1, 3, 11, 45,
197, ...).

Binary trees (:mod:`duplexes.binary_trees`) are the trees whose every
internal vertex has exactly two children; they are values of this same
type, not a separate one.

Text format: a leaf prints as ``|`` and an internal vertex as the
concatenation of its children wrapped in parentheses, e.g. ``(||)`` for the
unique 2-leaf tree and ``(|(||))`` for the 3-leaf tree whose second branch
splits again.  The text determines the tree, so a tree *is* its text: the
one stored field.  Equality and hashing compare strings, products splice
strings, and every other routine reads the text in one loop over its
characters, so any depth works.
"""
from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Iterable, Iterator

from ._values import DuplexOps, _build, _Value  # DuplexOps: exported from here
from .errors import ArityTooSmall, InvalidDegree, ParseError, check_degree, check_text

DEFAULT_TREE_BOUND = 10


class PlanarTree(_Value):
    """A planar rooted tree, built by grafting its children under a new root
    (none for a leaf, one raises ``ArityTooSmall``, a child that is not a
    ``PlanarTree`` ``TypeError``) and held as its canonical text;
    ``.children`` recovers exactly the grafted trees."""

    __slots__ = ("text",)
    text: str

    def __init__(self, children: Iterable[PlanarTree] = ()):
        texts = []
        for child in children:
            if not isinstance(child, PlanarTree):
                raise TypeError(f"children must be PlanarTree values, got {child!r}")
            texts.append(child.text)
        if len(texts) == 1:
            raise ArityTooSmall("an internal vertex needs at least 2 children")
        object.__setattr__(self, "text", "(" + "".join(texts) + ")" if texts else "|")

    def __reduce__(self):
        return parse_tree, (self.text,)

    @property
    def is_leaf(self) -> bool:
        return self.text == "|"

    @property
    def children(self) -> tuple[PlanarTree, ...]:
        """The root's subtrees, cut from the text where the depth returns to 0."""
        found = []
        depth = start = 0
        inner = self.text[1:-1]
        for end, ch in enumerate(inner, 1):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if not depth:
                found.append(_tree(inner[start:end]))
                start = end
        return tuple(found)

    def __str__(self) -> str:
        return self.text


_tree = PlanarTree._make  # the tree of a canonical text the library built; unchecked


LEAF = PlanarTree()


def leaf_count(t: PlanarTree) -> int:
    """Number of leaves; the degree of the tree."""
    return t.text.count("|")


@lru_cache(maxsize=None)
def _tree_texts(n: int) -> tuple[str, ...]:
    # Canonical order compares leaf counts, then the children's keys left to
    # right.  Split a tree into its first child t (m leaves) and the rest: the
    # rest is either the children of an internal tree s with n - m leaves, or
    # one such tree s itself, and a tail of several children sorts before any
    # single-child tail because its first child has fewer leaves.  So ascending
    # m, then t, then tails in that order is already the canonical order.
    # In text, t followed by the children of s is "(" + t + s[1:].
    # The cache holds strings, which the garbage collector does not track.
    if n == 1:
        return ("|",)
    texts: list[str] = []
    for m in range(1, n):
        rests = _tree_texts(n - m)
        tails = [s[1:] for s in rests if s != "|"] + [s + ")" for s in rests]
        for t in _tree_texts(m):
            head = "(" + t
            texts += [head + tail for tail in tails]
    return tuple(texts)


def enumerate_trees(n: int) -> tuple[PlanarTree, ...]:
    """All trees with ``n`` leaves, in canonical order: fewer leaves first,
    then lexicographic on the children; n <= ``DEFAULT_TREE_BOUND``.  Only
    the texts are cached: each call builds fresh trees, equal to the last.

    >>> [format_tree(t) for t in enumerate_trees(3)]
    ['(|||)', '(|(||))', '((||)|)']
    """
    check_degree(n, DEFAULT_TREE_BOUND)
    return _build(PlanarTree, _tree_texts(n))


def super_catalan(n: int) -> int:
    """Count of trees with ``n`` leaves, the last of :func:`_super_catalans`.

    >>> [super_catalan(n) for n in range(1, 7)]
    [1, 1, 3, 11, 45, 197]
    """
    if n < 1:
        raise InvalidDegree(f"leaf count must be >= 1, got {n}")
    return deque(_super_catalans(n), maxlen=1).pop()


def _super_catalans(order: int) -> Iterator[int]:
    # s_1..s_order by (n+1)·s(n+1) = (6n-3)·s(n) - (n-2)·s(n-1) from s_1 = s_2 = 1,
    # the D-finite recurrence of the little Schroeder numbers (OEIS A001003):
    # each step is exact, and holds two counts
    before, current = 1, 1
    for n in range(2, order + 2):
        yield before
        before, current = current, ((6 * n - 3) * current - (n - 2) * before) // (n + 1)


def format_tree(t: PlanarTree) -> str:
    return t.text


def parse_tree(text: str) -> PlanarTree:
    """Parse the ``|`` / ``(...)`` tree format; whitespace is ignored.  A
    text that passes the scan is canonical once stripped, and is kept."""
    check_text(text)
    stripped = "".join(text.split())
    end = len(stripped)
    # children counted so far of each open vertex, below a slot for the result
    stack = [0]
    pos = 0
    while True:
        if pos >= end:
            raise ParseError("unexpected end of input")
        ch = stripped[pos]
        if ch == "(":
            stack.append(0)
        elif ch == "|":
            stack[-1] += 1
        else:
            raise ParseError(f"expected '|' or '(' at position {pos}, got {ch!r}")
        pos += 1
        while len(stack) > 1:
            if pos >= end:
                raise ParseError("unbalanced '(': missing ')'")
            if stripped[pos] != ")":
                break
            children = stack.pop()
            if children < 2:
                raise ParseError(f"vertex closed at position {pos} has {children} children, needs >= 2")
            stack[-1] += 1
            pos += 1
        else:
            if pos != end:
                raise ParseError(f"trailing input at position {pos}: {stripped[pos:]!r}")
            return _tree(stripped)
