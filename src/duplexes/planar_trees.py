"""Planar rooted trees with grafting and edge-contracting grafting.

A tree is either a leaf or an internal vertex carrying an ordered sequence
of at least two subtrees.  Trees are graded by leaf count; the number of
trees with ``n`` leaves is the n-th super Catalan number (1, 1, 3, 11, 45,
197, ...).

Text format: a leaf prints as ``|`` and an internal vertex as the
concatenation of its children wrapped in parentheses, e.g. ``(||)`` for the
unique 2-leaf tree and ``(|(||))`` for the 3-leaf tree whose second branch
splits again.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import ArityTooSmall, BoundExceeded, ContractLeaf, InvalidDegree, ParseError

DEFAULT_TREE_BOUND = 10


@dataclass(frozen=True)
class PlanarTree:
    """A planar rooted tree; an empty child tuple marks a leaf."""

    children: tuple[PlanarTree, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) == 1:
            raise ArityTooSmall("an internal vertex needs at least 2 children")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __str__(self) -> str:
        return format_tree(self)


LEAF = PlanarTree()


def leaf_count(t: PlanarTree) -> int:
    """Number of leaves; the degree of the tree.  Uses an explicit stack, so
    any depth works."""
    count = 0
    stack = [t]
    while stack:
        children = stack.pop().children
        if children:
            stack.extend(children)
        else:
            count += 1
    return count


def vertex_count(t: PlanarTree) -> int:
    """Number of internal vertices (a leaf has none)."""
    if t.is_leaf:
        return 0
    return 1 + sum(vertex_count(c) for c in t.children)


def vertex_levels(t: PlanarTree) -> tuple[int, ...]:
    """Sorted levels of the internal vertices; the root sits at level 0."""
    levels: list[int] = []

    def walk(node: PlanarTree, level: int) -> None:
        if node.is_leaf:
            return
        levels.append(level)
        for child in node.children:
            walk(child, level + 1)

    walk(t, 0)
    return tuple(sorted(levels))


def graft(children: Sequence[PlanarTree]) -> PlanarTree:
    """Join k >= 2 trees under a new root.

    Grafting is the unique way to build a tree with more than one leaf: the
    root's child sequence recovers exactly the grafted trees.
    """
    children = tuple(children)
    if len(children) < 2:
        raise ArityTooSmall(f"grafting needs at least 2 trees, got {len(children)}")
    return PlanarTree(children)


def graft_contract(positions: Iterable[int], children: Sequence[PlanarTree]) -> PlanarTree:
    """Graft, then contract the root edges at the given 1-based positions.

    Contracting the edge to child ``i`` replaces that child, in place, by its
    own child sequence; the child must therefore be an internal vertex.  With
    no positions this is plain grafting.
    """
    children = tuple(children)
    if len(children) < 2:
        raise ArityTooSmall(f"grafting needs at least 2 trees, got {len(children)}")
    contracted = frozenset(positions)
    for i in contracted:
        if not 1 <= i <= len(children):
            raise ValueError(f"position {i} outside 1..{len(children)}")
        if children[i - 1].is_leaf:
            raise ContractLeaf(f"cannot contract the root edge of the leaf at position {i}")
    merged: list[PlanarTree] = []
    for i, child in enumerate(children, 1):
        if i in contracted:
            merged.extend(child.children)
        else:
            merged.append(child)
    return PlanarTree(tuple(merged))


@lru_cache(maxsize=None)
def sort_key(t: PlanarTree):
    """Canonical order: fewer leaves first, then lexicographic on children."""
    return leaf_count(t), tuple(sort_key(c) for c in t.children)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # ordered decompositions of `total` into `parts` positive integers
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


@lru_cache(maxsize=None)
def _all_trees(n: int) -> tuple[PlanarTree, ...]:
    if n == 1:
        return (LEAF,)
    found: list[PlanarTree] = []
    for k in range(2, n + 1):
        for comp in _compositions(n, k):
            for combo in itertools.product(*(_all_trees(m) for m in comp)):
                found.append(PlanarTree(combo))
    return tuple(sorted(found, key=sort_key))


def enumerate_trees(n: int, bound: int = DEFAULT_TREE_BOUND) -> tuple[PlanarTree, ...]:
    """All trees with ``n`` leaves, in canonical order."""
    if n < 1:
        raise InvalidDegree(f"leaf count must be >= 1, got {n}")
    if n > bound:
        raise BoundExceeded(f"leaf count {n} exceeds the enumeration bound {bound}")
    return _all_trees(n)


@lru_cache(maxsize=None)
def super_catalan(n: int) -> int:
    """Count of trees with ``n`` leaves, via the grafting recurrence.

    A tree is a leaf or a grafting of k >= 2 smaller trees, so the count for
    n >= 2 sums products of smaller counts over all ordered decompositions of
    n into at least two parts.

    >>> [super_catalan(n) for n in range(1, 7)]
    [1, 1, 3, 11, 45, 197]
    """
    if n < 1:
        raise InvalidDegree(f"leaf count must be >= 1, got {n}")
    if n == 1:
        return 1
    # seq_count(m) counts ordered sequences of >= 1 trees with m leaves total
    total = 0
    for first in range(1, n):
        total += super_catalan(first) * _sequence_count(n - first)
    return total


@lru_cache(maxsize=None)
def _sequence_count(m: int) -> int:
    if m == 1:
        return 1
    return 2 * super_catalan(m)


def format_tree(t: PlanarTree) -> str:
    if t.is_leaf:
        return "|"
    # one iterator of children per open vertex; the walk resumes it after a subtree closes
    out = ["("]
    stack = [iter(t.children)]
    while stack:
        for child in stack[-1]:
            if child.children:
                out.append("(")
                stack.append(iter(child.children))
                break
            out.append("|")
        else:
            stack.pop()
            out.append(")")
    return "".join(out)


def parse_tree(text: str) -> PlanarTree:
    """Parse the ``|`` / ``(...)`` tree format; whitespace is ignored."""
    stripped = "".join(text.split())
    tree, pos = _parse_at(stripped, 0)
    if pos != len(stripped):
        raise ParseError(f"trailing input at position {pos}: {stripped[pos:]!r}")
    return tree


def _parse_at(text: str, pos: int) -> tuple[PlanarTree, int]:
    if pos >= len(text):
        raise ParseError("unexpected end of input")
    ch = text[pos]
    if ch == "|":
        return LEAF, pos + 1
    if ch != "(":
        raise ParseError(f"expected '|' or '(' at position {pos}, got {ch!r}")
    children: list[PlanarTree] = []
    pos += 1
    while pos < len(text) and text[pos] != ")":
        child, pos = _parse_at(text, pos)
        children.append(child)
    if pos >= len(text):
        raise ParseError("unbalanced '(': missing ')'")
    if len(children) < 2:
        raise ParseError(f"vertex closed at position {pos} has {len(children)} children, needs >= 2")
    return PlanarTree(tuple(children)), pos + 1
