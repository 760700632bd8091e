"""Planar binary trees with the degree-preserving over/under products.

A binary tree is a :class:`~duplexes.planar_trees.PlanarTree` whose every
internal vertex has exactly two children; elements are graded by
internal-vertex count (one less than the leaf count).  The bare leaf
``STUB`` is ``LEAF``; it is not an element and only pads the branches (a
degree-n element has n+1 stubs).  The text format is the planar one.

``over(u, v)`` identifies the root of ``u`` with the leftmost leaf of
``v``; ``under(u, v)`` identifies the root of ``v`` with the rightmost leaf
of ``u``.  Both are associative and satisfy ``over(a, under(b, c)) ==
under(over(a, b), c)``.  Both products and :func:`eval_duplexes1` walk with
loops and explicit stacks, so any depth works.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .decorated_trees import DuplexOps
from .errors import BoundExceeded, InvalidDegree, ParseError, StubNotSplittable
from .planar_trees import LEAF, PlanarTree, format_tree, leaf_count, parse_tree

DEFAULT_BINARY_BOUND = 10

STUB = LEAF
SINGLE_NODE = PlanarTree((LEAF, LEAF))  # the degree-1 element; generates everything


def node(left: PlanarTree, right: PlanarTree) -> PlanarTree:
    return PlanarTree((left, right))


def degree(u: PlanarTree) -> int:
    """Number of internal vertices."""
    return leaf_count(u) - 1


def over(u: PlanarTree, v: PlanarTree) -> PlanarTree:
    """Graft ``u`` onto the leftmost leaf of ``v``; stubs act neutrally."""
    if not v.children:
        return u
    if not u.children:
        return v
    rights = []  # right branches along the left spine of v, top down
    while v.children:
        v, right = v.children
        rights.append(right)
    for right in reversed(rights):
        u = PlanarTree((u, right))
    return u


def under(u: PlanarTree, v: PlanarTree) -> PlanarTree:
    """Graft ``v`` onto the rightmost leaf of ``u``; stubs act neutrally."""
    if not u.children:
        return v
    if not v.children:
        return u
    lefts = []  # left branches along the right spine of u, top down
    while u.children:
        left, u = u.children
        lefts.append(left)
    for left in reversed(lefts):
        v = PlanarTree((left, v))
    return v


BINARY_OPS = DuplexOps(over, under)


def split(u: PlanarTree) -> tuple[PlanarTree, PlanarTree]:
    """The unique pair of branches under the root."""
    if u.is_leaf:
        raise StubNotSplittable("the stub has no root to split")
    return u.children


def eval_duplexes1(u: PlanarTree, a, ops: DuplexOps):
    """Image of ``u`` under the canonical homomorphism sending the one-node
    tree to ``a``.

    A node maps to ``(image(left) . a) * image(right)``, stub branches
    dropping their side.  This is the unique extension whenever the target
    satisfies ``(x.y)*z = x.(y*z)``.  Evaluated bottom-up with an explicit
    stack.
    """
    if u.is_leaf:
        raise StubNotSplittable("the stub is not an element and has no image")
    images = []  # images of the finished subtrees, None for a stub
    stack = [(u, False)]
    while stack:
        t, ready = stack.pop()
        if not t.children:
            images.append(None)
        elif not ready:
            stack += ((t, True), (t.children[1], False), (t.children[0], False))
        else:
            right = images.pop()
            left = images.pop()
            mid = a if left is None else ops.dot(left, a)
            images.append(mid if right is None else ops.star(mid, right))
    return images[0]


@lru_cache(maxsize=None)
def _all_binary(n: int) -> tuple[PlanarTree, ...]:
    # ascending left size, then left, then right: already the canonical order
    if n == 0:
        return (STUB,)
    return tuple(
        PlanarTree((l, r))
        for i in range(n)
        for l in _all_binary(i)
        for r in _all_binary(n - 1 - i)
    )


def enumerate_binary(n: int, bound: int = DEFAULT_BINARY_BOUND) -> tuple[PlanarTree, ...]:
    """All degree-n binary trees in canonical order; never includes the stub."""
    if n < 1:
        raise InvalidDegree(f"degree must be >= 1, got {n}")
    if n > bound:
        raise BoundExceeded(f"degree {n} exceeds the enumeration bound {bound}")
    return _all_binary(n)


def catalan(n: int) -> int:
    """(2n)! / (n! (n+1)!) — the size of the degree-n slice."""
    if n < 1:
        raise InvalidDegree(f"degree must be >= 1, got {n}")
    return math.comb(2 * n, n) // (n + 1)


format_binary = format_tree  # binary trees print in the planar format


def parse_binary(text: str) -> PlanarTree:
    """Parse the planar text format, then require two children per vertex."""
    u = parse_tree(text)
    stack = [u]
    while stack:
        children = stack.pop().children
        if children:
            if len(children) != 2:
                raise ParseError(f"not a binary tree: a vertex has {len(children)} children")
            stack += (children[1], children[0])
    return u
