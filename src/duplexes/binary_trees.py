"""Planar binary trees with the degree-preserving over/under products.

A binary tree is a :class:`~duplexes.planar_trees.PlanarTree` whose every
internal vertex has exactly two children; elements are graded by
internal-vertex count (one less than the leaf count).  The bare leaf
``LEAF`` is the stub: it is not an element and only pads the branches (a
degree-n element has n+1 stubs).  The text format is the planar one.

``over(u, v)`` identifies the root of ``u`` with the leftmost leaf of
``v``; ``under(u, v)`` identifies the root of ``v`` with the rightmost leaf
of ``u``.  Both are associative and satisfy ``over(a, under(b, c)) ==
under(over(a, b), c)``.  On the text, each product puts one operand's text
in place of the first or last ``|`` of the other's; :func:`eval_duplexes1`
and :func:`parse_binary` read the text in one loop, so any depth works.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import product, starmap
from operator import mod
from typing import Callable, Iterable

from ._values import DuplexOps, _build, _ColumnCache
from .errors import InvalidDegree, ParseError, StubNotSplittable, check_degree
from .planar_trees import LEAF, PlanarTree, _tree, format_tree, leaf_count, parse_tree

DEFAULT_BINARY_BOUND = 10

SINGLE_NODE = PlanarTree((LEAF, LEAF))  # the degree-1 element; generates everything


def degree(u: PlanarTree) -> int:
    """Number of internal vertices."""
    return leaf_count(u) - 1


# Each product's one rule puts one operand's text in place of the other's
# first or last leaf, through a ``%`` template (a tree text never holds a
# "%"): over(u, v), the "." product, fills v's first-leaf template with u,
# and under(u, v), the "*" product, fills u's last-leaf template with v.
def _leaf_templates(op: str, texts: tuple[str, ...]) -> tuple[str, ...]:
    if op == ".":
        return tuple([v.replace("|", "%s", 1) for v in texts])
    return tuple(["%s".join(u.rsplit("|", 1)) for u in texts])


def bulk_products() -> Callable[[str, tuple, tuple], Iterable[str]]:
    """A fresh ``products(op, xs, ys)``: the texts of ``x op y`` for all x of
    ``xs`` and y of ``ys``, x major, each column's templates cached."""
    leaf_templates = _ColumnCache(_leaf_templates)

    def products(op: str, xs: tuple[str, ...], ys: tuple[str, ...]) -> Iterable[str]:
        if op == ".":
            return starmap(str.__rmod__, product(xs, leaf_templates[op, ys]))
        return starmap(mod, product(leaf_templates[op, xs], ys))

    return products


def over(u: PlanarTree, v: PlanarTree) -> PlanarTree:
    """Graft ``u`` onto the leftmost leaf of ``v``; stubs act neutrally."""
    return _tree(_leaf_templates(".", (v.text,))[0] % u.text)


def under(u: PlanarTree, v: PlanarTree) -> PlanarTree:
    """Graft ``v`` onto the rightmost leaf of ``u``; stubs act neutrally."""
    return _tree(_leaf_templates("*", (u.text,))[0] % v.text)


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
    satisfies ``(x.y)*z = x.(y*z)``, which makes binary trees free on one
    generator.  Folded node by node in one loop over the text: ``|`` pushes
    a stub and ``)`` combines the top two entries, so any depth works.  The
    cost is that of the target's products, e.g. quadratic on combs into
    cube vertices; :func:`~duplexes.morphisms.phi` reads that image in
    linear time.
    """
    if u.is_leaf:
        raise StubNotSplittable("the stub is not an element and has no image")
    stack = []  # one entry per finished subtree: None for a stub, else its image
    for ch in u.text:
        if ch == "|":
            stack.append(None)
        elif ch == ")":
            right = stack.pop()
            left = stack.pop()
            value = a if left is None else ops.dot(left, a)
            stack.append(value if right is None else ops.star(value, right))
    return stack[0]


@lru_cache(maxsize=None)
def _binary_texts(n: int) -> tuple[str, ...]:
    # ascending left size, then left, then right: already the canonical order
    if n == 0:
        return ("|",)
    return tuple(["(" + l + r + ")" for i in range(n) for l in _binary_texts(i) for r in _binary_texts(n - 1 - i)])


def enumerate_binary(n: int) -> tuple[PlanarTree, ...]:
    """All degree-n binary trees in canonical order, for n <= ``DEFAULT_BINARY_BOUND``;
    never includes the stub.  Only the texts are cached: each call builds
    fresh trees, equal to the last."""
    check_degree(n, DEFAULT_BINARY_BOUND)
    return _build(PlanarTree, _binary_texts(n))


def catalan(n: int) -> int:
    """(2n)! / (n! (n+1)!) — the size of the degree-n slice."""
    if n < 1:
        raise InvalidDegree(f"degree must be >= 1, got {n}")
    return math.comb(2 * n, n) // (n + 1)


format_binary = format_tree  # binary trees print in the planar format


def parse_binary(text: str) -> PlanarTree:
    """Parse the planar text format, then require two children per vertex;
    an error names the first offending vertex in preorder."""
    u = parse_tree(text)
    arity = []  # child counts of the vertices in preorder
    open_vertices = []  # preorder indices of the vertices not yet closed
    for ch in u.text:
        if ch == ")":
            open_vertices.pop()
            continue
        if open_vertices:
            arity[open_vertices[-1]] += 1
        if ch == "(":
            open_vertices.append(len(arity))
            arity.append(0)
    for k in arity:
        if k != 2:
            raise ParseError(f"not a binary tree: a vertex has {k} children")
    return u
