"""Cube vertices: sign sequences under two concatenation products.

A degree-n element is a sequence of n-1 signs from {-1, +1}; the degree-1
element is the empty sequence.  Each product concatenates the operands
around a separator sign: ``-1`` for ``.`` and ``+1`` for ``*``.  Both
products are associative and satisfy both mixed-bracketing identities,
so any word in the two operations evaluates independently of
parenthesization.

Text format: ``e`` for degree 1, otherwise ``<-1,+1,...>``.  The text
determines the vertex, so a vertex *is* its text, the one stored field,
as a planar tree is: equality and hashing compare strings, and printing
returns the field itself.  Each product is one ``%`` template on the
vertices' comma bodies (:func:`form`), applied to a pair by the scalar
product and to every pair of two columns by the function
:func:`bulk_products` returns.
"""
from __future__ import annotations

import operator
import re
from itertools import product
from typing import Callable, Iterable

from .errors import ParseError, check_degree, check_text
from .planar_trees import DuplexOps, _build, _Value

DEFAULT_CUBE_BOUND = 16


class CubeVertex(_Value):
    """A sign sequence, held as its canonical text; the signs must be
    integers (``operator.index``), else ``TypeError``, and each -1 or +1,
    else ``ValueError``."""

    __slots__ = ("text",)
    text: str

    def __init__(self, signs: Iterable[int] = ()):
        signs = tuple(map(operator.index, signs))
        if signs.count(1) + signs.count(-1) != len(signs):
            stray = next(s for s in signs if s not in (-1, 1))
            raise ValueError(f"signs must be -1 or +1, got {stray}")
        text = "<" + ",".join(map(_SIGN_TEXT.__getitem__, signs)) + ">" if signs else "e"
        object.__setattr__(self, "text", text)

    def __reduce__(self):
        return parse_cube, (self.text,)

    @property
    def signs(self) -> tuple[int, ...]:
        text = self.text
        return () if text == "e" else tuple(map(int, text[1:-1].split(",")))

    @property
    def degree(self) -> int:
        # k >= 1 signs take 3k + 1 characters, and "e" takes 1
        return (len(self.text) + 2) // 3

    def __str__(self) -> str:
        return self.text


_SIGN_TEXT = {1: "+1", -1: "-1"}
_cube = CubeVertex._make  # the vertex of a canonical text the library built; unchecked


SINGLETON = CubeVertex()


def form(a: CubeVertex) -> str:
    """The comma body of the text, a law audit's form of the vertex: ``""``
    for ``e``, ``",-1,+1"`` for ``<-1,+1>``."""
    text = a.text
    return "" if text == "e" else "," + text[1:-1]


# Each product's one rule: the comma bodies of a pair around the separator.
_TEMPLATES = {".": "%s,-1%s".__mod__, "*": "%s,+1%s".__mod__}


def bulk_products() -> Callable[[str, tuple, tuple], Iterable[str]]:
    """``products(op, xs, ys)``: the forms of ``x op y`` for all x of the
    forms ``xs`` and y of ``ys``, x major; nothing per column is cached."""
    return lambda op, xs, ys: map(_TEMPLATES[op], product(xs, ys))


def cube_dot(a: CubeVertex, b: CubeVertex) -> CubeVertex:
    """Concatenate around a ``-1`` separator."""
    return _cube("<" + _TEMPLATES["."]((form(a), form(b)))[1:] + ">")


def cube_star(a: CubeVertex, b: CubeVertex) -> CubeVertex:
    """Concatenate around a ``+1`` separator."""
    return _cube("<" + _TEMPLATES["*"]((form(a), form(b)))[1:] + ">")


CUBE_OPS = DuplexOps(cube_dot, cube_star)


def enumerate_cubes(n: int) -> tuple[CubeVertex, ...]:
    """All 2**(n-1) degree-n vertices, in lexicographic sign order, for
    n <= ``DEFAULT_CUBE_BOUND``."""
    check_degree(n, DEFAULT_CUBE_BOUND)
    if n == 1:
        return (SINGLETON,)
    # each sign with the text before it, so one join writes a vertex
    pieces = product(("<-1", "<+1"), *[(",-1", ",+1")] * (n - 2), (">",))
    return _build(CubeVertex, list(map("".join, pieces)))


def format_cube(a: CubeVertex) -> str:
    return a.text


_CUBE_TEXT = re.compile(r"<\s*[+-]?1\s*(?:,\s*[+-]?1\s*)*>")


def parse_cube(text: str) -> CubeVertex:
    """Parse ``e`` or ``<-1,+1,...>``; whitespace around the signs is
    ignored and an unsigned ``1`` reads as ``+1``, so the vertex holds the
    canonical text."""
    check_text(text)
    stripped = text.strip()
    if stripped == "e":
        return SINGLETON
    if not _CUBE_TEXT.fullmatch(stripped):
        raise ParseError(f"expected 'e' or a sign list like '<-1,+1>', got {text!r}")
    return _cube("<" + ",".join(["-1" if "-" in part else "+1" for part in stripped[1:-1].split(",")]) + ">")
