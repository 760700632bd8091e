"""Cube vertices: sign sequences under two concatenation products.

A degree-n element is a sequence of n-1 signs from {-1, +1}; the degree-1
element is the empty sequence.  Each product concatenates the operands
around a separator sign: ``-1`` for ``.`` and ``+1`` for ``*``.  Both
products are associative and satisfy both mixed-bracketing identities,
so any word in the two operations evaluates independently of
parenthesization.

Text format: ``e`` for degree 1, otherwise ``<-1,+1,...>``.
"""
from __future__ import annotations

import itertools
import operator
import re
from typing import Iterable

from .decorated_trees import DuplexOps
from .errors import ParseError, check_degree, check_text
from .planar_trees import _new, _Value

DEFAULT_CUBE_BOUND = 16


class CubeVertex(_Value):
    """A sign sequence; the signs must be integers (``operator.index``),
    else ``TypeError``, and each -1 or +1, else ``ValueError``."""

    __slots__ = ("signs",)
    signs: tuple[int, ...]

    def __init__(self, signs: Iterable[int] = ()):
        signs = tuple(map(operator.index, signs))
        if signs.count(1) + signs.count(-1) != len(signs):
            stray = next(s for s in signs if s not in (-1, 1))
            raise ValueError(f"signs must be -1 or +1, got {stray}")
        object.__setattr__(self, "signs", signs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.signs == other.signs

    def __hash__(self) -> int:
        return hash((self.signs,))

    @property
    def degree(self) -> int:
        return len(self.signs) + 1

    def __str__(self) -> str:
        return format_cube(self)


_set_signs = CubeVertex.signs.__set__


def _cube(signs: tuple[int, ...]) -> CubeVertex:
    """The vertex of a sign tuple the library built itself; unchecked."""
    a = _new(CubeVertex)
    _set_signs(a, signs)
    return a


SINGLETON = CubeVertex()


def cube_dot(a: CubeVertex, b: CubeVertex) -> CubeVertex:
    """Concatenate around a ``-1`` separator."""
    c = _new(CubeVertex)
    _set_signs(c, a.signs + (-1,) + b.signs)
    return c


def cube_star(a: CubeVertex, b: CubeVertex) -> CubeVertex:
    """Concatenate around a ``+1`` separator."""
    c = _new(CubeVertex)
    _set_signs(c, a.signs + (1,) + b.signs)
    return c


CUBE_OPS = DuplexOps(cube_dot, cube_star)


def enumerate_cubes(n: int) -> tuple[CubeVertex, ...]:
    """All 2**(n-1) degree-n vertices, in lexicographic sign order, for
    n <= ``DEFAULT_CUBE_BOUND``."""
    check_degree(n, DEFAULT_CUBE_BOUND)
    return tuple(map(_cube, itertools.product((-1, 1), repeat=n - 1)))


_SIGN_TEXT = {1: "+1", -1: "-1"}


def format_cube(a: CubeVertex) -> str:
    if not a.signs:
        return "e"
    return "<" + ",".join(map(_SIGN_TEXT.__getitem__, a.signs)) + ">"


_CUBE_TEXT = re.compile(r"<\s*[+-]?1\s*(?:,\s*[+-]?1\s*)*>")


def parse_cube(text: str) -> CubeVertex:
    check_text(text)
    stripped = text.strip()
    if stripped == "e":
        return SINGLETON
    if not _CUBE_TEXT.fullmatch(stripped):
        raise ParseError(f"expected 'e' or a sign list like '<-1,+1>', got {text!r}")
    return _cube(tuple(int(part) for part in stripped[1:-1].split(",")))
