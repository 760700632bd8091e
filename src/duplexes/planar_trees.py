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
from itertools import repeat
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .errors import ArityTooSmall, InvalidDegree, ParseError, check_degree, check_text

DEFAULT_TREE_BOUND = 10


_new = object.__new__


class _Value:
    """Base of the package's immutable value classes.  A subclass declares
    its fields as ``__slots__`` and sets them once in its ``__init__``
    through ``object.__setattr__``.  As the subclass is made, ``_Value``
    reads the slots once and derives ``__eq__``, true only within the
    class, and ``__hash__``, the hash of the field tuple, unless the class
    writes its own (``DecoratedTree`` hashes its public ``(shape, tag)``);
    ``_setters``, the slots' descriptor setters; and ``_make(*fields)``, the
    unchecked constructor of values the library builds from parts it knows
    are valid: one ``object.__new__`` and one setter call per slot.  A
    whole slice is made by :func:`_build`, with no Python frame per
    element.  Pickling and copying call the class with the fields again, so
    the constructor's checks run (a tree or a cube vertex is rebuilt by
    parsing its text)."""

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)  # the field itself for one slot
        fields = get if len(cls.__slots__) > 1 else lambda value: (get(value),)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return get(self) == get(other)

        def __hash__(self) -> int:
            return hash(fields(self))

        cls.__eq__ = __eq__
        if "__hash__" not in vars(cls):
            cls.__hash__ = __hash__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._make = staticmethod(_unchecked_constructor(cls, cls._setters))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def _unchecked_constructor(cls: type, setters: tuple) -> Callable:
    # written out for one slot and for two, the package's only arities: a
    # loop over the setters would double the cost of every product
    if len(setters) == 1:
        (set_field,) = setters

        def make(field):
            value = _new(cls)
            set_field(value, field)
            return value

        return make
    set_first, set_second = setters

    def make(first, second):
        value = _new(cls)
        set_first(value, first)
        set_second(value, second)
        return value

    return make


def _build(cls: type, *columns: Iterable) -> tuple:
    """One unchecked ``cls`` instance per item of the first column (a
    sequence), its slots filled in order from the columns through the
    class's setters: every loop runs in C (``map``, drained by a
    zero-length ``deque``), so a slice costs no Python frame per element."""
    values = tuple(map(_new, repeat(cls, len(columns[0]))))
    for setter, column in zip(cls._setters, columns):
        deque(map(setter, values, column), maxlen=0)
    return values


class DuplexOps(NamedTuple):
    """A pair of associative binary operations on some carrier (a tuple);
    defined here, the module every carrier imports, so that a carrier needs
    no other to name its pair."""

    dot: Callable[[Any, Any], Any]
    star: Callable[[Any, Any], Any]


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


class _ColumnCache(dict):
    """``cache[key]`` is ``rule(*key)``, computed on the first lookup.  A
    hit is one C-level dict lookup, and a cache costs less to make than an
    ``lru_cache``, which short law audits, each making their own, notice."""

    __slots__ = ("rule",)

    def __init__(self, rule: Callable):
        self.rule = rule

    def __missing__(self, key: tuple):
        value = self[key] = self.rule(*key)
        return value


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
