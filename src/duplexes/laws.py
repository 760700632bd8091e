"""Exhaustive identity audits over the four concrete carriers.

A variety is named by the identities its members must satisfy; the audit
scans every triple of elements up to a total-degree bound, in a fixed
order, and reports either success with the number of triples checked or
the first counterexample.  Identities are evaluated with the structure's
own operations so the audit stays independent of any normal-form code.
"""
from __future__ import annotations

import enum
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

from . import binary_trees, cubes, decorated_trees, permutations, planar_trees
from .decorated_trees import DuplexOps
from .errors import BoundExceeded, InvalidDegree


class Variety(enum.Enum):
    DUPLEX = "duplex"
    DUPLEXES1 = "duplexes1"
    DUPLEXES2 = "duplexes2"
    DIMONOID = "dimonoid"


class Structure(enum.Enum):
    PERM = "perm"
    DECORATED = "decorated"
    BINARY = "binary"
    CUBE = "cube"


class LawReport(NamedTuple):
    """The outcome of :func:`check_laws` (a tuple)."""

    structure: Structure
    variety: Variety
    degree_bound: int
    satisfied: bool
    failing_identity: str | None
    witness: tuple | None
    triples_checked: int


# Each identity compares two of the eight outer products of a triple.  A
# product is (bracketing, first op, second op), the ops read left to right
# in its text: ("ab", ".", "*") is (a.b)*c and ("bc", ".", "*") is a.(b*c).
_IDENTITIES: dict[str, tuple[tuple[str, str, str], tuple[str, str, str]]] = {
    "(a.b).c = a.(b.c)": (("ab", ".", "."), ("bc", ".", ".")),
    "(a*b)*c = a*(b*c)": (("ab", "*", "*"), ("bc", "*", "*")),
    "(a.b)*c = a.(b*c)": (("ab", ".", "*"), ("bc", ".", "*")),
    "(a*b).c = a*(b.c)": (("ab", "*", "."), ("bc", "*", ".")),
    "(a*b).c = (a.b).c": (("ab", "*", "."), ("ab", ".", ".")),
    "a*(b*c) = a*(b.c)": (("bc", "*", "*"), ("bc", "*", ".")),
}

_ASSOCIATIVITY = ["(a.b).c = a.(b.c)", "(a*b)*c = a*(b*c)"]

VARIETY_IDENTITIES: dict[Variety, tuple[str, ...]] = {
    Variety.DUPLEX: tuple(_ASSOCIATIVITY),
    Variety.DUPLEXES1: tuple(_ASSOCIATIVITY + ["(a.b)*c = a.(b*c)"]),
    Variety.DUPLEXES2: tuple(_ASSOCIATIVITY + ["(a.b)*c = a.(b*c)", "(a*b).c = a*(b.c)"]),
    Variety.DIMONOID: tuple(
        _ASSOCIATIVITY + ["(a.b)*c = a.(b*c)", "(a*b).c = (a.b).c", "a*(b*c) = a*(b.c)"]
    ),
}


class _Carrier(NamedTuple):
    elements: Callable[[int], tuple]
    ops: DuplexOps
    total_degree_limit: int
    format: Callable[[object], str]


_CARRIERS: dict[Structure, _Carrier] = {
    Structure.PERM: _Carrier(
        permutations.enumerate_permutations,
        permutations.PERM_OPS,
        7,
        permutations.format_permutation,
    ),
    Structure.DECORATED: _Carrier(
        decorated_trees.enumerate_decorated,
        decorated_trees.DECORATED_OPS,
        9,
        lambda t: f"{t.shape}[{'-' if t.tag is None else t.tag.value}]",
    ),
    Structure.BINARY: _Carrier(
        binary_trees.enumerate_binary,
        binary_trees.BINARY_OPS,
        9,
        planar_trees.format_tree,
    ),
    Structure.CUBE: _Carrier(
        cubes.enumerate_cubes,
        cubes.CUBE_OPS,
        9,
        cubes.format_cube,
    ),
}


def _check_member(name: str, value, members: type[enum.Enum]) -> None:
    if value.__class__ is not members:
        *rest, last = [f"{members.__name__}.{m.name}" for m in members]
        raise TypeError(f"{name} must be {', '.join(rest)} or {last}, got {value!r}")


def format_element(structure: Structure, element) -> str:
    """The element's text in its carrier's format.  A ``structure`` that is
    not a :class:`Structure` member raises ``TypeError``."""
    _check_member("structure", structure, Structure)
    return _CARRIERS[structure].format(element)


def check_laws(structure: Structure, variety: Variety, degree_bound: int) -> LawReport:
    """Test every identity of ``variety`` on all triples with total degree at
    most ``degree_bound``, which must be at least 3 (an identity needs three
    elements of degree >= 1), else ``InvalidDegree``.

    Triples run in ascending total degree, then lexicographic degree split,
    then the carrier's canonical element order; identities run in their
    declared order.  The first failure is returned, so reports are
    deterministic.

    Each product is built once per audit.  A slice is read the first time
    a split needs its degree.  The inner products ``(x.y, x*y)`` of all x
    of degree d1 and y of degree d2 form one table, built the first time a
    split needs the degree pair, and shared by the ``a.b`` and ``b.c``
    roles across every split.  Each outer product is built once per
    triple, shared by every identity that compares it.  The order and the
    reports are those of evaluating each identity's two sides afresh.

    A ``structure`` or ``variety`` that is not a :class:`Structure` or
    :class:`Variety` member raises ``TypeError``.
    """
    _check_member("structure", structure, Structure)
    _check_member("variety", variety, Variety)
    carrier = _CARRIERS[structure]
    if degree_bound < 3:
        raise InvalidDegree(f"total degree bound must be >= 3, got {degree_bound}")
    if degree_bound > carrier.total_degree_limit:
        raise BoundExceeded(
            f"total degree {degree_bound} exceeds the {structure.value} audit limit "
            f"{carrier.total_degree_limit}"
        )
    dot, star = carrier.ops
    op = {".": dot, "*": star}
    slot = {".": 0, "*": 1}  # where an inner product sits in its (x.y, x*y) pair
    # each outer product the variety names, in first-use order -> its place in a triple's values
    position: dict[tuple[str, str, str], int] = {}
    identities = []
    for name in VARIETY_IDENTITIES[variety]:
        lhs, rhs = _IDENTITIES[name]
        identities.append(
            (name, position.setdefault(lhs, len(position)), position.setdefault(rhs, len(position)))
        )
    # (a op1 b) op2 c reads slot op1 of (a.b, a*b); a op1 (b op2 c) slot op2 of (b.c, b*c)
    plan = [
        (True, slot[op1], op[op2]) if bracket == "ab" else (False, slot[op2], op[op1])
        for bracket, op1, op2 in position
    ]
    # both caches are this audit's own, dropped when it returns
    elements = lru_cache(maxsize=None)(carrier.elements)

    @lru_cache(maxsize=None)
    def products(d1: int, d2: int) -> list[list[tuple]]:
        # one row per x of degree d1, holding (x.y, x*y) for each y of degree d2
        ys = elements(d2)
        return [[(dot(x, y), star(x, y)) for y in ys] for x in elements(d1)]

    checked = 0
    for total in range(3, degree_bound + 1):
        for d1 in range(1, total - 1):
            for d2 in range(1, total - d1):
                d3 = total - d1 - d2
                seconds = elements(d2)
                thirds = elements(d3)
                bc_rows = products(d2, d3)
                for a, ab_row in zip(elements(d1), products(d1, d2)):
                    for b, ab, bc_row in zip(seconds, ab_row, bc_rows):
                        for c, bc in zip(thirds, bc_row):
                            checked += 1
                            values = [f(ab[i], c) if left else f(a, bc[i]) for left, i, f in plan]
                            for name, lhs, rhs in identities:
                                if values[lhs] != values[rhs]:
                                    return LawReport(
                                        structure,
                                        variety,
                                        degree_bound,
                                        False,
                                        name,
                                        (a, b, c),
                                        checked,
                                    )
    return LawReport(structure, variety, degree_bound, True, None, None, checked)


def generated_elements(
    ops: DuplexOps,
    generators: Iterable,
    degree_of: Callable[[object], int],
    max_degree: int,
) -> Mapping[int, frozenset]:
    """Degree slices of the closure of ``generators`` under both operations.

    Every product of total degree d combines two closure elements of lower
    degree, so filling slices bottom-up is exhaustive.
    """
    slices: dict[int, set[Hashable]] = {d: set() for d in range(1, max_degree + 1)}
    for g in generators:
        d = degree_of(g)
        if d <= max_degree:
            slices[d].add(g)
    for total in range(2, max_degree + 1):
        for d1 in range(1, total):
            for x in slices[d1]:
                for y in slices[total - d1]:
                    slices[total].add(ops.dot(x, y))
                    slices[total].add(ops.star(x, y))
    return {d: frozenset(s) for d, s in slices.items()}
