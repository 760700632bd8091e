"""Exhaustive identity audits over the four concrete carriers.

A variety is named by the identities its members must satisfy; the audit
scans every triple of elements up to a total-degree bound, in a fixed
order, and reports either success with the number of triples checked or
the first counterexample.  Identities are evaluated with the structure's
own operations so the audit stays independent of any normal-form code.
"""
from __future__ import annotations

import enum
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

from . import binary_trees, cubes, decorated_trees, permutations, planar_trees
from .decorated_trees import DuplexOps
from .errors import BoundExceeded


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


# each identity: (quoted text, lhs, rhs) with lhs/rhs taking (ops, a, b, c)
_IDENTITIES: dict[str, tuple[Callable, Callable]] = {
    "(a.b).c = a.(b.c)": (
        lambda o, a, b, c: o.dot(o.dot(a, b), c),
        lambda o, a, b, c: o.dot(a, o.dot(b, c)),
    ),
    "(a*b)*c = a*(b*c)": (
        lambda o, a, b, c: o.star(o.star(a, b), c),
        lambda o, a, b, c: o.star(a, o.star(b, c)),
    ),
    "(a.b)*c = a.(b*c)": (
        lambda o, a, b, c: o.star(o.dot(a, b), c),
        lambda o, a, b, c: o.dot(a, o.star(b, c)),
    ),
    "(a*b).c = a*(b.c)": (
        lambda o, a, b, c: o.dot(o.star(a, b), c),
        lambda o, a, b, c: o.star(a, o.dot(b, c)),
    ),
    "(a*b).c = (a.b).c": (
        lambda o, a, b, c: o.dot(o.star(a, b), c),
        lambda o, a, b, c: o.dot(o.dot(a, b), c),
    ),
    "a*(b*c) = a*(b.c)": (
        lambda o, a, b, c: o.star(a, o.star(b, c)),
        lambda o, a, b, c: o.star(a, o.dot(b, c)),
    ),
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


def format_element(structure: Structure, element) -> str:
    return _CARRIERS[structure].format(element)


def check_laws(structure: Structure, variety: Variety, degree_bound: int) -> LawReport:
    """Test every identity of ``variety`` on all triples with total degree at
    most ``degree_bound``.

    Triples run in ascending total degree, then lexicographic degree split,
    then the carrier's canonical element order; identities run in their
    declared order.  The first failure is returned, so reports are
    deterministic.
    """
    carrier = _CARRIERS[structure]
    if degree_bound > carrier.total_degree_limit:
        raise BoundExceeded(
            f"total degree {degree_bound} exceeds the {structure.value} audit limit "
            f"{carrier.total_degree_limit}"
        )
    identities = [(name, *_IDENTITIES[name]) for name in VARIETY_IDENTITIES[variety]]
    checked = 0
    for total in range(3, degree_bound + 1):
        for d1 in range(1, total - 1):
            for d2 in range(1, total - d1):
                d3 = total - d1 - d2
                for a in carrier.elements(d1):
                    for b in carrier.elements(d2):
                        for c in carrier.elements(d3):
                            checked += 1
                            for name, lhs, rhs in identities:
                                if lhs(carrier.ops, a, b, c) != rhs(carrier.ops, a, b, c):
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
