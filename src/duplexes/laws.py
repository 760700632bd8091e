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
from itertools import compress, product, starmap
from operator import eq, not_
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


def _stream(bracket: str, op1: str, op2: str) -> tuple[int, int]:
    """Where an audit finds an outer product's operand pairs, and its outer
    operation: (a op1 b) op2 c applies op2 to the pairs (a op1 b, c), and
    a op1 (b op2 c) applies op1 to the pairs (a, b op2 c).  The pairs are
    numbered in a split's ``(a, b.c), (a, b*c), (a.b, c), (a*b, c)`` order,
    the operations ``.`` 0 and ``*`` 1, as in :class:`DuplexOps`."""
    if bracket == "ab":
        return 2 + ".*".index(op1), ".*".index(op2)
    return ".*".index(op2), ".*".index(op1)


# each variety's identities: (name, left side's stream, right side's stream)
_PLANS = {
    variety: tuple((name, *(_stream(*side) for side in _IDENTITIES[name])) for name in names)
    for variety, names in VARIETY_IDENTITIES.items()
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
        lambda t: f"{t.text}[{'-' if t.tag is None else t.tag.value}]",
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

    A slice is read the first time a split needs its degree.  The inner
    products ``x.y`` and ``x*y`` of all x of degree d1 and y of degree d2
    form one table of two flat tuples, built once per audit, the first time
    a split needs the degree pair, and shared by the ``a.b`` and ``b.c``
    roles across every split.  Each identity then streams a split: each
    side is its outer operation mapped over the ``itertools.product`` of
    an operand column and an inner-product tuple, which yields the outer
    products in triple order, and one ``compress`` over ``map(eq, ...)``
    finds the first triple where the sides differ.  So the audit adds no
    Python frame per triple to those of the products and ``==``, and no
    outer product is kept once it is compared.  An outer product that two
    identities share (only ``dimonoid`` has one) is built once per
    identity.  After a failure, each later identity is scanned only up to
    the failing index, so the report names the first failing triple and,
    at that triple, the first declared identity; a failing split may still
    build products past its first failure.  The order and the reports are
    those of evaluating each identity's two sides afresh.

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
    ops = carrier.ops
    dot, star = ops
    # both caches are this audit's own, dropped when it returns
    elements = lru_cache(maxsize=None)(carrier.elements)

    @lru_cache(maxsize=None)
    def products(d1: int, d2: int) -> tuple[tuple, tuple]:
        # x.y and x*y for every x of degree d1 and y of degree d2, x major
        xs, ys = elements(d1), elements(d2)
        return tuple(starmap(dot, product(xs, ys))), tuple(starmap(star, product(xs, ys)))

    checked = 0
    for total in range(3, degree_bound + 1):
        for d1 in range(1, total - 1):
            for d2 in range(1, total - d1):
                d3 = total - d1 - d2
                firsts, seconds, thirds = elements(d1), elements(d2), elements(d3)
                (ab_dot, ab_star), (bc_dot, bc_star) = products(d1, d2), products(d2, d3)
                pairs = ((firsts, bc_dot), (firsts, bc_star), (ab_dot, thirds), (ab_star, thirds))
                # triple k = (i·n2 + j)·n3 + l is (firsts[i], seconds[j], thirds[l]),
                # and the k-th of each side's pairs is taken from it
                n3 = len(thirds)
                n23 = len(seconds) * n3
                end = len(firsts) * n23  # triples to scan: a failure cuts it to its index
                failing = None
                for name, (lhs_pairs, lhs_op), (rhs_pairs, rhs_op) in _PLANS[variety]:
                    lhs = starmap(ops[lhs_op], product(*pairs[lhs_pairs]))
                    rhs = starmap(ops[rhs_op], product(*pairs[rhs_pairs]))
                    k = next(compress(range(end), map(not_, map(eq, lhs, rhs))), None)
                    if k is not None:  # a later identity wins only before k
                        end, failing = k, name
                if failing is not None:
                    i, jl = divmod(end, n23)
                    j, l = divmod(jl, n3)
                    witness = (firsts[i], seconds[j], thirds[l])
                    return LawReport(structure, variety, degree_bound, False, failing, witness, checked + end + 1)
                checked += end
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
