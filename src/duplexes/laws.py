"""Exhaustive identity audits over the four concrete carriers.

A variety is named by the identities its members must satisfy; the audit
scans every triple of elements up to a total-degree bound, in a fixed
order, and reports either success with the number of triples checked or
the first counterexample.  Identities are evaluated with the structure's
own operations, so the audit stays independent of any normal-form code.

The audit runs on element *forms*: a string or tuple per element that
equals another element's form exactly when the elements are equal (a
decorated tree's text and root symbol, a binary tree's text, a cube
vertex's sign list, a permutation's images).  Each carrier's two products
are written a second time on forms, in bulk: the products of every pair
of two operand columns are one ``map`` or ``starmap`` of a C-level
callable, such as a ``%`` template or ``operator.add``, over their
``itertools.product``.  They are the carrier's own products on another
representation, and a test holds them equal to the scalar ones on every
pair an audit can form.  So no Python frame runs per product or per
comparison, and witnesses are read back from the element slices by index.
"""
from __future__ import annotations

import enum
from functools import lru_cache
from itertools import compress, product, starmap
from operator import add, mod, ne
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


def _stream(bracket: str, op1: str, op2: str) -> tuple[int, str]:
    """Where an audit finds an outer product's operand pairs, and its outer
    operation: (a op1 b) op2 c applies op2 to the pairs (a op1 b, c), and
    a op1 (b op2 c) applies op1 to the pairs (a, b op2 c).  The pairs are
    numbered in a split's ``(a, b.c), (a, b*c), (a.b, c), (a*b, c)`` order."""
    if bracket == "ab":
        return 2 + ".*".index(op1), op2
    return ".*".index(op2), op1


# each variety's identities: (name, left side's stream, right side's stream)
_PLANS = {
    variety: tuple((name, *(_stream(*side) for side in _IDENTITIES[name])) for name in names)
    for variety, names in VARIETY_IDENTITIES.items()
}


class _Carrier(NamedTuple):
    """How an audit reads a carrier.  ``form`` maps an element to a ``str``
    or ``tuple`` that equals another element's form exactly when the
    elements are equal; ``products(op, xs, ys)``, for ``op`` ``"."`` or
    ``"*"``, yields the forms of ``x op y`` for every x of the forms ``xs``
    and y of ``ys``, x major, where each of ``xs`` and ``ys`` holds the
    forms of elements of one degree (as a slice or an inner-product table
    does)."""

    elements: Callable[[int], tuple]
    form: Callable[[object], Hashable]
    products: Callable[[str, tuple, tuple], Iterable]
    total_degree_limit: int
    format: Callable[[object], str]


# What a bulk product needs of an operand column beyond its forms (a part,
# a template, a shift) is built once per column and audit, the columns of
# an audit being its slices and inner-product tables.  These caches are
# keyed by the column itself, sized for one audit's columns (at most 126
# keys at bound 9), and emptied when the audit returns.
_COLUMN_CACHES: list = []


def _per_column(build: Callable) -> Callable:
    cached = lru_cache(maxsize=256)(build)
    _COLUMN_CACHES.append(cached)
    return cached


def _decorated_form(t: decorated_trees.DecoratedTree) -> str:
    # the text and the root's symbol; the leaf's is "|"
    return t.text + ("|" if t.tag is None else t.tag.value)


@_per_column
def _tree_parts(op: str, forms: tuple[str, ...]) -> tuple[str, ...]:
    # a factor of an op-product: its text, without the root's parentheses
    # when the root is op's own (the root edge is contracted)
    return tuple([f[1:-2] if f[-1] == op else f[:-1] for f in forms])


_TREE_TEMPLATES = {op: f"(%s%s){op}".__mod__ for op in ".*"}


def _decorated_products(op: str, xs: tuple[str, ...], ys: tuple[str, ...]) -> Iterable[str]:
    return map(_TREE_TEMPLATES[op], product(_tree_parts(op, xs), _tree_parts(op, ys)))


@_per_column
def _first_leaf_templates(texts: tuple[str, ...]) -> tuple[str, ...]:
    return tuple([v.replace("|", "%s", 1) for v in texts])


@_per_column
def _last_leaf_templates(texts: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(["%s".join(u.rsplit("|", 1)) for u in texts])


def _binary_products(op: str, xs: tuple[str, ...], ys: tuple[str, ...]) -> Iterable[str]:
    # over(u, v) puts u in place of v's first leaf, under(u, v) puts v in
    # place of u's last; a tree text never holds a "%"
    if op == ".":
        return starmap(str.__rmod__, product(xs, _first_leaf_templates(ys)))
    return starmap(mod, product(_last_leaf_templates(xs), ys))


def _cube_form(a: cubes.CubeVertex) -> str:
    # the comma body: "" for e, ",-1,+1" for <-1,+1>
    text = a.text
    return "" if text == "e" else "," + text[1:-1]


_CUBE_TEMPLATES = {".": "%s,-1%s".__mod__, "*": "%s,+1%s".__mod__}


def _cube_products(op: str, xs: tuple[str, ...], ys: tuple[str, ...]) -> Iterable[str]:
    return map(_CUBE_TEMPLATES[op], product(xs, ys))


@_per_column
def _shifted(images: tuple[tuple[int, ...], ...], by: int) -> tuple[tuple[int, ...], ...]:
    return tuple([tuple([by + v for v in f]) for f in images])


def _perm_form(f: permutations.Permutation) -> tuple[int, ...]:
    return f.images


def _perm_products(op: str, xs: tuple[tuple, ...], ys: tuple[tuple, ...]) -> Iterable[tuple]:
    # sharp(f, g) is f, then g shifted by f's degree; natural(f, g) is f
    # shifted by g's degree, then g: a shift is one per column
    if op == ".":
        return starmap(add, product(xs, _shifted(ys, len(xs[0]))))
    return starmap(add, product(_shifted(xs, len(ys[0])), ys))


_CARRIERS: dict[Structure, _Carrier] = {
    Structure.PERM: _Carrier(
        permutations.enumerate_permutations,
        _perm_form,
        _perm_products,
        7,
        permutations.format_permutation,
    ),
    Structure.DECORATED: _Carrier(
        decorated_trees.enumerate_decorated,
        _decorated_form,
        _decorated_products,
        9,
        lambda t: f"{t.text}[{'-' if t.tag is None else t.tag.value}]",
    ),
    Structure.BINARY: _Carrier(
        binary_trees.enumerate_binary,
        planar_trees.format_tree,  # the text
        _binary_products,
        9,
        planar_trees.format_tree,
    ),
    Structure.CUBE: _Carrier(
        cubes.enumerate_cubes,
        _cube_form,
        _cube_products,
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

    The scan runs on forms (see the module docstring).  A slice and its
    forms are read the first time a split needs its degree.  The forms of
    the inner products ``x.y`` and ``x*y`` of all x of degree d1 and y of
    degree d2 form one table of two flat tuples, built once per audit the
    first time a split needs the degree pair, and shared by the ``a.b`` and
    ``b.c`` roles across every split.  Each identity then streams a split:
    each side is the bulk outer product of an operand column and an
    inner-product tuple, which yields the outer products in triple order,
    and one ``compress`` over ``map(ne, ...)`` finds the first triple where
    the sides differ.  So the audit runs no Python frame per product or
    per triple, and no outer product is kept once it is compared.  An outer
    product that two identities share (only ``dimonoid`` has one) is built
    once per identity.  After a failure, each later identity is scanned
    only up to the failing index, so the report names the first failing
    triple and, at that triple, the first declared identity; a failing
    split may still build products past its first failure.  The order and
    the reports are those of evaluating each identity's two sides afresh
    with the scalar products.

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
    try:
        failing, witness, checked = _scan(carrier, _PLANS[variety], degree_bound)
    finally:
        for cache in _COLUMN_CACHES:
            cache.cache_clear()
    return LawReport(structure, variety, degree_bound, failing is None, failing, witness, checked)


def _scan(carrier: _Carrier, plan: tuple, degree_bound: int) -> tuple[str | None, tuple | None, int]:
    """The first failing identity of ``plan``, its witness and the triples
    checked up to it, or (None, None, all triples checked)."""
    products = carrier.products
    columns: dict[int, tuple[tuple, tuple]] = {}  # degree -> its slice and their forms
    tables: dict[tuple[int, int], tuple[tuple, tuple]] = {}

    def column(d: int) -> tuple[tuple, tuple]:
        if d not in columns:
            elements = carrier.elements(d)
            columns[d] = elements, tuple(map(carrier.form, elements))
        return columns[d]

    def table(d1: int, d2: int) -> tuple[tuple, tuple]:
        # the forms of x.y and x*y for every x of degree d1 and y of degree d2, x major
        if (d1, d2) not in tables:
            xs, ys = column(d1)[1], column(d2)[1]
            tables[d1, d2] = tuple(products(".", xs, ys)), tuple(products("*", xs, ys))
        return tables[d1, d2]

    checked = 0
    for total in range(3, degree_bound + 1):
        for d1 in range(1, total - 1):
            for d2 in range(1, total - d1):
                d3 = total - d1 - d2
                (a_slice, firsts), (b_slice, _), (c_slice, thirds) = column(d1), column(d2), column(d3)
                (ab_dot, ab_star), (bc_dot, bc_star) = table(d1, d2), table(d2, d3)
                pairs = ((firsts, bc_dot), (firsts, bc_star), (ab_dot, thirds), (ab_star, thirds))
                # triple k = (i·n2 + j)·n3 + l is (a_i, b_j, c_l), and the
                # k-th product of each side's pairs is taken from it
                n3 = len(thirds)
                n23 = len(b_slice) * n3
                end = len(firsts) * n23  # triples to scan: a failure cuts it to its index
                failing = None
                for name, (lhs_pairs, lhs_op), (rhs_pairs, rhs_op) in plan:
                    lhs = products(lhs_op, *pairs[lhs_pairs])
                    rhs = products(rhs_op, *pairs[rhs_pairs])
                    k = next(compress(range(end), map(ne, lhs, rhs)), None)
                    if k is not None:  # a later identity wins only before k
                        end, failing = k, name
                if failing is not None:
                    i, jl = divmod(end, n23)
                    j, l = divmod(jl, n3)
                    witness = (a_slice[i], b_slice[j], c_slice[l])
                    return failing, witness, checked + end + 1
                checked += end
    return None, None, checked


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
