import re
import sys
from itertools import product

import pytest

from conftest import PRODUCTS_BY_DEFINITION
from duplexes import binary_trees, cubes, decorated_trees, laws, permutations
from duplexes.binary_trees import BINARY_OPS, SINGLE_NODE, degree, enumerate_binary
from duplexes.cubes import CUBE_OPS, SINGLETON, CubeVertex, cube_dot, enumerate_cubes
from duplexes.decorated_trees import (
    DECORATED_OPS,
    GENERATOR_TREE,
    DuplexOps,
    enumerate_decorated,
    tree_dot,
    tree_star,
)
from duplexes.errors import BoundExceeded, InvalidDegree
from duplexes.laws import (
    LawReport,
    Structure,
    Variety,
    check_laws,
    format_element,
)
from duplexes.permutations import PERM_OPS, Permutation


def test_associativity_holds_everywhere():
    for structure in Structure:
        report = check_laws(structure, Variety.DUPLEX, 6)
        assert report.satisfied
        assert report.witness is None
        assert report.failing_identity is None


def test_cube_satisfies_both_mixed_identities():
    report = check_laws(Structure.CUBE, Variety.DUPLEXES2, 9)
    assert report.satisfied
    assert report.triples_checked == 2815


def test_binary_satisfies_first_mixed_identity():
    assert check_laws(Structure.BINARY, Variety.DUPLEXES1, 6).satisfied


def test_perm_fails_first_mixed_identity_with_canonical_witness():
    report = check_laws(Structure.PERM, Variety.DUPLEXES1, 3)
    assert not report.satisfied
    assert report.failing_identity == "(a.b)*c = a.(b*c)"
    one = Permutation((1,))
    assert report.witness == (one, one, one)
    assert report.triples_checked == 1


def test_binary_fails_second_mixed_identity():
    report = check_laws(Structure.BINARY, Variety.DUPLEXES2, 6)
    assert not report.satisfied
    assert report.failing_identity == "(a*b).c = a*(b.c)"
    assert report.witness == (SINGLE_NODE, SINGLE_NODE, SINGLE_NODE)


def test_decorated_fails_first_mixed_identity():
    report = check_laws(Structure.DECORATED, Variety.DUPLEXES1, 3)
    assert not report.satisfied
    assert report.witness == (GENERATOR_TREE, GENERATOR_TREE, GENERATOR_TREE)


def test_dimonoid_identities_fail_on_all_carriers():
    for structure in Structure:
        report = check_laws(structure, Variety.DIMONOID, 4)
        assert not report.satisfied, structure


def test_reports_are_deterministic():
    first = check_laws(Structure.PERM, Variety.DIMONOID, 5)
    second = check_laws(Structure.PERM, Variety.DIMONOID, 5)
    assert first == second


# each audit's total-degree limit
LIMITS = [(Structure.PERM, 7), (Structure.DECORATED, 9), (Structure.BINARY, 9), (Structure.CUBE, 9)]


def test_bound_limits():
    assert [structure for structure, _ in LIMITS] == list(Structure)
    for structure, limit in LIMITS:
        message = f"^total degree {limit + 1} exceeds the {structure.value} audit limit {limit}$"
        for variety in Variety:
            with pytest.raises(BoundExceeded, match=message):
                check_laws(structure, variety, limit + 1)


def test_a_bound_below_three_is_rejected():
    # an identity needs three elements of degree >= 1: a smaller bound checks nothing
    for bound in (2, 0, -1):
        for structure in Structure:
            for variety in Variety:
                with pytest.raises(InvalidDegree, match=f"^total degree bound must be >= 3, got {bound}$"):
                    check_laws(structure, variety, bound)


def test_format_element():
    assert format_element(Structure.PERM, Permutation((2, 1))) == "(2,1)"
    assert format_element(Structure.CUBE, SINGLETON) == "e"
    assert format_element(Structure.BINARY, SINGLE_NODE) == "(||)"
    assert format_element(Structure.DECORATED, GENERATOR_TREE) == "|[-]"


STRUCTURES = "Structure.PERM, Structure.DECORATED, Structure.BINARY or Structure.CUBE"
VARIETIES = "Variety.DUPLEX, Variety.DUPLEXES1, Variety.DUPLEXES2 or Variety.DIMONOID"


@pytest.mark.parametrize("structure, variety", [("cube", "duplex"), (None, None), (Variety.DUPLEX, Structure.CUBE)])
def test_a_value_that_is_not_a_member_is_a_type_error(structure, variety):
    # a member's value or a member of the other enum is not a member; the check
    # comes before the bound's
    for bound in (5, 2):
        with pytest.raises(TypeError, match=f"^structure must be {STRUCTURES}, got {re.escape(repr(structure))}$"):
            check_laws(structure, Variety.DUPLEX, bound)
        with pytest.raises(TypeError, match=f"^variety must be {VARIETIES}, got {re.escape(repr(variety))}$"):
            check_laws(Structure.CUBE, variety, bound)
    with pytest.raises(TypeError, match=f"^structure must be {STRUCTURES}, got {re.escape(repr(structure))}$"):
        format_element(structure, SINGLETON)


def generated_elements(ops, generators, degree_of, max_degree):
    """Degree slices of the closure of ``generators`` under both operations.

    Every product of total degree d combines two closure elements of lower
    degree, so filling slices bottom-up is exhaustive.
    """
    slices = {d: set() for d in range(1, max_degree + 1)}
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


def test_generated_elements_closures():
    slices = generated_elements(DECORATED_OPS, [GENERATOR_TREE], lambda t: t.degree, 6)
    for n in range(1, 7):
        assert slices[n] == frozenset(enumerate_decorated(n))
    slices = generated_elements(BINARY_OPS, [SINGLE_NODE], degree, 6)
    for n in range(1, 7):
        assert slices[n] == frozenset(enumerate_binary(n))
    slices = generated_elements(CUBE_OPS, [SINGLETON], lambda a: a.degree, 7)
    for n in range(1, 8):
        assert len(slices[n]) == 2 ** (n - 1)
        assert slices[n] == frozenset(enumerate_cubes(n))


# The reference audit: the same scan, with each identity's two sides built
# afresh from the triple, sharing nothing.
REFERENCE_SIDES = {
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


# as the library defines them, for tests that patch them
CARRIERS = {structure: laws._carrier(structure) for structure in Structure}
OPS = {
    Structure.PERM: PERM_OPS,
    Structure.DECORATED: DECORATED_OPS,
    Structure.BINARY: BINARY_OPS,
    Structure.CUBE: CUBE_OPS,
}


def reference_check_laws(structure, variety, degree_bound, ops=None):
    carrier = laws._carrier(structure)
    ops = OPS[structure] if ops is None else ops
    checked = 0
    for total in range(3, degree_bound + 1):
        for d1 in range(1, total - 1):
            for d2 in range(1, total - d1):
                for a in carrier.elements(d1):
                    for b in carrier.elements(d2):
                        for c in carrier.elements(total - d1 - d2):
                            checked += 1
                            for name in laws.VARIETY_IDENTITIES[variety]:
                                lhs, rhs = REFERENCE_SIDES[name]
                                if lhs(ops, a, b, c) != rhs(ops, a, b, c):
                                    return LawReport(structure, variety, degree_bound, False, name, (a, b, c), checked)
    return LawReport(structure, variety, degree_bound, True, None, None, checked)


def test_identity_table_spells_each_name():
    def text(product):
        bracket, first, second = product
        return f"(a{first}b){second}c" if bracket == "ab" else f"a{first}(b{second}c)"

    assert set(REFERENCE_SIDES) == set(laws._IDENTITIES)
    for name, (lhs, rhs) in laws._IDENTITIES.items():
        assert name == f"{text(lhs)} = {text(rhs)}"


def test_audit_matches_the_reference_on_every_pair():
    for structure in Structure:
        for variety in Variety:
            for bound in range(3, 7):
                expected = reference_check_laws(structure, variety, bound)
                assert check_laws(structure, variety, bound) == expected, (structure, variety, bound)


def patch_faulty(monkeypatch, structure, dot_at=(), star_at=()):
    """Make the audit's products of ``structure`` swap each product for the
    other on the listed operand pairs, and return scalar operations with the
    same faults, for the reference."""
    carrier = CARRIERS[structure]
    dot, star = OPS[structure]
    form = carrier.form
    swapped_at = {".": {(form(x), form(y)) for x, y in dot_at}, "*": {(form(x), form(y)) for x, y in star_at}}

    def faulty_bulk_products():
        products = carrier.products()

        def faulty_products(op, xs, ys):
            other = "*" if op == "." else "."
            return [
                swapped if pair in swapped_at[op] else right
                for pair, right, swapped in zip(product(xs, ys), products(op, xs, ys), products(other, xs, ys))
            ]

        return faulty_products

    monkeypatch.setitem(laws._CARRIERS, structure, carrier._replace(products=faulty_bulk_products))
    return DuplexOps(
        lambda x, y: star(x, y) if (x, y) in dot_at else dot(x, y),
        lambda x, y: dot(x, y) if (x, y) in star_at else star(x, y),
    )


def test_audit_matches_the_reference_on_a_late_counterexample(monkeypatch):
    # a dot that is wrong only on (<+1>.<+1>).e, so associativity first fails
    # at a = b = <+1>, c = e: inside the split (2, 2, 1), past its first a and b
    wrong_at = cube_dot(CubeVertex((1,)), CubeVertex((1,)))
    faulty_ops = patch_faulty(monkeypatch, Structure.CUBE, dot_at=[(wrong_at, SINGLETON)])
    for variety in Variety:
        expected = reference_check_laws(Structure.CUBE, variety, 6, faulty_ops)
        assert check_laws(Structure.CUBE, variety, 6) == expected, variety
    report = check_laws(Structure.CUBE, Variety.DUPLEX, 6)
    assert report.failing_identity == "(a.b).c = a.(b.c)"
    assert report.witness == (CubeVertex((1,)), CubeVertex((1,)), SINGLETON)


# Faulty decorated carriers: each product is swapped for the other on the
# listed operand pairs.  Decorated trees are free, so a pair (a, b.c) with b
# and c both star-rooted is built by the audit only at the triple (a, b, c)
# (b.c splits only as b, c), and so on: each fault below first shows at the
# one triple named with it (a scan found these, and the reference agrees).
E = GENERATOR_TREE
E_DOT_E, E_STAR_E = tree_dot(E, E), tree_star(E, E)


def audit_faulty_decorated(monkeypatch, bound, dot_at=(), star_at=()):
    faulty_ops = patch_faulty(monkeypatch, Structure.DECORATED, dot_at, star_at)
    report = check_laws(Structure.DECORATED, Variety.DUPLEX, bound)
    assert report == reference_check_laws(Structure.DECORATED, Variety.DUPLEX, bound, faulty_ops)
    return report


def test_a_failure_past_the_first_element_of_every_slice(monkeypatch):
    # a.(b.c) is wrong at a = b = c = e*e: in the split (2, 2, 2), each the
    # second tree of its slice, so the witness's index splits into three
    # nonzero positions
    a = b = c = E_STAR_E
    report = audit_faulty_decorated(monkeypatch, 6, dot_at=[(a, tree_dot(b, c))])
    assert report.failing_identity == "(a.b).c = a.(b.c)"
    assert report.witness == (a, b, c)
    assert [enumerate_decorated(2).index(x) for x in report.witness] == [1, 1, 1]
    assert report.triples_checked == 117 + 8  # every triple of the earlier splits, then 8 of this one


def test_a_later_identity_failing_earlier_in_the_split_is_reported(monkeypatch):
    # in the split (2, 2, 2), associativity of . first fails at its 8th
    # triple and that of *, declared after it, at its 2nd
    dot_triple = (E_STAR_E, E_STAR_E, E_STAR_E)
    star_triple = (E_DOT_E, E_DOT_E, E_STAR_E)
    a, b, c = dot_triple
    x, y, z = star_triple
    report = audit_faulty_decorated(monkeypatch, 6, dot_at=[(a, tree_dot(b, c))], star_at=[(x, tree_star(y, z))])
    assert report.failing_identity == "(a*b)*c = a*(b*c)"
    assert report.witness == star_triple
    assert report.triples_checked == 117 + 2
    # the dot fault alone fails . six triples later in the same split
    alone = audit_faulty_decorated(monkeypatch, 6, dot_at=[(a, tree_dot(b, c))])
    assert alone.triples_checked == report.triples_checked + 6


def test_two_identities_failing_at_one_triple_report_the_first_declared(monkeypatch):
    # (a.b).c and a*(b*c) are both wrong at a = c = e, b = (e*(e.e)).e, the
    # 19th triple of the split (1, 4, 1)
    b = tree_dot(tree_star(E, E_DOT_E), E)
    report = audit_faulty_decorated(monkeypatch, 6, dot_at=[(tree_dot(E, b), E)], star_at=[(E, tree_star(b, E))])
    assert report.failing_identity == "(a.b).c = a.(b.c)"
    assert report.witness == (E, b, E)
    # the star fault alone fails the other identity at the same triple
    alone = audit_faulty_decorated(monkeypatch, 6, star_at=[(E, tree_star(b, E))])
    assert alone.failing_identity == "(a*b)*c = a*(b*c)"
    assert (alone.witness, alone.triples_checked) == (report.witness, report.triples_checked)
    assert enumerate_decorated(4).index(b) == 18


def test_slices_are_read_once_per_split(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return enumerate_decorated(n)

    carrier = laws._carrier(Structure.DECORATED)._replace(elements=counted)
    monkeypatch.setitem(laws._CARRIERS, Structure.DECORATED, carrier)
    assert check_laws(Structure.DECORATED, Variety.DUPLEX, 9).satisfied
    assert sorted(calls) == list(range(1, 8))  # each degree a split needs, once per audit


def test_inner_products_are_built_once_per_audit(monkeypatch):
    calls = made = 0
    carrier = laws._carrier(Structure.DECORATED)

    def counted_bulk_products():
        nonlocal made
        made += 1
        products = carrier.products()

        def counted(op, xs, ys):
            nonlocal calls
            forms = list(products(op, xs, ys))
            calls += len(forms)
            return forms

        return counted

    monkeypatch.setitem(laws._CARRIERS, Structure.DECORATED, carrier._replace(products=counted_bulk_products))
    report = check_laws(Structure.DECORATED, Variety.DUPLEX, 9)
    assert made == 1  # one products function per audit
    assert report.triples_checked == 22149
    pairs = sum(
        len(enumerate_decorated(d1)) * len(enumerate_decorated(d2)) for d1 in range(1, 8) for d2 in range(1, 9 - d1)
    )
    assert pairs == 8557
    # both inner products of each pair of degree sum <= 8, then the two
    # associativity identities' four outer products per triple
    assert calls == 2 * pairs + 4 * report.triples_checked


@pytest.mark.parametrize("structure, limit", LIMITS, ids=[s.value for s, _ in LIMITS])
def test_bulk_products_are_the_scalar_products(structure, limit):
    # every pair (x, y) with deg x + deg y <= limit: every pair an audit forms.
    # The bulk and the scalar products share one rule, so both are held to
    # the products by their definitions, and through them to each other.
    carrier = laws._carrier(structure)
    products = carrier.products()  # one function for every pair, as in an audit
    forms = [carrier.form(x) for d in range(1, limit) for x in carrier.elements(d)]
    assert len(set(forms)) == len(forms)  # equal forms are equal elements
    for d1 in range(1, limit):
        xs = carrier.elements(d1)
        for d2 in range(1, limit - d1 + 1):
            ys = carrier.elements(d2)
            x_forms, y_forms = tuple(map(carrier.form, xs)), tuple(map(carrier.form, ys))
            for op, scalar, reference in zip(".*", OPS[structure], PRODUCTS_BY_DEFINITION[structure]):
                expected = [reference(x, y) for x, y in product(xs, ys)]
                assert [scalar(x, y) for x, y in product(xs, ys)] == expected, (op, d1, d2)
                bulk = list(products(op, x_forms, y_forms))
                assert bulk == list(map(carrier.form, expected)), (op, d1, d2)


@pytest.mark.parametrize("structure", list(Structure), ids=[s.value for s in Structure])
def test_dropped_products_keep_no_column(structure):
    # the decorated parts, the binary leaf templates and the permutation
    # shifts are cached per column while an audit's products function lives;
    # cube products cache nothing.  The columns are fresh tuples, so a count
    # back where it started means no cache outlives the function.
    carrier = CARRIERS[structure]
    xs, ys = (tuple(map(carrier.form, carrier.elements(d))) for d in (2, 3))
    before = sys.getrefcount(xs), sys.getrefcount(ys)
    products = carrier.products()
    for op in ".*":
        assert len(list(products(op, xs, ys))) == len(xs) * len(ys)
    held = sys.getrefcount(xs) - before[0], sys.getrefcount(ys) - before[1]
    assert (min(held) > 0) == (structure is not Structure.CUBE)  # both columns are cached
    del products
    assert (sys.getrefcount(xs), sys.getrefcount(ys)) == before


def test_audits_run_no_scalar_product(monkeypatch):
    expected = {(s, v): check_laws(s, v, limit) for s, limit in LIMITS for v in Variety}

    def raising(x, y):
        raise AssertionError("a scalar product ran")

    scalars = {
        decorated_trees: ("tree_dot", "tree_star", "DECORATED_OPS"),
        binary_trees: ("over", "under", "BINARY_OPS"),
        cubes: ("cube_dot", "cube_star", "CUBE_OPS"),
        permutations: ("sharp", "natural", "PERM_OPS"),
    }
    for module, names in scalars.items():
        for name in names[:2]:
            monkeypatch.setattr(module, name, raising)
        monkeypatch.setattr(module, names[2], DuplexOps(raising, raising))
    for (structure, variety), report in expected.items():
        assert check_laws(structure, variety, report.degree_bound) == report
    # the paper's claims: each carrier is a duplex, binary trees satisfy
    # duplexes1 and cube vertices duplexes2 (so duplexes1)
    assert {key for key, report in expected.items() if report.satisfied} == {
        *((s, Variety.DUPLEX) for s in Structure),
        (Structure.BINARY, Variety.DUPLEXES1),
        (Structure.CUBE, Variety.DUPLEXES1),
        (Structure.CUBE, Variety.DUPLEXES2),
    }
