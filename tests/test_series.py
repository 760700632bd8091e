import functools
import math
import operator
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from duplexes import binary_trees, decorated_trees, permutations, planar_trees, series as series_module
from duplexes.binary_trees import catalan
from duplexes.errors import BoundExceeded, ComposeNonzeroConstant, CountRouteMismatch, DuplexError, InvalidDegree
from duplexes.series import (
    CHECKS,
    CheckResult,
    Series,
    _compare,
    from_counts,
    verify_identity,
)

coefficient_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5)


def series(*coefficients):
    return Series(coefficients)


# --- arithmetic ----------------------------------------------------------------


def test_add_sub_mul():
    t = Series.monomial(1, 3)
    assert t * t == Series.monomial(2, 3)
    assert Series.monomial(5, 3) == Series.zeros(3)  # past the order, nothing remains
    a = series(0, 1, 2, 3)
    assert a + a.scale(-1) == Series.zeros(3)
    assert a - a == Series.zeros(3)


def test_operations_reject_two_orders():
    # a series has one order: no operation truncates the longer operand, so a
    # short route cannot pass as a shorter check
    long, short = series(0, 1, 1, 1, 1, 1), series(0, 1)
    compare = functools.partial(_compare, "demo")
    for operate in (operator.add, operator.sub, operator.mul, operator.truediv, Series.compose, compare):
        for a, b in ((long, short), (short, long)):
            with pytest.raises(ArithmeticError, match=f"^series orders differ: {a.order} and {b.order}$") as caught:
                operate(a, b)
            assert type(caught.value) is ArithmeticError  # neither a usage error nor a DuplexError


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _oracle_compose(outer, inner, order):
    # substitute by expanding powers with plain list convolution
    total = [0] * (order + 1)
    power = [1]
    for coefficient in outer:
        for k, v in enumerate(power[: order + 1]):
            total[k] += coefficient * v
        power = _poly_mul(power, inner)
    return total


def test_compose_example():
    # prefix of T/(1-T) substituted into itself doubles coefficients: 1,2,4,8
    g = series(0, 1, 1, 1, 1)
    got = g.compose(g)
    assert got == series(0, 1, 2, 4, 8)
    assert list(got.coefficients) == _oracle_compose(g.coefficients, list(g.coefficients), 4)


@given(coefficient_lists, coefficient_lists)
def test_compose_matches_oracle(outer, inner):
    inner[0] = 0
    got = Series(tuple(outer)).compose(Series(tuple(inner)))
    assert list(got.coefficients) == _oracle_compose(outer, inner, 4)


def test_compose_requires_zero_constant():
    with pytest.raises(ComposeNonzeroConstant):
        series(0, 1).compose(series(1, 1))


def test_division_needs_a_unit_constant_term():
    for divisor in (series(0, 1), series(2, 1), series(-1, 1)):
        with pytest.raises(ArithmeticError, match=f"^a divisor needs constant term 1, got {divisor.coefficients[0]}$"):
            series(1, 1) / divisor


def test_division_inverts_the_product():
    rng = random.Random(36)
    for order in range(12):
        a = Series(rng.randint(-9, 9) for _ in range(order + 1))
        b = Series((1, *(rng.randint(-9, 9) for _ in range(order))))
        assert (a / b) * b == a


def test_power_sums_are_quotients():
    g = series(0, 1, 0, 0)
    one = Series.constant(1, 3)
    assert g / (one - g) == series(0, 1, 1, 1)
    assert g / (one + g) == series(0, 1, -1, 1)


def _powers_reference(g, alternating):
    # the plain definition: add up g, g^2, ..., g^order
    total, power = Series.zeros(g.order), g
    for k in range(1, g.order + 1):
        total = total - power if alternating and k % 2 == 0 else total + power
        power = power * g
    return total


def test_power_sum_quotients_match_the_power_loop():
    # sum_k g^k = g/(1 - g) and sum_k (-1)^(k-1) g^k = g/(1 + g)
    rng = random.Random(14)
    for order in range(30):
        one = Series.constant(1, order)
        g = Series((0, *(rng.randint(-9, 9) for _ in range(order))))
        assert g / (one - g) == _powers_reference(g, False)
        g = Series((0, *(rng.randint(-9, 9) for _ in range(order))))
        assert g / (one + g) == _powers_reference(g, True)


def test_validation():
    with pytest.raises(ValueError):
        Series(())


def test_coefficients_must_be_integers():
    # exact means no silent truncation or parsing of a coefficient
    for stray in (2.5, 2.0, "7"):
        with pytest.raises(TypeError):
            Series((0, stray))


@given(coefficient_lists, coefficient_lists, coefficient_lists)
def test_ring_laws(a, b, c):
    a, b, c = Series(tuple(a)), Series(tuple(b)), Series(tuple(c))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# --- counting sources -------------------------------------------------------------


def test_from_counts_values():
    assert from_counts("factorials", 5).coefficients == (0, 1, 2, 6, 24, 120)
    assert from_counts("sharp-indec", 7).coefficients == (0, 1, 1, 3, 13, 71, 461, 3447)
    assert from_counts("s2-indec", 7).coefficients == (0, 1, 0, 0, 2, 22, 202, 1854)
    assert from_counts("super-catalan", 5).coefficients == (0, 1, 1, 3, 11, 45)
    assert from_counts("catalan", 5).coefficients == (0, 1, 2, 5, 14, 42)


def test_from_counts_labeled():
    assert from_counts("dupl", 4).coefficients == (0, 1, 2, 6, 22)
    assert from_counts("dupl", 4, alphabet_size=2).coefficients == (0, 2, 8, 48, 352)


def test_from_counts_errors():
    with pytest.raises(ValueError):
        from_counts("fibonacci", 5)
    with pytest.raises(ValueError, match="^alphabet size must be >= 1, got -1$"):
        from_counts("dupl", 4, -1)
    for source in series_module.SOURCES:
        with pytest.raises(ValueError, match="alphabet size"):
            from_counts(source, 4, 0)
        if source != "dupl":
            with pytest.raises(ValueError, match=f"only 'dupl' counts over an alphabet; '{source}'"):
                from_counts(source, 5, 3)
    for source in ("sharp-indec", "s2-indec"):
        with pytest.raises(BoundExceeded, match="^degree 9 exceeds the enumeration bound 8$"):
            from_counts(source, 9)


def test_catalan_counts_match_the_closed_form(monkeypatch):
    # the series steps a recurrence; the closed form, one binomial per
    # coefficient, is its check here and no longer a route of from_counts
    expected = (0, *(catalan(n) for n in range(1, 401)))

    def forbidden(n):
        raise AssertionError("from_counts computed a binomial per coefficient")

    monkeypatch.setattr(binary_trees, "catalan", forbidden)
    assert from_counts("catalan", 400).coefficients == expected


def test_factorial_counts_match_math_factorial(monkeypatch):
    # the series is a running product; one math.factorial per coefficient
    # is its check here, at the bound
    expected = (0, *(math.factorial(n) for n in range(1, 1201)))

    def forbidden(n):
        raise AssertionError("from_counts computed a factorial per coefficient")

    monkeypatch.setattr(math, "factorial", forbidden)
    assert from_counts("factorials", 1200).coefficients == expected


def test_indecomposable_counts_check_their_bound_before_the_formula(monkeypatch):
    # the formula costs superlinear time in the order, so a bound past the
    # chain count's must raise before it runs
    def forbidden(order):
        raise AssertionError("the formula ran before the bound was checked")

    monkeypatch.setattr(series_module, "_sharp_indec_formula", forbidden)
    for source in ("sharp-indec", "s2-indec"):
        with pytest.raises(BoundExceeded, match="^degree 9 exceeds the enumeration bound 8$"):
            from_counts(source, 9)
    with pytest.raises(BoundExceeded, match="^degree 9 exceeds the enumeration bound 8$"):
        verify_identity("cor52", 9)


# the documented bounds: the largest order each source counts, and each check
# compares (its most tightly bounded source, or for ass the word scan)
SOURCE_BOUNDS = {"factorials": 1200, "sharp-indec": 8, "s2-indec": 8, "super-catalan": 1200, "catalan": 10_000, "dupl": 8}
CHECK_BOUNDS = {"ass": 13, "fesvi": 1200, "usformula": 8, "supercatalan": 1200, "dupl": 8, "desformula": 8, "cor52": 8}


def test_the_bounds_are_the_documented_ones():
    assert series_module.ORDER_BOUNDS == SOURCE_BOUNDS
    assert tuple(CHECK_BOUNDS) == CHECKS
    # series spells these out so that checking a bound loads no carrier
    assert SOURCE_BOUNDS["sharp-indec"] == SOURCE_BOUNDS["s2-indec"] == permutations.DEFAULT_PERMUTATION_BOUND
    assert SOURCE_BOUNDS["dupl"] == decorated_trees.DEFAULT_DECORATED_BOUND


@pytest.mark.parametrize(
    "run, name, bound",
    [(from_counts, *item) for item in SOURCE_BOUNDS.items()] + [(verify_identity, *item) for item in CHECK_BOUNDS.items()],
    ids=[f"source-{name}" for name in SOURCE_BOUNDS] + [f"check-{name}" for name in CHECK_BOUNDS],
)
def test_one_past_its_bound_raises_before_any_work(monkeypatch, run, name, bound):
    def forbidden(*args):
        raise AssertionError("a count ran before its bound was checked")

    monkeypatch.setattr(permutations, "count_indecomposable", forbidden)
    monkeypatch.setattr(decorated_trees, "enumerate_decorated", forbidden)
    monkeypatch.setattr(planar_trees, "super_catalan", forbidden)
    monkeypatch.setattr(planar_trees, "_super_catalans", forbidden)
    monkeypatch.setattr(series_module, "_word_counts", forbidden)
    monkeypatch.setattr(series_module, "_catalan_step", forbidden)
    with pytest.raises(BoundExceeded, match=f"^degree {bound + 1} exceeds the enumeration bound {bound}$"):
        run(name, bound + 1)


@pytest.mark.parametrize("name", ["ass", "usformula", "dupl", "desformula", "cor52"])
def test_a_check_runs_at_its_bound(name):
    # fesvi and supercatalan at 1200 take seconds; the CLI fuzz runs them
    assert verify_identity(name, CHECK_BOUNDS[name]).ok


@pytest.mark.parametrize("order", [0, -1])
@pytest.mark.parametrize("source", series_module.SOURCES)
def test_from_counts_rejects_an_order_below_one(source, order):
    # an order below 1 has no coefficient to count
    with pytest.raises(InvalidDegree, match=f"^order must be >= 1, got {order}$"):
        from_counts(source, order)


def test_indecomposable_counts_build_no_permutations(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a count built the permutations")

    monkeypatch.setattr(permutations, "_all_permutations", forbidden)
    monkeypatch.setattr(permutations, "_dot_cuts", forbidden)
    assert from_counts("sharp-indec", 8).coefficients[8] == 29093
    assert from_counts("s2-indec", 8).coefficients[8] == 17866
    for name in ("usformula", "desformula", "cor52"):
        assert verify_identity(name, 8).ok, name


def test_count_route_mismatch_names_its_witness(monkeypatch):
    formula = series_module._sharp_indec_formula
    monkeypatch.setattr(
        series_module, "_sharp_indec_formula", lambda order: formula(order) + Series.monomial(5, order)
    )
    message = "first differing coefficient at degree 5: chain count=71 formula=72"
    with pytest.raises(RuntimeError, match=f"^count routes disagree for sharp-indec: {message}$") as caught:
        from_counts("sharp-indec", 7)
    assert isinstance(caught.value, CountRouteMismatch) and isinstance(caught.value, DuplexError)
    assert caught.value.check == CheckResult("sharp-indec", False, 5, 71, 72)
    with pytest.raises(RuntimeError, match="count routes disagree for s2-indec: first differing") as caught:
        from_counts("s2-indec", 7)
    # s2 = 2·sharp - n!: the formula route moves by 2 at degree 5
    assert caught.value.check == CheckResult("s2-indec", False, 5, 22, 24)


# --- the named identities ------------------------------------------------------------


# each check's default order, and the alphabet sizes its labels name
DEFAULT_ORDERS = {"ass": 7, "fesvi": 12, "usformula": 7, "supercatalan": 12, "dupl": 6, "desformula": 7, "cor52": 7}
ALPHABETS = {"ass": [1, 2, 3], "dupl": [1, 2]}


@pytest.mark.parametrize("name", CHECKS)
def test_identities_verify_at_defaults(name):
    # and at order 1, the least order that compares a coefficient
    for order, report in ((DEFAULT_ORDERS[name], verify_identity(name)), (1, verify_identity(name, 1))):
        assert report.order == order
        assert report.ok, report
        assert all(check.ok for check in report.checks)
        assert report.first_failure() is None
        alphabets = [re.match(r"alphabet of (\d+): ", check.label) for check in report.checks]
        assert [int(m[1]) for m in alphabets if m] == ALPHABETS.get(name, [])


def test_verify_at_explicit_order():
    assert verify_identity("fesvi", 12).ok
    assert verify_identity("supercatalan", 12).ok
    assert verify_identity("cor52", 7).ok


@pytest.mark.parametrize("order", [0, -1])
@pytest.mark.parametrize("name", CHECKS)
def test_verify_rejects_a_vacuous_order(name, order):
    # an order below 1 compares no coefficient, so nothing would be checked
    with pytest.raises(InvalidDegree, match=f"^order must be >= 1, got {order}$"):
        verify_identity(name, order)


def test_verify_unknown_name():
    with pytest.raises(ValueError):
        verify_identity("banach-tarski")


def test_a_short_route_fails_loudly(monkeypatch):
    # a route that comes back two coefficients short raises, where a
    # truncating comparison would pass it as a check of order 5
    word_counts = series_module._word_counts
    monkeypatch.setattr(series_module, "_word_counts", lambda s, order: word_counts(s, order)[:-2])
    with pytest.raises(ArithmeticError, match="^series orders differ: 5 and 7$"):
        verify_identity("ass", 7)
    monkeypatch.setattr(series_module, "_count_indec", lambda kind, order: Series((0,) * order))
    with pytest.raises(ArithmeticError, match="^series orders differ: 6 and 7$"):
        from_counts("sharp-indec", 7)


def test_compare_reports_first_mismatch():
    result = _compare("demo", series(0, 1, 2, 3), series(0, 1, 5, 3))
    assert not result.ok
    assert result.mismatch_degree == 2
    assert result.lhs_coefficient == 2
    assert result.rhs_coefficient == 5
