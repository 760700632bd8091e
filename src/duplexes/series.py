"""Truncated power series over exact integers, and the counting identities.

Every identity the package cares about is integral, so coefficients are
plain Python ints and every check is exact.  A series has one order:
``+``, ``-``, ``*``, ``/``, ``compose`` and a check's comparison take two
series of one order, and two orders raise ``ArithmeticError`` naming both, so
a route that comes back short fails its check instead of passing a shorter
one.  A sum over all powers of a series g with zero constant term is the
exact quotient it equals: sum_k g^k = g/(1 - g), sum_k (-1)^(k-1) g^k = g/(1 + g).
"""
from __future__ import annotations

import itertools
import operator
from typing import Iterable, NamedTuple

from ._values import _Value
from .errors import ComposeNonzeroConstant, CountRouteMismatch, InvalidDegree, check_degree


class Series(_Value):
    """Coefficients ``a0..aN`` of a series truncated at order ``N``.

    ``a / b`` is the exact quotient for a divisor ``b`` with constant term 1,
    the one series q with q*b = a at this order."""

    __slots__ = ("coefficients",)
    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Iterable[int]):
        coefficients = tuple(map(operator.index, coefficients))
        if not coefficients:
            raise ValueError("a series carries at least the constant coefficient")
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def zeros(cls, order: int) -> "Series":
        return cls((0,) * (order + 1))

    @classmethod
    def constant(cls, value: int, order: int) -> "Series":
        return cls((value,) + (0,) * order)

    @classmethod
    def monomial(cls, degree: int, order: int, coefficient: int = 1) -> "Series":
        return cls(tuple(coefficient if i == degree else 0 for i in range(order + 1)))

    def __add__(self, other: "Series") -> "Series":
        _common_order(self, other)
        return Series(map(operator.add, self.coefficients, other.coefficients))

    def __sub__(self, other: "Series") -> "Series":
        _common_order(self, other)
        return Series(map(operator.sub, self.coefficients, other.coefficients))

    def __mul__(self, other: "Series") -> "Series":
        n = _common_order(self, other)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coefficients[j]
        return Series(tuple(out))

    def __truediv__(self, other: "Series") -> "Series":
        _common_order(self, other)
        b = other.coefficients
        if b[0] != 1:
            raise ArithmeticError(f"a divisor needs constant term 1, got {b[0]}")
        q = []
        for a in self.coefficients:
            # (q*b)_n = q_n + sum of b_j * q_(n-j) over 1 <= j <= n, with n = len(q)
            q.append(a - sum(map(operator.mul, b[1 : len(q) + 1], reversed(q))))
        return Series(q)

    def scale(self, factor: int) -> "Series":
        return Series(tuple(factor * c for c in self.coefficients))

    def compose(self, inner: "Series") -> "Series":
        """Substitute ``inner`` for the indeterminate; ``inner`` must have
        zero constant term."""
        if inner.coefficients[0] != 0:
            raise ComposeNonzeroConstant("substitution needs a zero constant term")
        n = _common_order(self, inner)
        acc = Series.zeros(n)
        for coef in reversed(self.coefficients):
            acc = acc * inner + Series.constant(coef, n)
        return acc


def _common_order(a: Series, b: Series) -> int:
    # a series of another order is a route's fault, never a shorter request
    if a.order != b.order:
        raise ArithmeticError(f"series orders differ: {a.order} and {b.order}")
    return a.order


# --- named coefficient sources -----------------------------------------------

# The largest order of each source, checked before any coefficient is
# computed.  The enumerated sources repeat their modules' bounds (a test holds
# them equal), so that checking one loads no carrier.  The computed ones stop
# where a request at the bound takes at most about 2 s on Python 3.11:
# ``count --max`` for catalan; for super-catalan the fesvi and supercatalan
# checks, whose series products take about 0.7 s at 1200, where the count
# itself takes 0.06 s.  Factorials share super-catalan's bound.
ORDER_BOUNDS = {"factorials": 1200, "sharp-indec": 8, "s2-indec": 8, "super-catalan": 1200, "catalan": 10_000, "dupl": 8}
SOURCES = tuple(ORDER_BOUNDS)

_WORD_SCAN_BOUND = 13  # the ass check lists 3**13 words, its largest scan under 2**21


def from_counts(source: str, order: int, alphabet_size: int = 1) -> Series:
    """Series whose degree-n coefficient is the named count, for n = 1..order.

    ``sharp-indec`` and ``s2-indec`` are computed both by the chain count
    :func:`~duplexes.permutations.count_indecomposable` and by the
    inclusion-exclusion formulas over block sums; the two routes must agree, and a
    disagreement raises :class:`~duplexes.errors.CountRouteMismatch`, which
    names its first differing degree and carries the comparison.  ``dupl`` counts
    label-decorated trees over an alphabet of ``alphabet_size`` generators,
    by enumeration; every other source counts unlabelled objects, so takes
    only the size 1.  An order below 1 has no coefficient to count, so it
    raises ``InvalidDegree``; an order past the source's ``ORDER_BOUNDS``
    entry raises ``BoundExceeded`` before any coefficient is computed.
    """
    if source not in SOURCES:
        raise ValueError(f"unknown count source {source!r}; known: {', '.join(SOURCES)}")
    if order < 1:
        raise InvalidDegree(f"order must be >= 1, got {order}")
    if alphabet_size < 1:
        raise ValueError(f"alphabet size must be >= 1, got {alphabet_size}")
    if alphabet_size != 1 and source != "dupl":
        raise ValueError(f"only 'dupl' counts over an alphabet; {source!r} takes size 1, got {alphabet_size}")
    check_degree(order, ORDER_BOUNDS[source])
    if source == "factorials":
        return Series((0, *itertools.accumulate(range(1, order + 1), operator.mul)))
    if source == "super-catalan":
        # imported here: only this source and the dupl check count planar trees
        from .planar_trees import _super_catalans

        return Series((0, *_super_catalans(order)))
    if source == "catalan":
        return Series((0, *itertools.accumulate(range(1, order), _catalan_step, initial=1)))
    if source == "sharp-indec":
        return _cross_checked(_count_indec("sharp", order), _sharp_indec_formula(order), source)
    if source == "s2-indec":
        formula = _sharp_indec_formula(order).scale(2) - from_counts("factorials", order)
        return _cross_checked(_count_indec("s2", order), formula, source)
    # imported here: only this source and the dupl check enumerate decorated trees
    from .decorated_trees import enumerate_decorated

    unlabelled = Series((0, *(len(enumerate_decorated(n)) for n in range(1, order + 1))))
    return _over_alphabet(unlabelled, alphabet_size)


def _catalan_step(c: int, n: int) -> int:
    # C(n+1) = C(n)·2(2n+1)/(n+2): each step exact, where math.comb costs O(n) per coefficient
    return c * (4 * n + 2) // (n + 2)


def _over_alphabet(unlabelled: Series, alphabet_size: int) -> Series:
    # a decorated tree of degree n takes any of s^n labelings
    return Series(tuple(c * alphabet_size**n for n, c in enumerate(unlabelled.coefficients)))


def _count_indec(kind: str, order: int) -> Series:
    check_degree(order, ORDER_BOUNDS[f"{kind}-indec"])  # the checks call this directly
    # imported after the bound: no other source or check needs permutations
    from .permutations import IndecKind, count_indecomposable

    counts = [count_indecomposable(n, IndecKind(kind)) for n in range(1, order + 1)]
    return Series((0, *counts))


def _sharp_indec_formula(order: int) -> Series:
    # inclusion-exclusion over ordered block splits: sum_k (-1)^(k-1) psi^k = psi/(1 + psi)
    psi = from_counts("factorials", order)
    return psi / (Series.constant(1, order) + psi)


def _cross_checked(counted: Series, formula: Series, source: str) -> Series:
    check = _compare(source, counted, formula)
    if not check.ok:
        raise CountRouteMismatch(
            f"count routes disagree for {source}: first differing coefficient at degree "
            f"{check.mismatch_degree}: chain count={check.lhs_coefficient} formula={check.rhs_coefficient}",
            check,
        )
    return counted


# --- named identity checks ----------------------------------------------------

class CheckResult(NamedTuple):
    """One coefficient-wise comparison (a tuple)."""

    label: str
    ok: bool
    mismatch_degree: int | None = None
    lhs_coefficient: int | None = None
    rhs_coefficient: int | None = None


class VerificationReport(NamedTuple):
    """The outcome of :func:`verify_identity` (a tuple)."""

    name: str
    order: int
    ok: bool
    checks: tuple[CheckResult, ...]

    def first_failure(self) -> CheckResult | None:
        return next((c for c in self.checks if not c.ok), None)


def _compare(label: str, lhs: Series, rhs: Series) -> CheckResult:
    for degree in range(_common_order(lhs, rhs) + 1):
        a, b = lhs.coefficients[degree], rhs.coefficients[degree]
        if a != b:
            return CheckResult(label, False, degree, a, b)
    return CheckResult(label, True)


def verify_identity(name: str, order: int | None = None) -> VerificationReport:
    """Check one of the named counting identities coefficient-wise.

    Each check compares two independently computed series (enumeration
    against closed formula, or formula against formula in a different
    shape) modulo ``T**(order+1)``.  An order below 1 would compare no
    coefficient, so it raises ``InvalidDegree``.  Each check reads its most
    tightly bounded count first, so an order past that bound raises
    ``BoundExceeded`` before any work: ``ass`` scans words up to order 13,
    and the others read counts bounded by ``ORDER_BOUNDS``; the chain counts
    skip ``from_counts``'s cross-check, so a faulty one fails its check.
    """
    if name not in CHECKS:
        raise ValueError(f"unknown identity {name!r}; known: {', '.join(CHECKS)}")
    builder, default_order = _CHECK_TABLE[name]
    if order is None:
        order = default_order
    if order < 1:
        raise InvalidDegree(f"order must be >= 1, got {order}")
    checks = builder(order)
    return VerificationReport(name, order, all(c.ok for c in checks), tuple(checks))


def _check_free_semigroup_series(order: int) -> list[CheckResult]:
    # word counts by enumeration against s*T / (1 - s*T), cross-multiplied
    check_degree(order, _WORD_SCAN_BOUND)
    results = []
    for s in (1, 2, 3):
        lhs = Series((0, *_word_counts(s, order))) * Series((1, -s) + (0,) * (order - 1))
        rhs = Series.monomial(1, order, s)
        results.append(_compare(f"alphabet of {s}: words*(1-{s}T) = {s}T", lhs, rhs))
    return results


def _word_counts(s: int, order: int) -> list[int]:
    # the words of each length 1..order over s letters, counted one by one
    return [sum(1 for _ in itertools.product(range(s), repeat=n)) for n in range(1, order + 1)]


def _check_tree_series_sqrt(order: int) -> list[CheckResult]:
    # (T + 1 - 4f)^2 = T^2 - 6T + 1 with f the tree-count series
    f = from_counts("super-catalan", order)
    lhs = Series.monomial(1, order) + Series.constant(1, order) - f.scale(4)
    rhs = Series.monomial(2, order) - Series.monomial(1, order, 6) + Series.constant(1, order)
    return [_compare("(T+1-4f)^2 = T^2-6T+1", lhs * lhs, rhs)]


def _check_factorial_composition(order: int) -> list[CheckResult]:
    # factorials = sum over k of u^k = u/(1 - u), u the chain-counted
    # sharp-indecomposable series, not from_counts's: its cross-check would
    # settle this comparison
    u = _count_indec("sharp", order)
    psi = from_counts("factorials", order)
    return [_compare("sum_k u(T)^k = sum n! T^n", u / (Series.constant(1, order) - u), psi)]


def _check_tree_series_doubling(order: int) -> list[CheckResult]:
    # sum over k of g^k = g/(1 - g) = T + 2(g - T) with g the tree-count series
    g = from_counts("super-catalan", order)
    t = Series.monomial(1, order)
    return [_compare("sum_k g^k = T + 2(g-T)", g / (Series.constant(1, order) - g), t + (g - t).scale(2))]


def _check_labeled_duplex_series(order: int) -> list[CheckResult]:
    # enumerated label counts against s*T + 2*sum_{n>=2} C_n (sT)^n
    # the slices are enumerated and the tree counts C_n computed once, then
    # both are counted over both alphabets
    unlabelled = from_counts("dupl", order)
    from .planar_trees import _super_catalans  # once from_counts has checked the bound

    tree_counts = (0, *_super_catalans(order))
    results = []
    for s in (1, 2):
        counted = _over_alphabet(unlabelled, s)
        tail = Series((0, 0) + tuple(tree_counts[n] * s**n for n in range(2, order + 1)))
        formula = Series.monomial(1, order, s) + tail.scale(2)
        results.append(_compare(f"alphabet of {s}: counts = {s}T + 2*sum C_n ({s}T)^n", counted, formula))
    return results


def _check_doubly_indec_formula(order: int) -> list[CheckResult]:
    # chain-counted doubly-indecomposable counts against 2u_n - n!, u_n also
    # chain-counted (the two kinds avoid different prefix sets)
    d = _count_indec("s2", order)
    u = _count_indec("sharp", order)
    psi = from_counts("factorials", order)
    return [_compare("d_n = 2u_n - n!", d, u.scale(2) - psi)]


def _check_factorial_quadratic(order: int) -> list[CheckResult]:
    # psi^2 + xi*psi - psi + xi = 0, and the solved form psi = 2f(xi) - xi
    xi = _count_indec("s2", order)
    psi = from_counts("factorials", order)
    quadratic = psi * psi + xi * psi - psi + xi
    f = from_counts("super-catalan", order)
    solved = f.compose(xi).scale(2) - xi
    return [
        _compare("psi^2 + xi*psi - psi + xi = 0", quadratic, Series.zeros(order)),
        _compare("psi = 2f(xi) - xi", psi, solved),
    ]


# name -> (builder, default order)
_CHECK_TABLE = {
    "ass": (_check_free_semigroup_series, 7),
    "fesvi": (_check_tree_series_sqrt, 12),
    "usformula": (_check_factorial_composition, 7),
    "supercatalan": (_check_tree_series_doubling, 12),
    "dupl": (_check_labeled_duplex_series, 6),
    "desformula": (_check_doubly_indec_formula, 7),
    "cor52": (_check_factorial_quadratic, 7),
}
CHECKS = tuple(_CHECK_TABLE)
