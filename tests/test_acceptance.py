"""Acceptance suite: every criterion at its stated bound, zero tolerance.

Each test prints one ``criterion NN PASS/FAIL`` line (visible with ``-s``
or in failure reports).  All arithmetic is exact; there are no numeric
tolerances anywhere.
"""
import itertools
import math
import time
from contextlib import contextmanager
from functools import reduce

from conftest import compositions
from duplexes.binary_trees import (
    SINGLE_NODE,
    catalan,
    enumerate_binary,
    over,
    split,
    under,
)
from duplexes.cubes import SINGLETON, CubeVertex, cube_dot, cube_star
from duplexes.decorated_trees import (
    DuplexExpr,
    GENERATOR_TREE,
    dot,
    enumerate_decorated,
    star,
    tree_dot,
    tree_star,
)
from duplexes.laws import Structure, Variety, check_laws
from duplexes.morphisms import alpha, leaf_sign_vector, phi, rho
from duplexes.permutations import (
    IndecKind,
    Permutation,
    duplex_factorize,
    enumerate_indecomposable,
    enumerate_permutations,
    is_indecomposable,
    multiply_out,
    natural,
    natural_factorize,
    sharp,
    sharp_factorize,
    xi,
)
from duplexes.planar_trees import enumerate_trees, super_catalan
from duplexes.series import Series, from_counts


def sum_of_powers(g, sign=1):
    # g + sign*g^2 + g^3 + ..., power by power: independent of the library's division
    total, power = Series.zeros(g.order), g
    for k in range(g.order):
        total = total + power.scale(sign**k)
        power = power * g
    return total


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number:02d} PASS: {description} ({elapsed:.2f}s)")


def over_e(t):
    return DuplexExpr(t, ("e",) * t.degree, frozenset("e"))


def test_criterion_01_sharp_indecomposable_counts():
    with criterion(1, "sharp-indecomposable counts match list and inclusion-exclusion"):
        scanned = [len(enumerate_indecomposable(n, IndecKind.SHARP)) for n in range(1, 8)]
        assert scanned == [1, 1, 3, 13, 71, 461, 3447]
        factorials = Series((0,) + tuple(math.factorial(n) for n in range(1, 8)))
        formula = sum_of_powers(factorials, sign=-1)
        assert formula.coefficients == (0, 1, 1, 3, 13, 71, 461, 3447)


def test_criterion_02_sharp_indecomposable_sets():
    with criterion(2, "exact sharp-indecomposable sets at degrees 2 and 3"):
        assert set(enumerate_indecomposable(2, IndecKind.SHARP)) == {Permutation((2, 1))}
        assert set(enumerate_indecomposable(3, IndecKind.SHARP)) == {
            Permutation((2, 3, 1)),
            Permutation((3, 1, 2)),
            Permutation((3, 2, 1)),
        }


def test_criterion_03_doubly_indecomposable_counts():
    with criterion(3, "doubly indecomposable counts, formula, and exact degree-4 set"):
        scanned = [len(enumerate_indecomposable(n, IndecKind.S2)) for n in range(1, 8)]
        assert scanned == [1, 0, 0, 2, 22, 202, 1854]
        for n in range(1, 8):
            u = len(enumerate_indecomposable(n, IndecKind.SHARP))
            assert scanned[n - 1] == 2 * u - math.factorial(n)
        assert set(enumerate_indecomposable(4, IndecKind.S2)) == {
            Permutation((2, 4, 1, 3)),
            Permutation((3, 1, 4, 2)),
        }
        assert len(enumerate_indecomposable(5, IndecKind.S2)) == 22


def test_criterion_04_tree_counts_and_sqrt_identity():
    with criterion(4, "tree counts by generation and the squared radical identity mod T^13"):
        assert [len(enumerate_trees(n)) for n in range(1, 6)] == [1, 1, 3, 11, 45]
        for n in range(1, 9):
            assert len(enumerate_trees(n)) == super_catalan(n)
        f = from_counts("super-catalan", 12)
        lhs = Series.monomial(1, 12) + Series.constant(1, 12) - f.scale(4)
        assert (lhs * lhs).coefficients == (1, -6, 1) + (0,) * 10


def test_criterion_05_tree_series_doubling():
    with criterion(5, "sum of all powers of the tree series equals T + 2(g-T) mod T^13"):
        g = from_counts("super-catalan", 12)
        t = Series.monomial(1, 12)
        assert sum_of_powers(g) == t + (g - t).scale(2)


def test_criterion_06_factorial_quadratic():
    with criterion(6, "psi^2 + xi*psi - psi + xi = 0 mod T^8 with scanned counts"):
        psi = from_counts("factorials", 7)
        scanned = [len(enumerate_indecomposable(n, IndecKind.S2)) for n in range(1, 8)]
        xi_series = Series((0, *scanned))
        assert psi * psi + xi_series * psi - psi + xi_series == Series.zeros(7)


def test_criterion_07_factorizations_and_normal_forms():
    with criterion(7, "factorization round trips and n! normal forms per degree, n <= 6"):
        for n in range(1, 7):
            everyone = enumerate_permutations(n)
            for f in everyone:
                factors = sharp_factorize(f)
                assert reduce(sharp, factors) == f
                assert all(is_indecomposable(g, IndecKind.SHARP) for g in factors)
                expression = duplex_factorize(f)
                assert multiply_out(expression) == f
                assert all(is_indecomposable(lab, IndecKind.S2) for lab in expression.labels)
            # leaf-labeled normal forms of total degree n, counted by direct
            # construction, evaluate bijectively onto the degree-n slice
            values = []
            for k in range(1, n + 1):
                for shape in enumerate_decorated(k):
                    for parts in compositions(n, k):
                        pools = [enumerate_indecomposable(m, IndecKind.S2) for m in parts]
                        for labels in itertools.product(*pools):
                            values.append(multiply_out(DuplexExpr(shape, labels)))
            assert len(values) == math.factorial(n)
            assert set(values) == set(everyone)


def test_criterion_08_involution_and_exclusivity():
    with criterion(8, "xi exchanges the products, squares to id, and splits are exclusive"):
        for n in range(1, 8):
            for f in enumerate_permutations(n):
                assert xi(xi(f)) == f
                sharp_dec = not is_indecomposable(f, IndecKind.SHARP)
                natural_dec = not is_indecomposable(f, IndecKind.NATURAL)
                assert not (sharp_dec and natural_dec)
        for d1 in range(1, 7):
            for d2 in range(1, 8 - d1):
                for f in enumerate_permutations(d1):
                    for g in enumerate_permutations(d2):
                        assert xi(sharp(f, g)) == natural(xi(f), xi(g))


def test_criterion_09_free_duplex_counts():
    with criterion(9, "decorated slice sizes, generator closure, and labeled counts"):
        for n in range(2, 8):
            assert len(enumerate_decorated(n)) == 2 * super_catalan(n)
        layers = {1: {GENERATOR_TREE}}
        for total in range(2, 8):
            layer = set()
            for d1 in range(1, total):
                for x in layers[d1]:
                    for y in layers[total - d1]:
                        layer.add(tree_dot(x, y))
                        layer.add(tree_star(x, y))
            layers[total] = layer
            assert layer == set(enumerate_decorated(total))
        for s in (1, 2):
            for n in range(1, 7):
                count = len(enumerate_decorated(n)) * s**n
                expected = s if n == 1 else 2 * super_catalan(n) * s**n
                assert count == expected


def test_criterion_10_binary_tree_slice():
    with criterion(10, "binary trees: mixed identity, catalan counts, reconstruction"):
        for total in range(3, 7):
            for d1, d2, d3 in compositions(total, 3):
                for a in enumerate_binary(d1):
                    for b in enumerate_binary(d2):
                        for c in enumerate_binary(d3):
                            assert under(over(a, b), c) == over(a, under(b, c))
        for n in range(1, 9):
            assert len(enumerate_binary(n)) == catalan(n) == math.comb(2 * n, n) // (n + 1)
        for n in range(1, 6):
            for u in enumerate_binary(n):
                left, right = split(u)
                assert under(over(left, SINGLE_NODE), right) == u


def test_criterion_11_cube_identities_and_bracketings():
    with criterion(11, "cube identities to total degree 9 and bracketing independence"):
        report = check_laws(Structure.CUBE, Variety.DUPLEXES2, 9)
        assert report.satisfied

        def bracketings(word):
            if not word:
                return {SINGLETON}
            out = set()
            for i, op in enumerate(word):
                for left in bracketings(word[:i]):
                    for right in bracketings(word[i + 1 :]):
                        out.add(op(left, right))
            return out

        for length in range(1, 7):
            for word in itertools.product((cube_dot, cube_star), repeat=length):
                assert bracketings(word) == {CubeVertex(-1 if op is cube_dot else 1 for op in word)}


def test_criterion_12_morphism_coherence():
    with criterion(12, "alpha, rho, phi are homomorphisms; phi(rho) is the leaf-sign rule"):
        for d1 in range(1, 6):
            for d2 in range(1, 7 - d1):
                for a in enumerate_decorated(d1):
                    for b in enumerate_decorated(d2):
                        x, y = over_e(a), over_e(b)
                        assert alpha(dot(x, y)) == sharp(alpha(x), alpha(y))
                        assert alpha(star(x, y)) == natural(alpha(x), alpha(y))
                        assert rho(dot(x, y)) == over(rho(x), rho(y))
                        assert rho(star(x, y)) == under(rho(x), rho(y))
                for u in enumerate_binary(d1):
                    for v in enumerate_binary(d2):
                        assert phi(over(u, v)) == cube_dot(phi(u), phi(v))
                        assert phi(under(u, v)) == cube_star(phi(u), phi(v))
        for n in range(2, 7):
            for t in enumerate_decorated(n):
                x = over_e(t)
                assert phi(rho(x)) == leaf_sign_vector(x)


def test_criterion_13_variety_audit():
    with criterion(13, "variety audits: two passes, two refutations with witnesses"):
        assert check_laws(Structure.CUBE, Variety.DUPLEXES2, 9).satisfied
        assert check_laws(Structure.BINARY, Variety.DUPLEXES1, 6).satisfied
        perm_report = check_laws(Structure.PERM, Variety.DUPLEXES1, 3)
        one = Permutation((1,))
        assert not perm_report.satisfied
        assert perm_report.witness == (one, one, one)
        binary_report = check_laws(Structure.BINARY, Variety.DUPLEXES2, 6)
        assert not binary_report.satisfied
        assert binary_report.witness is not None


def test_natural_factorization_supplement():
    # companion to criterion 7 on the anti-diagonal side
    for n in range(1, 7):
        for f in enumerate_permutations(n):
            factors = natural_factorize(f)
            assert reduce(natural, factors) == f
            assert all(is_indecomposable(g, IndecKind.NATURAL) for g in factors)
