import itertools
import random
from functools import reduce

import pytest
from hypothesis import given

from conftest import alternating, nest_images, permutation_strategy
from duplexes import permutations
from duplexes.decorated_trees import DuplexExpr, dot, enumerate_decorated, eval_hom, leaf_expr, star
from duplexes.errors import BoundExceeded, InvalidDegree, ParseError
from duplexes.permutations import (
    PERM_OPS,
    IndecKind,
    Permutation,
    count_indecomposable,
    duplex_factorize,
    enumerate_indecomposable,
    enumerate_permutations,
    format_permutation,
    is_indecomposable,
    multiply_out,
    natural,
    natural_factorize,
    parse_permutation,
    sharp,
    sharp_factorize,
    xi,
    _dot_cuts,
    _validate_images,
)


def P(*images):
    return Permutation(images)


# --- independent oracles, straight from the set-inclusion definitions --------


def oracle_delta(f):
    n = f.degree
    return min(i for i in range(1, n + 1) if set(f.images[:i]) <= set(range(1, i + 1)))


def oracle_sharp_indec(f):
    n = f.degree
    return not any(set(f.images[:i]) <= set(range(1, i + 1)) for i in range(1, n))


def oracle_natural_indec(f):
    n = f.degree
    return not any(set(f.images[:i]) <= set(range(n - i + 1, n + 1)) for i in range(1, n))


def all_perms(n):
    return enumerate_permutations(n)


# --- construction and text format --------------------------------------------


def test_rejects_repeated_value():
    with pytest.raises(ValueError, match="value 2 appears more than once"):
        Permutation((2, 2, 1))


def test_rejects_missing_value():
    with pytest.raises(ValueError, match="value 2 is missing"):
        Permutation((1, 4, 3))


def test_rejects_empty():
    with pytest.raises(ValueError):
        Permutation(())


def test_images_must_be_integers():
    # a float image would print as "2.0" and spread through every product
    for images in ((2.0, 1.0), ("1",), (1, 2.5)):
        with pytest.raises(TypeError):
            Permutation(images)
    assert Permutation([2, 1]).images == (2, 1)


def test_call_takes_only_points_of_the_domain():
    f = P(2, 3, 1)
    assert [f(i) for i in (1, 2, 3)] == [2, 3, 1]
    for i in (0, -1, 4):
        with pytest.raises(ValueError, match=f"^point {i} is not in 1..3$"):
            f(i)


def test_parse_format_round_trip():
    for n in range(1, 5):
        for f in all_perms(n):
            assert parse_permutation(format_permutation(f)) == f


def test_format_is_the_plain_join():
    # the degree template against the per-image join, over every slice
    assert format_permutation(P(1)) == "(1)"
    for n in range(1, 9):
        for f in enumerate_permutations(n):
            assert format_permutation(f) == "(" + ",".join(str(v) for v in f.images) + ")"


def test_format_is_the_spaceless_repr_at_every_degree():
    # up to 200 and back down: past the template cache's 64 entries both ways,
    # so evicted templates are built again
    def spaceless_repr(images):
        return repr(images).replace(" ", "").replace(",)", ")")

    for n in [*range(1, 201), *range(200, 0, -1)]:
        for images in (tuple(range(1, n + 1)), tuple(range(n, 0, -1))):
            assert format_permutation(Permutation(images)) == spaceless_repr(images)
    identity = tuple(range(1, 20001))
    assert format_permutation(Permutation(identity)) == spaceless_repr(identity)


def test_parse_accepts_whitespace():
    assert parse_permutation(" ( 3 , 1 , 2 ) ") == P(3, 1, 2)


def test_parse_diagnostics():
    with pytest.raises(ParseError, match="value 1 appears more than once"):
        parse_permutation("(1,1)")
    with pytest.raises(ParseError, match="value 2 is missing"):
        parse_permutation("(1,3)")
    with pytest.raises(ParseError, match="parenthesized"):
        parse_permutation("3,1,2")


@pytest.mark.parametrize(
    "text", ["(" + "0" * 4300 + "1)", "(" + "9" * 5000 + ")"], ids=["zeros-then-1", "5000-nines"]
)
def test_parse_rejects_a_numeral_past_the_digit_cap(text):
    # int() refuses a numeral of more than 4300 digits with a bare ValueError
    with pytest.raises(ParseError, match="^a value has too many digits to read as an integer$"):
        parse_permutation(text)


# --- the two block sums ---------------------------------------------------------


def test_sharp_examples():
    assert sharp(P(3, 1, 2), P(3, 2, 1)) == P(3, 1, 2, 6, 5, 4)
    assert sharp(P(1), P(1)) == P(1, 2)
    assert sharp(P(2, 1), P(1)) == P(2, 1, 3)


def test_natural_examples():
    assert natural(P(3, 1, 2), P(3, 2, 1)) == P(6, 4, 5, 3, 2, 1)
    assert natural(P(1), P(1)) == P(2, 1)
    assert natural(P(1), P(1, 2)) == P(3, 1, 2)


def test_block_sums_associative_exhaustive():
    # all triples with total degree <= 7
    for total in range(3, 8):
        for d1, d2, d3 in _compositions(total, 3):
            for f in all_perms(d1):
                for g in all_perms(d2):
                    for h in all_perms(d3):
                        assert sharp(sharp(f, g), h) == sharp(f, sharp(g, h))
                        assert natural(natural(f, g), h) == natural(f, natural(g, h))


@given(permutation_strategy(5), permutation_strategy(5), permutation_strategy(5))
def test_block_sums_associative_random(f, g, h):
    assert sharp(sharp(f, g), h) == sharp(f, sharp(g, h))
    assert natural(natural(f, g), h) == natural(f, natural(g, h))


def test_degrees_add():
    f, g = P(2, 1), P(1, 3, 2)
    assert sharp(f, g).degree == 5
    assert natural(f, g).degree == 5


# --- xi ---------------------------------------------------------------------------


def test_xi_examples():
    assert xi(P(1, 2)) == P(2, 1)
    assert xi(P(2, 3, 1)) == P(2, 1, 3)
    assert xi(xi(P(3, 1, 4, 2))) == P(3, 1, 4, 2)


def test_xi_is_composition_with_omega():
    for n in range(1, 6):
        for f in all_perms(n):
            g = xi(f)
            assert all(g(i) == n + 1 - f(i) for i in range(1, n + 1))


def test_xi_involution_exhaustive():
    for n in range(1, 7):
        for f in all_perms(n):
            assert xi(xi(f)) == f


def test_xi_swaps_the_block_sums():
    for d1 in range(1, 6):
        for d2 in range(1, 7 - d1):
            for f in all_perms(d1):
                for g in all_perms(d2):
                    assert xi(sharp(f, g)) == natural(xi(f), xi(g))


# --- delta and factorization -------------------------------------------------------
# delta(f), the smallest i with f({1..i}) = {1..i}, is the first sharp factor's degree


def test_delta_examples():
    assert sharp_factorize(P(2, 1, 3))[0].degree == 2
    assert sharp_factorize(P(2, 3, 1))[0].degree == 3
    assert sharp_factorize(P(1, 2, 3))[0].degree == 1


def test_delta_matches_oracle():
    for n in range(1, 8):
        for f in all_perms(n):
            assert sharp_factorize(f)[0].degree == oracle_delta(f)


def test_delta_split():
    # delta < degree forces the two-block split; delta = degree means indecomposable
    for n in range(1, 8):
        for f in all_perms(n):
            d = sharp_factorize(f)[0].degree
            if d < n:
                head = Permutation(f.images[:d])
                tail = Permutation(tuple(v - d for v in f.images[d:]))
                assert sharp(head, tail) == f
            else:
                assert is_indecomposable(f, IndecKind.SHARP)


def test_sharp_factorize_examples():
    assert sharp_factorize(P(3, 1, 2, 6, 5, 4)) == (P(3, 1, 2), P(3, 2, 1))
    assert sharp_factorize(P(1, 2, 3)) == (P(1), P(1), P(1))
    assert sharp_factorize(P(2, 1)) == (P(2, 1),)


def test_natural_factorize_examples():
    assert natural_factorize(P(2, 1)) == (P(1), P(1))
    assert natural_factorize(P(3, 1, 2)) == (P(1), P(1, 2))
    assert natural_factorize(P(2, 4, 1, 3)) == (P(2, 4, 1, 3),)


def test_factorizations_round_trip():
    for n in range(1, 8):
        for f in all_perms(n):
            sf = sharp_factorize(f)
            assert reduce(sharp, sf) == f
            assert all(oracle_sharp_indec(g) for g in sf)
            nf = natural_factorize(f)
            assert reduce(natural, nf) == f
            assert all(oracle_natural_indec(g) for g in nf)


def test_factorization_is_a_bijection():
    # sequences of indecomposables with degrees summing to n biject with all
    # degree-n permutations under the corresponding product
    for n in range(1, 8):
        built = set()
        for k in range(1, n + 1):
            for comp in _compositions(n, k):
                pools = [
                    enumerate_indecomposable(m, IndecKind.SHARP) for m in comp
                ]
                for seq in itertools.product(*pools):
                    built.add(reduce(sharp, seq))
        assert len(built) == len(all_perms(n))


def _compositions(total, parts):
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


# --- indecomposability ---------------------------------------------------------------


def test_is_indecomposable_examples():
    assert is_indecomposable(P(2, 3, 1), IndecKind.SHARP)
    assert not is_indecomposable(P(3, 1, 2), IndecKind.S2)
    assert not is_indecomposable(P(1, 2), IndecKind.SHARP)


def test_degree_one_indecomposable_every_kind():
    for kind in IndecKind:
        assert is_indecomposable(P(1), kind)


def test_indecomposable_matches_oracles():
    for n in range(1, 9):
        slices = {kind: [] for kind in IndecKind}
        for f in all_perms(n):
            sharp_indec, natural_indec = oracle_sharp_indec(f), oracle_natural_indec(f)
            for kind, indec in (
                (IndecKind.SHARP, sharp_indec),
                (IndecKind.NATURAL, natural_indec),
                (IndecKind.S2, sharp_indec and natural_indec),
            ):
                assert is_indecomposable(f, kind) == indec, (kind, f)
                if indec:
                    slices[kind].append(f)
        for kind, indecomposables in slices.items():
            assert enumerate_indecomposable(n, kind) == tuple(indecomposables), (kind, n)


# A linear reference on long inputs: the running prefix extrema.  f({1..i})
# is {1..i} exactly when the running maximum is i, and {n-i+1..n} exactly
# when the running minimum exceeds n - i.


def scan_sharp_indec(images):
    top = 0
    for i, v in enumerate(images[:-1], 1):
        top = max(top, v)
        if top == i:
            return False
    return True


def scan_natural_indec(images):
    n = len(images)
    low = n + 1
    for i, v in enumerate(images[:-1], 1):
        low = min(low, v)
        if low > n - i:
            return False
    return True


def test_indecomposable_matches_the_prefix_extrema_scan_on_long_inputs():
    n = 10**5
    rng = random.Random(24)
    shuffled = [Permutation(rng.sample(range(1, 10**4 + 1), 10**4)) for _ in range(6)]
    cases = [
        Permutation(range(1, n + 1)),
        Permutation(range(n, 0, -1)),
        nest_images(alternating(n - 1)),
        *shuffled,
        sharp(shuffled[0], shuffled[1]),
        natural(shuffled[2], shuffled[3]),
        sharp(natural(shuffled[4], P(1)), shuffled[5]),
    ]
    for f in cases:
        sharp_indec, natural_indec = scan_sharp_indec(f.images), scan_natural_indec(f.images)
        assert is_indecomposable(f, IndecKind.SHARP) == sharp_indec
        assert is_indecomposable(f, IndecKind.NATURAL) == natural_indec
        assert is_indecomposable(f, IndecKind.S2) == (sharp_indec and natural_indec)


def test_enumerate_indecomposable_exact_sets():
    assert enumerate_indecomposable(2, IndecKind.SHARP) == (P(2, 1),)
    assert enumerate_indecomposable(3, IndecKind.SHARP) == (
        P(2, 3, 1),
        P(3, 1, 2),
        P(3, 2, 1),
    )
    assert enumerate_indecomposable(4, IndecKind.S2) == (P(2, 4, 1, 3), P(3, 1, 4, 2))
    assert enumerate_indecomposable(2, IndecKind.S2) == ()
    assert enumerate_indecomposable(3, IndecKind.S2) == ()


def test_enumerate_bounds():
    with pytest.raises(BoundExceeded):
        enumerate_indecomposable(9, IndecKind.SHARP)
    with pytest.raises(BoundExceeded):
        enumerate_permutations(9)
    with pytest.raises(InvalidDegree):
        enumerate_permutations(0)


@pytest.mark.parametrize("n", [9, 0])
def test_enumerate_indecomposable_checks_the_degree_before_any_work(monkeypatch, n):
    def forbidden(*args):
        raise AssertionError("a slice was built for a degree out of bounds")

    monkeypatch.setattr(permutations, "_all_permutations", forbidden)
    monkeypatch.setattr(permutations, "_dot_cuts", forbidden)
    for kind in IndecKind:
        if n > 8:
            with pytest.raises(BoundExceeded, match="^degree 9 exceeds the enumeration bound 8$"):
                enumerate_indecomposable(n, kind)
        else:
            with pytest.raises(InvalidDegree):
                enumerate_indecomposable(n, kind)
    # the kind is checked before the degree
    with pytest.raises(TypeError, match="IndecKind.SHARP, IndecKind.NATURAL or IndecKind.S2"):
        enumerate_indecomposable(n, "s2")


def test_slices_select_what_the_cut_scan_selects(monkeypatch):
    # two independent routes: is_indecomposable scans each permutation with
    # _cut, and the slices are built from the prefix masks with _cut disabled
    scanned = {
        (n, kind): tuple(f for f in enumerate_permutations(n) if is_indecomposable(f, kind))
        for n in range(1, 9)
        for kind in IndecKind
    }

    def forbidden(*args):
        raise AssertionError("a slice scanned a permutation for its cuts")

    monkeypatch.setattr(permutations, "_cut", forbidden)
    _dot_cuts.cache_clear()
    for (n, kind), expected in scanned.items():
        assert enumerate_indecomposable(n, kind) == expected, (n, kind)


def test_natural_slice_is_the_sharp_slice_under_xi():
    # xi swaps the two products and reverses the lexicographic slice
    for n in range(1, 9):
        sharp_slice = enumerate_indecomposable(n, IndecKind.SHARP)
        assert enumerate_indecomposable(n, IndecKind.NATURAL) == tuple(map(xi, reversed(sharp_slice))), n
        assert tuple(map(xi, enumerate_permutations(n))) == enumerate_permutations(n)[::-1], n


def test_dot_cut_masks_are_the_prefix_sets():
    for n in range(1, 8):
        expected = tuple(
            sum(1 << (i - 1) for i in range(1, n) if set(f.images[:i]) == set(range(1, i + 1)))
            for f in enumerate_permutations(n)
        )
        assert _dot_cuts(n) == expected, n
        assert all(type(mask) is int and 0 <= mask < 1 << max(n - 1, 0) for mask in _dot_cuts(n))


def test_kind_must_be_a_member():
    # a string or None is rejected before the slices' cache is looked up
    cached = _dot_cuts.cache_info()
    for kind in ("sharp", "s2", None):
        with pytest.raises(TypeError, match="IndecKind.SHARP, IndecKind.NATURAL or IndecKind.S2"):
            is_indecomposable(P(2, 3, 1), kind)
        with pytest.raises(TypeError, match="IndecKind.SHARP, IndecKind.NATURAL or IndecKind.S2"):
            enumerate_indecomposable(3, kind)
        with pytest.raises(TypeError, match="IndecKind.SHARP, IndecKind.NATURAL or IndecKind.S2"):
            count_indecomposable(5, kind)
    assert _dot_cuts.cache_info() == cached


def test_chain_count_matches_scan():
    for kind in IndecKind:
        for n in range(1, 9):
            assert count_indecomposable(n, kind) == len(enumerate_indecomposable(n, kind)), (kind, n)


def test_doubly_indecomposable_slice_is_both_slices_intersected():
    for n in range(1, 9):
        sharp_set = set(enumerate_indecomposable(n, IndecKind.SHARP))
        natural_set = set(enumerate_indecomposable(n, IndecKind.NATURAL))
        both = [f for f in enumerate_permutations(n) if f in sharp_set and f in natural_set]
        assert list(enumerate_indecomposable(n, IndecKind.S2)) == both, n
        assert len(both) == count_indecomposable(n, IndecKind.S2)


def test_chain_count_bounds():
    with pytest.raises(BoundExceeded, match="degree 9 exceeds the enumeration bound 8"):
        count_indecomposable(9, IndecKind.SHARP)
    with pytest.raises(InvalidDegree):
        count_indecomposable(0, IndecKind.NATURAL)


def test_no_permutation_decomposes_both_ways():
    for n in range(1, 8):
        for f in all_perms(n):
            assert oracle_sharp_indec(f) or oracle_natural_indec(f)


def test_doubly_indec_count_formula():
    # d_n = 2 u_n - n!
    import math

    for n in range(1, 7):
        u = len(enumerate_indecomposable(n, IndecKind.SHARP))
        d = len(enumerate_indecomposable(n, IndecKind.S2))
        assert d == 2 * u - math.factorial(n)


# --- the normal form over doubly indecomposables -----------------------------------


def test_duplex_factorize_examples():
    e = leaf_expr(P(1))
    assert duplex_factorize(P(1, 2)) == dot(e, e)
    assert duplex_factorize(P(3, 1, 2)) == star(e, dot(e, e))
    assert duplex_factorize(P(2, 4, 1, 3)) == leaf_expr(P(2, 4, 1, 3))


def test_duplex_factorize_round_trip():
    for n in range(1, 6):
        for f in all_perms(n):
            x = duplex_factorize(f)
            assert multiply_out(x) == f
            assert all(is_indecomposable(lab, IndecKind.S2) for lab in x.labels)


def test_duplex_factorize_injective():
    for n in range(1, 6):
        forms = {duplex_factorize(f) for f in all_perms(n)}
        assert len(forms) == len(all_perms(n))


def test_not_a_dimonoid_witness():
    e = P(1)
    assert natural(sharp(e, e), e) == P(2, 3, 1)
    assert sharp(e, natural(e, e)) == P(1, 3, 2)
    assert natural(sharp(e, e), e) != sharp(e, natural(e, e))


def test_multiply_out_matches_eval_hom():
    # eval_hom into PERM_OPS builds every product; multiply_out places blocks
    rng = random.Random(6)
    for n in range(1, 8):
        for t in enumerate_decorated(n):
            labels = [Permutation(tuple(rng.sample(range(1, k + 1), k))) for k in rng.choices((1, 2, 3), k=n)]
            x = DuplexExpr(t, labels)
            assert multiply_out(x) == eval_hom(x, {lab: lab for lab in labels}, PERM_OPS)
    for n in range(1, 8):
        for f in all_perms(n):
            x = duplex_factorize(f)
            assert eval_hom(x, {lab: lab for lab in x.labels}, PERM_OPS) == f


def test_library_built_permutations_are_valid():
    # these skip the constructor's check, so check their images here
    small = [f for n in range(1, 5) for f in all_perms(n)]
    for f in small:
        _validate_images(xi(f).images)
        for g in sharp_factorize(f) + natural_factorize(f):
            _validate_images(g.images)
        for g in small:
            _validate_images(sharp(f, g).images)
            _validate_images(natural(f, g).images)
    for n in range(1, 8):
        for f in all_perms(n):
            _validate_images(f.images)
            x = duplex_factorize(f)
            for label in x.labels:
                _validate_images(label.images)
            _validate_images(multiply_out(x).images)
