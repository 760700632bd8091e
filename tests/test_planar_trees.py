import gc
import re
import signal
from math import comb, log2, pi, sqrt

import pytest
from hypothesis import given

from conftest import graft_contract, planar_tree_strategy, sort_key
from duplexes.binary_trees import _binary_texts, enumerate_binary
from duplexes.cubes import CubeVertex
from duplexes.decorated_trees import DecoratedTree, enumerate_decorated
from duplexes.errors import ArityTooSmall, BoundExceeded, InvalidDegree, ParseError
from duplexes.planar_trees import (
    LEAF,
    PlanarTree,
    _super_catalans,
    _tree_texts,
    enumerate_trees,
    format_tree,
    leaf_count,
    parse_tree,
    super_catalan,
)

CORROLA3 = PlanarTree([LEAF, LEAF, LEAF])
FORK = PlanarTree([LEAF, PlanarTree([LEAF, LEAF])])  # 3 leaves, second branch splits

# counts established by exhaustive generation (see test_counts_agree)
TREE_COUNTS = [1, 1, 3, 11, 45, 197, 903, 4279]


def test_graft_two_leaves():
    t = PlanarTree([LEAF, LEAF])
    assert leaf_count(t) == 2
    assert t.text.count("(") == 1
    assert enumerate_trees(2) == (t,)


def test_graft_figure_example():
    t = PlanarTree([CORROLA3, FORK])
    assert leaf_count(t) == 6
    assert t.text.count("(") == 4
    assert format_tree(t) == "((|||)(|(||)))"


def test_graft_recovers_children():
    for n in range(2, 6):
        for t in enumerate_trees(n):
            assert PlanarTree(t.children) == t


def test_graft_arity():
    with pytest.raises(ArityTooSmall):
        PlanarTree((LEAF,))
    assert PlanarTree(()) == LEAF


def test_graft_takes_only_planar_trees():
    # anything else with a .text, a cube vertex or a decorated tree, would
    # splice its text into a tree that is not one
    for child in (CubeVertex((1,)), DecoratedTree(LEAF, None), "|", None):
        with pytest.raises(TypeError, match=f"^children must be PlanarTree values, got {re.escape(repr(child))}$"):
            PlanarTree((child, LEAF))


def test_graft_contract_examples():
    assert graft_contract({1}, [CORROLA3, FORK]) == PlanarTree([LEAF, LEAF, LEAF, FORK])
    assert graft_contract({1, 2}, [CORROLA3, FORK]) == PlanarTree(
        [LEAF, LEAF, LEAF, LEAF, PlanarTree([LEAF, LEAF])]
    )
    assert graft_contract(set(), [LEAF, LEAF]) == PlanarTree([LEAF, LEAF])


def test_graft_contract_errors():
    with pytest.raises(ValueError, match="^cannot contract the root edge of the leaf at position 1$"):
        graft_contract({1}, [LEAF, FORK])
    with pytest.raises(ArityTooSmall):
        graft_contract(set(), [LEAF])
    with pytest.raises(ValueError):
        graft_contract({3}, [LEAF, LEAF])


def test_graft_contract_keeps_leaves_drops_vertices():
    # contracting |I| edges removes |I| vertices and no leaves
    trees = enumerate_trees(3)
    for t1 in trees:
        for t2 in trees:
            for positions in ([], [1], [2], [1, 2]):
                if any((t1, t2)[i - 1].is_leaf for i in positions):
                    continue
                out = graft_contract(positions, [t1, t2])
                assert leaf_count(out) == leaf_count(t1) + leaf_count(t2)
                expected = 1 + t1.text.count("(") + t2.text.count("(") - len(positions)
                assert out.text.count("(") == expected


@given(planar_tree_strategy(6), planar_tree_strategy(6))
def test_leaf_count_additive(t1, t2):
    assert leaf_count(PlanarTree([t1, t2])) == leaf_count(t1) + leaf_count(t2)


def test_enumerate_counts():
    for n, count in enumerate(TREE_COUNTS, 1):
        assert len(enumerate_trees(n)) == count


def test_enumerate_well_formed():
    for n in range(1, 7):
        ts = enumerate_trees(n)
        assert len(set(ts)) == len(ts)
        assert all(leaf_count(t) == n for t in ts)
        assert list(ts) == sorted(ts, key=sort_key)


def test_enumerate_bounds():
    with pytest.raises(BoundExceeded, match="^degree 11 exceeds the enumeration bound 10$"):
        enumerate_trees(11)
    with pytest.raises(InvalidDegree, match="^degree must be >= 1, got 0$"):
        enumerate_trees(0)


SLICES = ((enumerate_trees, 10), (enumerate_binary, 10), (enumerate_decorated, 8))


def test_slice_caches_keep_texts_not_trees():
    # the caches hold canonical texts, so the trees of a slice die with the
    # caller's last reference to it, and each call builds them afresh
    def alive():
        return sum(1 for o in gc.get_objects() if o.__class__ is PlanarTree or o.__class__ is DecoratedTree)

    gc.collect()
    before = alive()
    slices = [enumerate_slice(n) for enumerate_slice, bound in SLICES for n in range(1, bound + 1)]
    assert sum(map(len, slices)) > 150_000
    del slices
    gc.collect()
    assert alive() <= before
    for texts, degrees in ((_tree_texts, range(1, 11)), (_binary_texts, range(11))):
        for n in degrees:
            assert all(text.__class__ is str for text in texts(n))
    for enumerate_slice, bound in SLICES:
        for n in range(1, bound + 1):
            first = enumerate_slice(n)
            second = enumerate_slice(n)
            assert second == first and second is not first


def test_super_catalan_values():
    assert [super_catalan(n) for n in range(1, 9)] == TREE_COUNTS
    with pytest.raises(InvalidDegree):
        super_catalan(0)


def grafting_counts(order):
    """[0, s_1, .., s_order] by the grafting sum, the reference for the
    library's recurrence: a tree of n >= 2 leaves is a first child of f
    leaves followed by an ordered sequence of >= 1 trees with n - f leaves,
    one tree or the children of an internal tree.  That is 1 sequence for
    1 leaf and 2 * s_k for k >= 2."""
    counts = [0, 1]
    for n in range(2, order + 1):
        counts.append(counts[n - 1] + 2 * sum(counts[f] * counts[n - f] for f in range(1, n - 1)))
    return counts


def test_super_catalan_recurrence_matches_the_grafting_sum():
    counts = grafting_counts(400)
    assert list(_super_catalans(400)) == counts[1:]
    assert [super_catalan(n) for n in range(1, 401)] == counts[1:]
    assert list(_super_catalans(0)) == []


def test_super_catalan_cold_call_matches_closed_form():
    # little Schroeder number s_m = (1/m) sum_k C(m,k) C(m+k,k-1), m = n - 1
    m = 999
    closed_form, remainder = divmod(sum(comb(m, k) * comb(m + k, k - 1) for k in range(1, m + 1)), m)
    assert remainder == 0
    assert super_catalan(1000) == closed_form


class TimedOut(BaseException):
    """Raised by the alarm; a ``BaseException`` so no handler swallows it."""


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_super_catalan_of_a_large_degree_is_linear_in_steps():
    def on_alarm(signum, frame):
        raise TimedOut("super_catalan(20000) ran past 5 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        count = super_catalan(20000)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # s_n ~ sqrt(3 sqrt 2 - 4) (3 + 2 sqrt 2)^n / (4 sqrt(pi) n^(3/2)), OEIS A001003
    n = 20000
    estimate = log2(sqrt(3 * sqrt(2) - 4) / (4 * sqrt(pi))) + n * log2(3 + 2 * sqrt(2)) - 1.5 * log2(n)
    assert abs(log2(count) - estimate) < 1e-3


def test_counts_agree():
    for n in range(1, 11):
        assert super_catalan(n) == len(enumerate_trees(n))


def test_format_examples():
    assert format_tree(LEAF) == "|"
    assert format_tree(PlanarTree([LEAF, LEAF])) == "(||)"
    assert format_tree(CORROLA3) == "(|||)"
    assert str(FORK) == "(|(||))"


def test_parse_round_trip():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert parse_tree(format_tree(t)) == t


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_tree("(|)")  # unary vertex
    with pytest.raises(ParseError):
        parse_tree("(||")  # unbalanced
    with pytest.raises(ParseError):
        parse_tree("||")  # trailing input
    with pytest.raises(ParseError):
        parse_tree("x")


@given(planar_tree_strategy(8))
def test_parse_format_round_trip_random(t):
    assert parse_tree(format_tree(t)) == t
