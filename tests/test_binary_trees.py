import pytest

from conftest import compositions, sort_key
from duplexes.binary_trees import (
    BINARY_OPS,
    SINGLE_NODE,
    catalan,
    degree,
    enumerate_binary,
    eval_duplexes1,
    format_binary,
    over,
    parse_binary,
    split,
    under,
)
from duplexes.cubes import CUBE_OPS, CubeVertex, SINGLETON
from duplexes.errors import BoundExceeded, InvalidDegree, ParseError, StubNotSplittable
from duplexes.planar_trees import LEAF, PlanarTree

E = SINGLE_NODE
LEFT_COMB_2 = PlanarTree((E, LEAF))
RIGHT_COMB_2 = PlanarTree((LEAF, E))

CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430]


def binaries(n):
    return enumerate_binary(n)


def test_over_examples():
    assert over(E, E) == LEFT_COMB_2
    assert over(LEFT_COMB_2, LEAF) == LEFT_COMB_2
    assert over(LEAF, E) == E
    assert over(over(E, E), E) == PlanarTree((PlanarTree((E, LEAF)), LEAF))


def test_under_examples():
    assert under(E, E) == RIGHT_COMB_2
    assert under(LEAF, LEFT_COMB_2) == LEFT_COMB_2
    assert under(RIGHT_COMB_2, LEAF) == RIGHT_COMB_2
    assert under(over(E, E), E) == PlanarTree((E, E))


def test_degrees_add():
    for d1 in range(1, 4):
        for d2 in range(1, 4):
            for u in binaries(d1):
                for v in binaries(d2):
                    assert degree(over(u, v)) == d1 + d2
                    assert degree(under(u, v)) == d1 + d2


def test_split():
    assert split(E) == (LEAF, LEAF)
    assert split(LEFT_COMB_2) == (E, LEAF)
    assert split(RIGHT_COMB_2) == (LEAF, E)
    with pytest.raises(StubNotSplittable):
        split(LEAF)


def test_associativity_and_mixed_identity():
    # associativity of both products and (a.b)*c = a.(b*c), total degree <= 6
    for total in range(3, 7):
        for d1, d2, d3 in compositions(total, 3):
            for a in binaries(d1):
                for b in binaries(d2):
                    for c in binaries(d3):
                        assert over(over(a, b), c) == over(a, over(b, c))
                        assert under(under(a, b), c) == under(a, under(b, c))
                        assert under(over(a, b), c) == over(a, under(b, c))


def test_branch_laws():
    # how the products interact with the root split, total degree <= 6
    for d1 in range(1, 6):
        for d2 in range(1, 7 - d1):
            for u in binaries(d1):
                for v in binaries(d2):
                    u_left, u_right = split(u)
                    v_left, v_right = split(v)
                    assert split(over(u, v)) == (over(u, v_left), v_right)
                    assert split(under(u, v)) == (u_left, under(u_right, v))


def test_grafting_claim():
    # (a.e)*b grafts a and b under a fresh root, stubs included
    pool = [LEAF] + [u for n in range(1, 5) for u in binaries(n)]
    for a in pool:
        for b in pool:
            assert under(over(a, E), b) == PlanarTree((a, b))


def test_reconstruction():
    for n in range(1, 6):
        for u in binaries(n):
            left, right = split(u)
            assert under(over(left, E), right) == u
            assert over(left, under(E, right)) == u


def test_eval_examples():
    # the one-node tree maps straight to the assigned value
    assert eval_duplexes1(E, "a", BINARY_OPS) == "a"
    assert eval_duplexes1(E, SINGLETON, CUBE_OPS) == SINGLETON
    assert eval_duplexes1(over(E, E), SINGLETON, CUBE_OPS) == CubeVertex((-1,))
    with pytest.raises(StubNotSplittable):
        eval_duplexes1(LEAF, SINGLETON, CUBE_OPS)


def test_eval_identity_homomorphism():
    for n in range(1, 5):
        for u in binaries(n):
            assert eval_duplexes1(u, E, BINARY_OPS) == u


def test_generation():
    layers = {1: {E}}
    for total in range(2, 7):
        layer = set()
        for d1 in range(1, total):
            for x in layers[d1]:
                for y in layers[total - d1]:
                    layer.add(over(x, y))
                    layer.add(under(x, y))
        layers[total] = layer
        assert layer == set(binaries(total))


def test_enumerate_counts():
    for n, c in enumerate(CATALAN[:6], 1):
        got = binaries(n)
        assert len(got) == c == catalan(n)
        assert all(degree(u) == n for u in got)


def test_enumerate_canonical_order():
    for n in range(1, 8):
        got = binaries(n)
        assert list(got) == sorted(got, key=sort_key)


def test_catalan_values():
    assert [catalan(n) for n in range(1, 9)] == CATALAN
    with pytest.raises(InvalidDegree):
        catalan(0)


def test_enumerate_bounds():
    with pytest.raises(BoundExceeded):
        enumerate_binary(11)
    with pytest.raises(InvalidDegree):
        enumerate_binary(0)


def test_text_format():
    assert format_binary(E) == "(||)"
    assert format_binary(LEFT_COMB_2) == "((||)|)"
    assert parse_binary("((||)|)") == LEFT_COMB_2
    for text in ("(|||)", "(|)", "((|||)|)"):
        with pytest.raises(ParseError):
            parse_binary(text)
    # the first offending vertex in preorder is named, not the first to close
    with pytest.raises(ParseError, match="a vertex has 5 children"):
        parse_binary("((|||)||||)")


def test_planar_round_trip():
    for n in range(1, 5):
        for u in binaries(n):
            assert parse_binary(format_binary(u)) == u
