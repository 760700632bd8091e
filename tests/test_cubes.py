import itertools
from functools import reduce

import pytest

from conftest import compositions
from duplexes.cubes import (
    CUBE_OPS,
    SINGLETON,
    CubeVertex,
    cube_dot,
    cube_star,
    enumerate_cubes,
    format_cube,
    parse_cube,
)
from duplexes.errors import BoundExceeded, InvalidDegree, ParseError

E = SINGLETON


def V(*signs):
    return CubeVertex(signs)


def test_all_eight_defining_products():
    a = V(1, -1)
    b = V(-1)
    assert cube_dot(E, E) == V(-1)
    assert cube_star(E, E) == V(1)
    assert cube_dot(E, a) == V(-1, 1, -1)
    assert cube_dot(a, E) == V(1, -1, -1)
    assert cube_star(E, a) == V(1, 1, -1)
    assert cube_star(a, E) == V(1, -1, 1)
    assert cube_dot(a, b) == V(1, -1, -1, -1)
    assert cube_star(a, b) == V(1, -1, 1, -1)


def test_degrees_add():
    assert cube_dot(V(1, 1), V(-1)).degree == 5
    assert E.degree == 1


def test_sign_validation():
    with pytest.raises(ValueError):
        CubeVertex((0,))
    for signs in ((1.0, -1.0), ("1",)):
        with pytest.raises(TypeError):
            CubeVertex(signs)
    assert CubeVertex([1, -1]).signs == (1, -1)


def test_words():
    # the words e op1 e op2 ... e, folded from the left, in the order dot < star,
    # spell the slice in enumeration order: position i is -1 for dot, +1 for star
    for n in range(1, 6):
        values = tuple(
            reduce(lambda a, op: op(a, E), word, E)
            for word in itertools.product(CUBE_OPS, repeat=n - 1)
        )
        assert values == enumerate_cubes(n)


def test_both_mixed_identities_small():
    for total in range(3, 7):
        for d1, d2, d3 in compositions(total, 3):
            for a in enumerate_cubes(d1):
                for b in enumerate_cubes(d2):
                    for c in enumerate_cubes(d3):
                        assert cube_star(cube_dot(a, b), c) == cube_dot(a, cube_star(b, c))
                        assert cube_dot(cube_star(a, b), c) == cube_star(a, cube_dot(b, c))
                        assert cube_dot(cube_dot(a, b), c) == cube_dot(a, cube_dot(b, c))
                        assert cube_star(cube_star(a, b), c) == cube_star(a, cube_star(b, c))


def test_generation_counts():
    layers = {1: {E}}
    for total in range(2, 8):
        layer = set()
        for d1 in range(1, total):
            for x in layers[d1]:
                for y in layers[total - d1]:
                    layer.add(CUBE_OPS.dot(x, y))
                    layer.add(CUBE_OPS.star(x, y))
        layers[total] = layer
        assert layer == set(enumerate_cubes(total))
        assert len(layer) == 2 ** (total - 1)


def test_enumerate():
    assert enumerate_cubes(1) == (E,)
    assert enumerate_cubes(2) == (V(-1), V(1))
    assert len(enumerate_cubes(6)) == 32
    with pytest.raises(InvalidDegree):
        enumerate_cubes(0)
    with pytest.raises(BoundExceeded):
        enumerate_cubes(17)


def test_format_is_the_plain_join():
    # the stored text against the per-sign join, over every slice
    assert format_cube(E) == "e"
    for n in range(2, 17):
        for a in enumerate_cubes(n):
            assert format_cube(a) == "<" + ",".join("+1" if s == 1 else "-1" for s in a.signs) + ">"


def test_text_format():
    assert format_cube(E) == "e"
    assert format_cube(V(-1, 1)) == "<-1,+1>"
    assert str(V(-1, 1)) == "<-1,+1>"
    assert parse_cube("e") == E
    assert parse_cube("<-1,+1>") == V(-1, 1)
    assert parse_cube("<1,-1>") == V(1, -1)
    for n in range(1, 5):
        for a in enumerate_cubes(n):
            assert parse_cube(format_cube(a)) == a
    with pytest.raises(ParseError):
        parse_cube("<-1,0>")
    with pytest.raises(ParseError):
        parse_cube("<- 1>")
    with pytest.raises(ParseError):
        parse_cube("1,-1")


def test_parse_holds_the_canonical_text():
    # a vertex is its text: whitespace goes and an unsigned 1 is +1, so the
    # parse equals, hashes and prints as the validated vertex
    a = parse_cube(" < 1 , -1 > ")
    assert a.text == "<+1,-1>" == format_cube(a)
    assert (a, hash(a), repr(a)) == (V(1, -1), hash(V(1, -1)), repr(V(1, -1)))
    assert parse_cube(" e ").text == "e"
