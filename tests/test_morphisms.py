import random

import pytest

from duplexes.binary_trees import BINARY_OPS, SINGLE_NODE, enumerate_binary, over, under
from duplexes.cubes import CubeVertex, enumerate_cubes
from duplexes.decorated_trees import (
    DecoratedTree,
    DuplexExpr,
    Tag,
    dot,
    enumerate_decorated,
    eval_hom,
    format_expr,
    leaf_expr,
    parse_expr,
    star,
)
from duplexes.errors import StubNotSplittable
from duplexes.morphisms import alpha, leaf_sign_vector, phi, rho
from duplexes.permutations import Permutation, duplex_factorize, enumerate_permutations
from duplexes.planar_trees import LEAF

E = leaf_expr("e")


def expr(text):
    return parse_expr(text, {"e"})


def over_e(t):
    return DuplexExpr(t, ("e",) * t.degree, frozenset("e"))


def test_alpha_examples():
    assert alpha(E) == Permutation((1,))
    assert alpha(expr("e.e")) == Permutation((1, 2))
    assert alpha(expr("e*(e.e)")) == Permutation((3, 1, 2))


def test_alpha_preserves_degree():
    for n in range(1, 6):
        for t in enumerate_decorated(n):
            assert alpha(over_e(t)).degree == n


def test_rho_examples():
    assert rho(E) == SINGLE_NODE
    assert rho(expr("e.e")) == over(SINGLE_NODE, SINGLE_NODE)
    assert rho(expr("e*e")) == under(SINGLE_NODE, SINGLE_NODE)


def _rho_oracle(t):
    # structural recursion straight off the factorization, bypassing eval_hom:
    # the root's children, read at level 1, carry the opposite tag
    if t.tag is None:
        return SINGLE_NODE
    op = over if t.tag is Tag.DOT else under
    value = None
    for child in t.shape.children:
        image = _rho_oracle(DecoratedTree(child, None if child.is_leaf else t.tag.other))
        value = image if value is None else op(value, image)
    return value


def test_rho_matches_direct_recursion():
    for n in range(1, 7):
        for t in enumerate_decorated(n):
            assert rho(over_e(t)) == _rho_oracle(t)


def fold_into_binary_trees(x):
    # the route rho replaces: the nodewise fold into over and under
    return eval_hom(x, {"e": SINGLE_NODE}, BINARY_OPS)


def random_expr(rng, leaves):
    """A random bracketing of ``leaves`` generators: join a random pair of
    neighbours by a random product until one expression is left."""
    parts = [E] * leaves
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i : i + 2] = [rng.choice((dot, star))(parts[i], parts[i + 1])]
    return parts[0]


def test_rho_equals_the_fold_into_binary_trees():
    for n in range(1, 8):
        for t in enumerate_decorated(n):
            x = over_e(t)
            assert rho(x) == fold_into_binary_trees(x), format_expr(x)
    rng = random.Random(16)
    for _ in range(200):
        x = random_expr(rng, rng.randint(1, 40))
        assert rho(x) == fold_into_binary_trees(x), format_expr(x)


def test_rho_surjective_small():
    for n in range(1, 6):
        image = {rho(over_e(t)) for t in enumerate_decorated(n)}
        assert image == set(enumerate_binary(n))


def test_phi_examples():
    assert phi(SINGLE_NODE) == CubeVertex(())
    assert phi(over(SINGLE_NODE, SINGLE_NODE)) == CubeVertex((-1,))
    assert phi(under(SINGLE_NODE, SINGLE_NODE)) == CubeVertex((1,))
    with pytest.raises(StubNotSplittable):
        phi(LEAF)  # the stub is no element


def test_phi_surjective_small():
    for n in range(1, 7):
        image = {phi(u) for u in enumerate_binary(n)}
        assert image == set(enumerate_cubes(n))


def test_leaf_sign_examples():
    assert leaf_sign_vector(expr("e.e")) == CubeVertex((-1,))
    assert leaf_sign_vector(expr("e*e")) == CubeVertex((1,))
    assert leaf_sign_vector(expr("(e.e.e)*(e.(e*e))")) == CubeVertex((-1, -1, 1, -1, 1))
    assert leaf_sign_vector(E) == CubeVertex(()) == phi(rho(E))


def test_leaf_signs_equal_phi_rho():
    for n in range(2, 6):
        for t in enumerate_decorated(n):
            x = over_e(t)
            assert phi(rho(x)) == leaf_sign_vector(x)


def same_vertex(a):
    # the vertex phi or leaf_sign_vector wrote as text, against the validated one
    b = CubeVertex(a.signs)
    assert type(a) is CubeVertex
    assert (a, hash(a), repr(a)) == (b, hash(b), repr(b))


def test_written_vertices_equal_their_validated_rebuild():
    for n in range(1, 8):
        for u in enumerate_binary(n):
            same_vertex(phi(u))
    for n in range(1, 7):
        for t in enumerate_decorated(n):
            same_vertex(leaf_sign_vector(over_e(t)))


def test_alpha_and_rho_are_homomorphisms():
    from duplexes.permutations import natural, sharp

    for d1 in range(1, 4):
        for d2 in range(1, 5 - d1):
            for a in enumerate_decorated(d1):
                for b in enumerate_decorated(d2):
                    x, y = over_e(a), over_e(b)
                    assert alpha(dot(x, y)) == sharp(alpha(x), alpha(y))
                    assert alpha(star(x, y)) == natural(alpha(x), alpha(y))
                    assert rho(dot(x, y)) == over(rho(x), rho(y))
                    assert rho(star(x, y)) == under(rho(x), rho(y))


def test_phi_is_a_homomorphism():
    for d1 in range(1, 4):
        for d2 in range(1, 5 - d1):
            for u in enumerate_binary(d1):
                for v in enumerate_binary(d2):
                    assert phi(over(u, v)) == CubeVertex(phi(u).signs + (-1,) + phi(v).signs)
                    assert phi(under(u, v)) == CubeVertex(phi(u).signs + (1,) + phi(v).signs)


def test_single_generator_required():
    mixed = dot(leaf_expr("a"), leaf_expr("b"))
    with pytest.raises(ValueError, match="single-generator"):
        alpha(mixed)
    with pytest.raises(ValueError, match="single-generator"):
        rho(mixed)
    with pytest.raises(ValueError, match="single-generator"):
        leaf_sign_vector(mixed)


def test_alpha_inverts_factorization_on_identity_leaves():
    one = Permutation((1,))
    for n in range(1, 6):
        for f in enumerate_permutations(n):
            x = duplex_factorize(f)
            if set(x.labels) == {one}:
                relabeled = DuplexExpr(x.tree, ("e",) * n, frozenset("e"))
                assert alpha(relabeled) == f
