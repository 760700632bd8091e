"""Deep and long inputs: the normal forms read a tree's text in one loop,
and trees compare and hash as strings, so nesting far past the
interpreter's recursion limit must work.  Op words and their nests are
described in conftest.py.
"""
import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ONE, alternating, nest_images, nest_permutation, nest_text
from duplexes.binary_trees import BINARY_OPS, SINGLE_NODE, eval_duplexes1, format_binary, parse_binary
from duplexes.cubes import CUBE_OPS, SINGLETON, CubeVertex
from duplexes.decorated_trees import (
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
from duplexes.morphisms import alpha, leaf_sign_vector, phi, rho
from duplexes.permutations import (
    PERM_OPS,
    Permutation,
    duplex_factorize,
    format_permutation,
    multiply_out,
    natural_factorize,
    sharp_factorize,
)

DEEP = 10**4
PAST_LIMIT = 1200  # nesting depth of the permutation cases


def nest_signs(word):
    return CubeVertex(tuple(-1 if op == "." else 1 for op in word))


def test_nest_text_matches_the_small_cases():
    assert nest_text("") == "e"
    assert nest_text("..") == "e.e.e"
    assert nest_text(".*") == "(e.e)*e"
    assert nest_text(".*.") == "((e.e)*e).e"


def test_parse_format_round_trip_at_depth():
    text = nest_text(alternating(DEEP))
    x = parse_expr(text, "e")
    assert x.degree == DEEP + 1
    assert format_expr(x) == text


# parse_expr writes each tree's text once, so 10 times DEEP is quick
VERY_DEEP = 10 * DEEP


def test_parse_shapes_at_great_depth():
    text = nest_text(alternating(VERY_DEEP))
    x = parse_expr(text, "e")
    assert x.degree == VERY_DEEP + 1
    assert format_expr(x) == text
    # a group with its parent's operator is contracted into it
    x = parse_expr("e.(" * VERY_DEEP + "e" + ")" * VERY_DEEP, "e")
    assert x.tree.tag is Tag.DOT and x.tree.text == "(" + "|" * (VERY_DEEP + 1) + ")"
    # a group without an operator is transparent
    assert parse_expr("(" * VERY_DEEP + "e" + ")" * VERY_DEEP, "e") == leaf_expr("e")


def test_eval_hom_and_leaf_signs_at_depth():
    word = alternating(DEEP)
    x = parse_expr(nest_text(word), "e")
    want = nest_signs(word)
    assert leaf_sign_vector(x) == want
    assert eval_hom(x, {"e": SINGLETON}, CUBE_OPS) == want


def test_long_chain_round_trip():
    text = ".".join(["e"] * DEEP)
    x = parse_expr(text, "e")
    assert len(x.tree.shape.children) == DEEP
    assert format_expr(x) == text
    assert leaf_sign_vector(x) == CubeVertex((-1,) * (DEEP - 1))


def right_nest_text(word):
    """The mirror image of the nest: e o1 (e o2 (... (e ok e)))."""
    return "".join("e" + op + "(" for op in word[:-1]) + "e" + word[-1] + "e" + ")" * (len(word) - 1)


def test_binary_tree_morphisms_at_depth():
    # the left alternating nest is the worst case for a nodewise fold into
    # the cube; the chain and the right nest fold in long runs
    word = alternating(DEEP)
    for text in (".".join(["e"] * DEEP), nest_text(word), right_nest_text(word)):
        x = parse_expr(text, "e")
        assert phi(rho(x)) == leaf_sign_vector(x)
    assert phi(rho(parse_expr(nest_text(word), "e"))) == nest_signs(word)


def test_rho_equals_the_fold_into_binary_trees_at_depth():
    word = alternating(DEEP)
    for text in (nest_text(word), right_nest_text(word), ".".join(["e"] * DEEP), "*".join(["e"] * DEEP)):
        x = parse_expr(text, "e")
        assert rho(x) == eval_hom(x, {"e": SINGLE_NODE}, BINARY_OPS)


def test_phi_matches_the_generic_fold_at_moderate_depth():
    word = alternating(1000)
    combs = (".".join(["e"] * 1000), "*".join(["e"] * 1000))
    for text in (*combs, nest_text(word), right_nest_text(word), nest_text("..**" * 250)):
        u = rho(parse_expr(text, "e"))
        assert phi(u) == eval_duplexes1(u, SINGLETON, CUBE_OPS)


def test_deep_trees_compare_and_hash_equal():
    # rho of a chain is a left comb DEEP levels deep; build it twice
    text = ".".join(["e"] * DEEP)
    u, v = rho(parse_expr(text, "e")), rho(parse_expr(text, "e"))
    assert u == v
    assert hash(u) == hash(v)


def test_deep_expressions_compare_and_hash_equal():
    text = nest_text(alternating(DEEP))
    x, y = parse_expr(text, "e"), parse_expr(text, "e")
    assert x == y
    assert hash(x) == hash(y)


def test_deep_binary_tree_round_trip():
    u = rho(parse_expr(nest_text(alternating(DEEP)), "e"))
    assert parse_binary(format_binary(u)) == u


def test_factorize_multiply_out_past_the_recursion_limit():
    assert PAST_LIMIT > sys.getrecursionlimit()
    word = alternating(PAST_LIMIT)
    f = nest_permutation(word)
    x = duplex_factorize(f)
    assert set(x.labels) == {ONE}
    assert format_expr(x, lambda _label: "e") == nest_text(word)
    assert multiply_out(x) == f
    assert alpha(parse_expr(nest_text(word), "e")) == f


def test_nest_images_match_the_products():
    for word in ("", ".", "*", ".*", "*.", "..**.*", alternating(300), "**." * 100):
        assert nest_images(word) == nest_permutation(word)


def test_factorize_multiply_out_at_depth():
    word = alternating(DEEP)
    f = nest_images(word)
    x = duplex_factorize(f)
    assert set(x.labels) == {ONE}
    assert format_expr(x, lambda _label: "e") == nest_text(word)
    assert multiply_out(x) == f
    assert alpha(parse_expr(nest_text(word), "e")) == f


def test_block_sum_factorizations_of_long_chains():
    # every cut of the identity and of the reversal takes off one point
    assert sharp_factorize(Permutation(range(1, DEEP + 1))) == (ONE,) * DEEP
    assert natural_factorize(Permutation(range(DEEP, 0, -1))) == (ONE,) * DEEP


def random_nest(rng, depth, labels):
    """An expression nested ``depth`` levels: each level joins the nest so
    far, on a random side, with a random expression of degree <= 3."""
    small = [t for n in (1, 2, 3) for t in enumerate_decorated(n)]
    x = leaf_expr(rng.choice(labels))
    for _ in range(depth):
        t = rng.choice(small)
        y = DuplexExpr(t, [rng.choice(labels) for _ in range(t.degree)])
        op = rng.choice((dot, star))
        x = op(x, y) if rng.random() < 0.5 else op(y, x)
    return x


def test_multiply_out_and_alpha_match_eval_hom_on_random_nests():
    # eval_hom into PERM_OPS builds every product, the independent route
    rng = random.Random(300)
    perms = [Permutation(p) for p in ((1,), (2, 1), (1, 2), (2, 3, 1), (2, 4, 1, 3))]
    for depth in (1, 2, 5, 30, 100, 300):
        for _ in range(4):
            x = random_nest(rng, depth, perms)
            want = eval_hom(x, {p: p for p in perms}, PERM_OPS)
            assert multiply_out(x) == want, format_expr(x, format_permutation)
            e = DuplexExpr(x.tree, ["e"] * x.degree)
            assert alpha(e) == eval_hom(e, {"e": ONE}, PERM_OPS), format_expr(e)


def words(depth):
    """Op words whose nests have exactly ``depth`` levels: ``depth`` runs of
    alternating operators, each run one or two long by one drawn bit.
    Hypothesis shrinks toward the all-ones-runs word ``alternating(depth)``."""
    def word(data):
        bits = (byte >> k & 1 for byte in data for k in range(8))
        return "".join(".*"[run % 2] * (1 + bit) for run, bit in zip(range(depth), bits))

    size = -(-depth // 8)
    return st.binary(min_size=size, max_size=size).map(word)


@settings(max_examples=5, deadline=None)
@given(words(DEEP))
def test_random_words_round_trip_at_depth(word):
    text = nest_text(word)
    assert text.count("(") == DEEP - 1
    x = parse_expr(text, "e")
    assert format_expr(x) == text
    assert leaf_sign_vector(x) == nest_signs(word)


@settings(max_examples=5, deadline=None)
@given(words(PAST_LIMIT))
def test_random_words_factorize_past_the_recursion_limit(word):
    assert nest_text(word).count("(") == PAST_LIMIT - 1
    f = nest_permutation(word)
    x = duplex_factorize(f)
    assert format_expr(x, lambda _label: "e") == nest_text(word)
    assert multiply_out(x) == f


@settings(max_examples=5, deadline=None)
@given(words(DEEP))
def test_random_words_factorize_at_depth(word):
    f = nest_images(word)
    x = duplex_factorize(f)
    text = format_expr(x, lambda _label: "e")
    assert text == nest_text(word)
    assert multiply_out(x) == f
    assert alpha(parse_expr(text, "e")) == f
