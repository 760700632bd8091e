"""Deep and long inputs: the normal forms read a tree's text in one loop,
and trees compare and hash as strings, so nesting far past the
interpreter's recursion limit must work.  Op words and their nests are
described in conftest.py.
"""
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ONE, alternating, nest_permutation, nest_text
from duplexes.binary_trees import format_binary, parse_binary
from duplexes.cubes import CUBE_OPS, SINGLETON, CubeVertex
from duplexes.decorated_trees import eval_hom, format_expr, parse_expr
from duplexes.morphisms import alpha, leaf_sign_vector, phi, rho
from duplexes.permutations import duplex_factorize, multiply_out

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


def test_binary_tree_morphisms_at_depth():
    for text in (".".join(["e"] * DEEP), nest_text(alternating(DEEP))):
        x = parse_expr(text, "e")
        assert phi(rho(x)) == leaf_sign_vector(x)


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
