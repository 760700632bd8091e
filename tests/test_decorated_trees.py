import gc
import itertools
import pickle
import random
import re
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compositions, graft_contract, reference_parse_expr
from duplexes.binary_trees import parse_binary
from duplexes.cubes import CUBE_OPS, CubeVertex, SINGLETON, parse_cube
from duplexes.decorated_trees import (
    DecoratedTree,
    DuplexExpr,
    GENERATOR_TREE,
    Tag,
    dot,
    enumerate_decorated,
    eval_hom,
    expr_from_machine,
    expr_to_machine,
    format_expr,
    leaf_expr,
    parse_expr,
    star,
    tree_dot,
    tree_star,
    _all_decorated,
)
from duplexes.errors import (
    BoundExceeded,
    ExprSyntaxError,
    MixedChainError,
    ParseError,
    UnboundGenerator,
    UnknownGenerator,
)
from duplexes.permutations import PERM_OPS, Permutation, parse_permutation
from duplexes.planar_trees import LEAF, PlanarTree, parse_tree, super_catalan

E = leaf_expr("e")


def expr(text):
    return parse_expr(text, {"e"})


def decorated(n):
    return enumerate_decorated(n)


# --- the product case table -----------------------------------------------------


def test_products_of_two_leaves():
    two = PlanarTree([LEAF, LEAF])
    assert tree_dot(GENERATOR_TREE, GENERATOR_TREE) == DecoratedTree(two, Tag.DOT)
    assert tree_star(GENERATOR_TREE, GENERATOR_TREE) == DecoratedTree(two, Tag.STAR)


def test_products_same_class_merge_roots():
    d2 = tree_dot(GENERATOR_TREE, GENERATOR_TREE)
    s2 = tree_star(GENERATOR_TREE, GENERATOR_TREE)
    # same class: both root edges contract; opposite pairing grafts whole
    assert tree_dot(d2, d2) == DecoratedTree(
        graft_contract({1, 2}, [d2.shape, d2.shape]), Tag.DOT
    )
    assert tree_star(d2, d2) == DecoratedTree(PlanarTree([d2.shape, d2.shape]), Tag.STAR)
    assert tree_star(s2, s2) == DecoratedTree(
        graft_contract({1, 2}, [s2.shape, s2.shape]), Tag.STAR
    )
    assert tree_dot(s2, s2) == DecoratedTree(PlanarTree([s2.shape, s2.shape]), Tag.DOT)


def test_products_mixed_classes_contract_matching_side():
    d2 = tree_dot(GENERATOR_TREE, GENERATOR_TREE)
    s2 = tree_star(GENERATOR_TREE, GENERATOR_TREE)
    assert tree_star(d2, s2) == DecoratedTree(graft_contract({2}, [d2.shape, s2.shape]), Tag.STAR)
    assert tree_dot(d2, s2) == DecoratedTree(graft_contract({1}, [d2.shape, s2.shape]), Tag.DOT)
    assert tree_star(s2, d2) == DecoratedTree(graft_contract({1}, [s2.shape, d2.shape]), Tag.STAR)
    assert tree_dot(s2, d2) == DecoratedTree(graft_contract({2}, [s2.shape, d2.shape]), Tag.DOT)


def test_dot_chain_gives_corolla():
    x = dot(dot(E, E), E)
    assert x.tree == DecoratedTree(PlanarTree([LEAF, LEAF, LEAF]), Tag.DOT)
    assert x == dot(E, dot(E, E))


def test_dot_of_mixed_expressions():
    x = dot(dot(E, E), star(E, E))
    assert x.tree.shape == PlanarTree([LEAF, LEAF, PlanarTree([LEAF, LEAF])])
    assert x.tree.tag is Tag.DOT


def test_star_corolla():
    x = star(star(E, E), star(E, E))
    assert x.tree == DecoratedTree(PlanarTree([LEAF] * 4), Tag.STAR)


def test_displayed_six_leaf_tree():
    x = star(dot(dot(E, E), E), dot(E, star(E, E)))
    u1 = PlanarTree([LEAF, LEAF, LEAF])
    u2 = PlanarTree([LEAF, PlanarTree([LEAF, LEAF])])
    assert x.tree.shape == PlanarTree([u1, u2])
    assert x.tree.tag is Tag.STAR
    # root is starred, its children dotted, the deepest vertex starred again
    first, second = (DecoratedTree(c, Tag.DOT) for c in x.tree.shape.children)
    assert first == dot(dot(E, E), E).tree
    assert second == dot(E, star(E, E)).tree
    assert DecoratedTree(second.shape.children[1], Tag.STAR) == star(E, E).tree
    assert format_expr(x) == "(e.e.e)*(e.(e*e))"


# --- associativity and unique factorization ------------------------------------


def test_associativity_exhaustive():
    for total in range(3, 7):
        for d1, d2, d3 in compositions(total, 3):
            for a in decorated(d1):
                for b in decorated(d2):
                    for c in decorated(d3):
                        assert tree_dot(tree_dot(a, b), c) == tree_dot(a, tree_dot(b, c))
                        assert tree_star(tree_star(a, b), c) == tree_star(a, tree_star(b, c))


def test_components_refold():
    for n in range(2, 7):
        for t in decorated(n):
            # the root's children, read at level 1, carry the opposite tag
            parts = [DecoratedTree(c, None if c.is_leaf else t.tag.other) for c in t.shape.children]
            assert len(parts) >= 2
            op = tree_dot if t.tag is Tag.DOT else tree_star
            assert reduce(op, parts) == t


def test_free_semigroup_on_opposite_class():
    # folding sequences from {leaf} + dot-class is a bijection onto star-class
    for n in range(2, 8):
        built = {}
        for k in range(2, n + 1):
            for comp in compositions(n, k):
                pools = []
                for m in comp:
                    if m == 1:
                        pools.append((GENERATOR_TREE,))
                    else:
                        pools.append(tuple(t for t in decorated(m) if t.tag is Tag.DOT))
                for seq in itertools.product(*pools):
                    value = reduce(tree_star, seq)
                    assert value not in built, "two sequences folded to one tree"
                    built[value] = seq
        assert set(built) == {t for t in decorated(n) if t.tag is Tag.STAR}


# --- enumeration ------------------------------------------------------------------


def test_enumerate_counts():
    assert decorated(1) == (GENERATOR_TREE,)
    assert len(decorated(2)) == 2
    assert len(decorated(4)) == 22
    for n in range(2, 7):
        assert len(decorated(n)) == 2 * super_catalan(n)


def test_enumerate_bound():
    with pytest.raises(BoundExceeded):
        enumerate_decorated(9)
    assert len(_all_decorated(9)) == 2 * super_catalan(9)


# --- representation ----------------------------------------------------------------


def test_a_decorated_tree_is_its_form():
    # one string: the shape's text and the root's symbol, "|" for the leaf
    assert DecoratedTree.__slots__ == ("form",)
    assert GENERATOR_TREE.form == "||"
    for n in range(1, 7):
        for t in decorated(n):
            assert t.form.__class__ is str
            assert t.form == t.text + ("|" if t.tag is None else t.tag.value)
            assert t.shape == parse_tree(t.text)
            assert t == DecoratedTree(t.shape, t.tag)
            assert hash(t) == hash((t.shape, t.tag))
    cherry = PlanarTree([LEAF, LEAF])
    for shape, tag in ((LEAF, Tag.DOT), (LEAF, Tag.STAR), (cherry, None)):
        with pytest.raises(ValueError, match="^exactly the leaf tree carries no tag$"):
            DecoratedTree(shape, tag)
    for shape in ("(||)", GENERATOR_TREE, CubeVertex((1,))):
        with pytest.raises(TypeError, match=f"^shape must be a PlanarTree, got {re.escape(repr(shape))}$"):
            DecoratedTree(shape, Tag.DOT)


@pytest.mark.parametrize("tag", [".", "*", "d", 0, False])
def test_a_tag_that_is_not_a_member_or_none_is_a_type_error(tag):
    # a tag's symbol is not the tag: accepted, "." would give a tree that
    # every product, printer and morphism misreads
    for shape in (LEAF, PlanarTree([LEAF, LEAF])):
        with pytest.raises(TypeError, match=f"^tag must be Tag.DOT, Tag.STAR or None, got {re.escape(repr(tag))}$"):
            DecoratedTree(shape, tag)


def test_slices_and_products_build_no_planar_tree():
    # a decorated tree is one object: neither the slice nor a product keeps,
    # or builds, a PlanarTree for its shape
    def planar_alive():
        return sum(1 for o in gc.get_objects() if o.__class__ is PlanarTree)

    gc.collect()
    before = planar_alive()
    slice8 = enumerate_decorated(8)
    fours = enumerate_decorated(4)
    products = [op(x, y) for x in fours for y in fours for op in (tree_dot, tree_star)]
    assert len(slice8) == 2 * super_catalan(8) and len(products) == 2 * 22 * 22
    assert planar_alive() == before


# --- expressions: labels, evaluation ------------------------------------------------


def test_expr_label_validation():
    with pytest.raises(ValueError, match="labels"):
        DuplexExpr(GENERATOR_TREE, ("e", "e"))
    with pytest.raises(ValueError, match="alphabet"):
        DuplexExpr(GENERATOR_TREE, ("x",), frozenset({"e"}))


@pytest.mark.parametrize("tree", [LEAF, "||", "(||).", E, None])
def test_an_expression_tree_that_is_not_a_decorated_tree_is_a_type_error(tree):
    with pytest.raises(TypeError, match=f"^tree must be a DecoratedTree, got {re.escape(repr(tree))}$"):
        DuplexExpr(tree, ("e",))


def random_expr(rng, degree, labels):
    """A random expression built by ``dot``/``star`` over ``leaf_expr``."""
    if degree == 1:
        return leaf_expr(rng.choice(labels))
    k = rng.randint(1, degree - 1)
    op = dot if rng.random() < 0.5 else star
    return op(random_expr(rng, k, labels), random_expr(rng, degree - k, labels))


def test_an_expression_is_its_tree_and_labels_whatever_built_it():
    rng = random.Random(14)
    alphabet = ("a", "b", "e12")
    for _ in range(300):
        x = random_expr(rng, rng.randint(1, 12), alphabet)
        routes = [
            parse_expr(format_expr(x), set(alphabet)),
            expr_from_machine(expr_to_machine(x)),
            pickle.loads(pickle.dumps(x)),
            DuplexExpr(x.tree, x.labels, alphabet),
        ]
        for y in routes:
            assert y == x and hash(y) == hash(x)
            assert repr(y) == repr(x)


def test_parsed_and_built_expressions_mix():
    assert expr("e.e") == dot(E, E) and hash(expr("e.e")) == hash(dot(E, E))
    assert dot(expr("e"), E) == expr("e.e")
    assert star(parse_expr("a.b", "ab"), leaf_expr("c")) == parse_expr("(a.b)*c", "abc")
    assert DuplexExpr.__slots__ == ("tree", "labels")


def test_labels_concatenate():
    x = star(dot(leaf_expr("a"), leaf_expr("b")), leaf_expr("a"))
    assert x.labels == ("a", "b", "a")


def test_eval_hom_examples():
    one = Permutation((1,))
    assert eval_hom(expr("e.e"), {"e": one}, PERM_OPS) == Permutation((1, 2))
    assert eval_hom(expr("e*(e.e)"), {"e": one}, PERM_OPS) == Permutation((3, 1, 2))
    assert eval_hom(expr("e.e"), {"e": SINGLETON}, CUBE_OPS) == CubeVertex((-1,))


def test_eval_hom_unbound():
    with pytest.raises(UnboundGenerator):
        eval_hom(expr("e.e"), {}, PERM_OPS)


def test_eval_hom_is_a_homomorphism():
    from duplexes.binary_trees import BINARY_OPS, SINGLE_NODE

    targets = [
        (Permutation((1,)), PERM_OPS),
        (SINGLE_NODE, BINARY_OPS),
        (SINGLETON, CUBE_OPS),
    ]
    for total in range(2, 6):
        for d1 in range(1, total):
            for a in decorated(d1):
                for b in decorated(total - d1):
                    x = DuplexExpr(a, ("e",) * d1, frozenset("e"))
                    y = DuplexExpr(b, ("e",) * (total - d1), frozenset("e"))
                    for value, ops in targets:
                        env = {"e": value}
                        vx = eval_hom(x, env, ops)
                        vy = eval_hom(y, env, ops)
                        assert eval_hom(dot(x, y), env, ops) == ops.dot(vx, vy)
                        assert eval_hom(star(x, y), env, ops) == ops.star(vx, vy)


def test_generator_closure_reaches_everything():
    layers = {1: {GENERATOR_TREE}}
    for total in range(2, 7):
        layer = set()
        for d1 in range(1, total):
            for a in layers[d1]:
                for b in layers[total - d1]:
                    layer.add(tree_dot(a, b))
                    layer.add(tree_star(a, b))
        layers[total] = layer
        assert layer == set(decorated(total))


def test_labeled_slice_sizes():
    # degree-n expressions over s generators number (decorated trees) * s^n
    for s, alphabet in ((1, "e"), (2, "ab")):
        for n in range(1, 6):
            count = len(decorated(n)) * s**n
            built = {
                DuplexExpr(t, labels, frozenset(alphabet))
                for t in decorated(n)
                for labels in itertools.product(alphabet, repeat=n)
            }
            assert len(built) == count


# --- text and machine formats ---------------------------------------------------------


def test_parse_examples():
    x = expr("(e.e.e)*(e.(e*e))")
    assert x == star(dot(dot(E, E), E), dot(E, star(E, E)))
    assert expr("e") == E
    # a transparent group between two of one operator still contracts
    assert expr("e.((e.e))").tree.text == "(|||)"
    assert expr("e*((e.e))").tree.text == "(|(||))"
    with pytest.raises(MixedChainError):
        expr("e.e*e")


def test_parse_accepts_middle_dot_and_space():
    assert expr("e·e") == dot(E, E)
    assert expr(" e . e ") == dot(E, E)


def test_parse_errors():
    with pytest.raises(UnknownGenerator):
        expr("x")
    with pytest.raises(ExprSyntaxError):
        expr("e.")
    with pytest.raises(ExprSyntaxError):
        expr("(e.e")
    with pytest.raises(ExprSyntaxError):
        expr("e)e")
    with pytest.raises(ExprSyntaxError):
        expr("E")
    err = None
    try:
        expr("e.e*e")
    except MixedChainError as exc:
        err = exc
    assert err is not None and err.position == 3


# Texts that hit every error of the grammar, in each order they can meet,
# and the whitespace and identifier edge cases of the scan.
PARSE_CORPUS = [
    "", " ", "e.", "e.*e", "e.e*e", "(e.e", "e)", "(e.e))", "e.(", "((", "e.(e*e", "e e", "e..e",
    "E", "1", "e.1", "e12.e", "e·e", "e..e A", "f", "(", ")", "e)(", "e.(e.e", "*e", "e.e*",
    "(e.e)*(e.(e*e))", "((e))", "e.((e.e))", "(e).e", "(e.e).(e.e)", "ab1*f.e", "1e", "e 1",
    "ab1 e", "e(e", "(e)(e)", "e.(f*(e.f))", "\u2003e\u00a0.\u3000e\n", "\x1ce\u2028*\u205fe", "e\u200b.e",
    "\te . ( e * e )\r\n", "\u00a0", "e.é",
]
PARSE_ALPHABETS = [{"e"}, {"e", "f", "ab1"}, {"e", ".", "("}, "e.(", set()]
# A set's repr follows string hashing, which changes from run to run, so the
# case names are fixed here.
PARSE_ALPHABET_IDS = ["{'e'}", "{'f', 'e', 'ab1'}", "{'e', '(', '.'}", "'e.('", "set()"]


def parse_outcome(parse, text, alphabet):
    """The parser's value, or its error's type, message and position."""
    try:
        return parse(text, alphabet)
    except ParseError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@pytest.mark.parametrize("alphabet", PARSE_ALPHABETS, ids=PARSE_ALPHABET_IDS)
def test_parse_matches_the_reference_parser_on_the_corpus(alphabet):
    for text in PARSE_CORPUS:
        assert parse_outcome(parse_expr, text, alphabet) == parse_outcome(reference_parse_expr, text, alphabet), text


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.sampled_from(["e", "f", "ab1", ".", "*", "(", ")", "·", "1", "A", " "]), max_size=16).map("".join),
    st.sampled_from(PARSE_ALPHABETS),
)
def test_parse_matches_the_reference_parser(text, alphabet):
    assert parse_outcome(parse_expr, text, alphabet) == parse_outcome(reference_parse_expr, text, alphabet)


def test_parse_error_positions():
    assert parse_outcome(parse_expr, "(e.e", "e") == (ExprSyntaxError, "missing ')' (at position 0)", 0)
    assert parse_outcome(parse_expr, "e. ( ", "e")[2] == 4
    assert parse_outcome(parse_expr, "e.e  A", "e")[2] == 5
    unknown = (UnknownGenerator, "generator 'e12' not in alphabet (at position 1)", 1)
    assert parse_outcome(parse_expr, " e12.e", "e") == unknown


def test_format_parse_round_trip():
    for n in range(1, 6):
        for t in decorated(n):
            x = DuplexExpr(t, ("e",) * n, frozenset("e"))
            assert parse_expr(format_expr(x), {"e"}) == x


def test_machine_format_round_trip():
    for n in range(1, 5):
        for t in decorated(n):
            x = DuplexExpr(t, ("e",) * n, frozenset("e"))
            triple = expr_to_machine(x)
            assert expr_from_machine(triple) == x


def test_machine_format_rejects_an_unknown_tag_letter():
    with pytest.raises(ParseError, match="'x'.*'d', 's' or '-'"):
        expr_from_machine(("(||)", "x", ["e", "e"]))


@pytest.mark.parametrize(
    "triple, message",
    [
        (("(||)", ["d"], ["e", "e"]), r"tag letter \['d'\]"),
        (("(||)", {"d": 1}, ["e", "e"]), "tag letter"),
        (("(||)", "d"), "triple"),
        (("(||)", "d", ["e", "e"], "extra"), "triple"),
        (None, "triple"),
        (5, "triple"),
        (("(||)", "d", None), "labels, got None"),
        (("(||)", "d", 7), "labels, got 7"),
        ((None, "d", ["e", "e"]), "tree text"),
        ((["(||)"], "d", ["e", "e"]), "tree text"),
        (("(||)", "-", ["e", "e"]), r"^tag letter '-' does not fit the tree '\(\|\|\)': only the leaf"),
        (("|", "d", ["e"]), r"^tag letter 'd' does not fit the tree '\|'"),
        (("|", "s", ["e"]), r"^tag letter 's' does not fit the tree '\|'"),
        (("(||)", "d", ["e"]), r"^expected 2 labels, one per leaf of the tree '\(\|\|\)', got 1$"),
        (("(||)", "s", ["e", "e", "e"]), r"^expected 2 labels, one per leaf of the tree '\(\|\|\)', got 3$"),
        (("|", "-", []), r"^expected 1 labels, one per leaf of the tree '\|', got 0$"),
    ],
)
def test_machine_format_rejects_a_malformed_triple(triple, message):
    # the triple arrives from JSON, so any of its parts can be the wrong type,
    # and its tag letter or label count may not fit its tree
    with pytest.raises(ParseError, match=message):
        expr_from_machine(triple)


@pytest.mark.parametrize("value", [None, 5, b"|"])
@pytest.mark.parametrize(
    "parse",
    [parse_tree, parse_binary, parse_cube, parse_permutation, lambda text: parse_expr(text, "e")],
    ids=["tree", "binary", "cube", "perm", "expr"],
)
def test_parsers_reject_a_value_that_is_not_a_string(parse, value):
    with pytest.raises(ParseError, match=re.escape(f"expected a string, got {value!r}")):
        parse(value)


def test_machine_format_rejects_a_label_that_is_not_a_string():
    with pytest.raises(ParseError, match="expected a string, got 5"):
        expr_from_machine(("|", "-", [5]), parse_permutation)


def test_machine_format_example():
    x = expr("(e.e.e)*(e.(e*e))")
    assert expr_to_machine(x) == ("((|||)(|(||)))", "s", ["e"] * 6)


def test_decorated_tree_tag_invariant():
    with pytest.raises(ValueError):
        DecoratedTree(LEAF, Tag.DOT)
    with pytest.raises(ValueError):
        DecoratedTree(PlanarTree([LEAF, LEAF]), None)
