"""The permutation normal forms against a naive reference, and the values
they return.

The reference factors by the definitions alone: a prefix of length k of a
block of m values splits off under the diagonal product when its value set
is {1..k}, under the anti-diagonal one when it is {m-k+1..m}.  It keeps the
prefix's value set and the lowest and highest values missing from it, so it
shares nothing with the library's both-ends cut finder.  It rescans every
factor whole, so it costs O(n·depth): on nests it runs at moderate depth,
and the 10**4 nest is checked against its own text in test_deep_inputs.py.
"""
import copy
import pickle

from conftest import ONE, alternating, nest_images
from duplexes.decorated_trees import DecoratedTree, DuplexExpr, Tag
from duplexes.permutations import (
    Permutation,
    duplex_factorize,
    enumerate_permutations,
    natural_factorize,
    sharp_factorize,
)
from duplexes.planar_trees import parse_tree

DEEP = 10**4
NEST_DEPTH = 1000  # the reference rescans each level of a nest whole


def reference_chain(images):
    """The product that splits ``images`` and its factors, each shifted down
    to 1..k; ``(None, [images])`` when neither product splits it."""
    m = len(images)
    seen = set()
    lowest_missing, highest_missing = 1, m
    cuts = {Tag.DOT: [], Tag.STAR: []}
    for k, v in enumerate(images[:-1], 1):
        seen.add(v)
        while lowest_missing in seen:
            lowest_missing += 1
        while highest_missing in seen:
            highest_missing -= 1
        if lowest_missing == k + 1:  # the prefix's k values are 1..k
            cuts[Tag.DOT].append(k)
        if highest_missing == m - k:  # ... or m-k+1..m
            cuts[Tag.STAR].append(k)
    for tag, at in cuts.items():
        if at:
            bounds = [0, *at, m]
            blocks = [images[i:j] for i, j in zip(bounds, bounds[1:])]
            return tag, [tuple([v - low + 1 for v in block]) for block, low in zip(blocks, map(min, blocks))]
    return None, [images]


def reference_factors(f, tag):
    found, blocks = reference_chain(f.images)
    return tuple(Permutation(block) for block in blocks) if found is tag else (f,)


def reference_normal_form(f):
    """Split each block by the product that splits it and each factor in
    turn; a block neither product splits is a leaf.  The text is written in
    preorder and the expression built through the checked constructors."""
    text, labels = [], []
    root = None
    pending = [f.images]
    while pending:
        block = pending.pop()
        if block is None:
            text.append(")")
            continue
        tag, blocks = reference_chain(block)
        if tag is None:
            text.append("|")
            labels.append(Permutation(block))
            continue
        if root is None:
            root = tag
        text.append("(")
        pending.append(None)
        pending.extend(reversed(blocks))
    return DuplexExpr(DecoratedTree(parse_tree("".join(text)), root), labels)


def small_permutations():
    return [f for n in range(1, 8) for f in enumerate_permutations(n)]


def test_reference_examples():
    assert reference_factors(Permutation((3, 1, 2, 6, 5, 4)), Tag.DOT) == (
        Permutation((3, 1, 2)),
        Permutation((3, 2, 1)),
    )
    assert reference_factors(Permutation((3, 1, 2)), Tag.DOT) == (Permutation((3, 1, 2)),)
    assert str(reference_normal_form(Permutation((3, 1, 2)))) == "(1)*((1).(1))"


def test_normal_forms_match_the_reference_up_to_degree_7():
    for f in small_permutations():
        assert duplex_factorize(f) == reference_normal_form(f), f
        assert sharp_factorize(f) == reference_factors(f, Tag.DOT), f
        assert natural_factorize(f) == reference_factors(f, Tag.STAR), f


def test_normal_forms_match_the_reference_on_long_inputs():
    identity = Permutation(range(1, DEEP + 1))
    reversal = Permutation(range(DEEP, 0, -1))
    nest = nest_images(alternating(DEEP))
    for f in (identity, reversal, nest):
        assert sharp_factorize(f) == reference_factors(f, Tag.DOT)
        assert natural_factorize(f) == reference_factors(f, Tag.STAR)
    for f in (identity, reversal, nest_images(alternating(NEST_DEPTH)), nest_images("**." * (NEST_DEPTH // 3))):
        assert duplex_factorize(f) == reference_normal_form(f)


# --- the results skip DuplexExpr's check, so hold them to it here ---------------------


def test_results_pass_the_constructor_check():
    for f in small_permutations():
        x = duplex_factorize(f)
        assert type(x.labels) is tuple
        assert DuplexExpr(x.tree, x.labels) == x
        assert hash(DuplexExpr(x.tree, x.labels)) == hash(x)


def test_degree_one_labels_are_the_generator_image():
    for f in (*small_permutations(), Permutation(range(1, DEEP + 1))):
        for label in duplex_factorize(f).labels:
            if label.degree == 1:
                assert label == Permutation((1,)) == ONE
                assert hash(label) == hash(Permutation((1,)))


def test_results_pickle_and_copy():
    for f in (Permutation((3, 1, 2)), Permutation((2, 4, 1, 3)), Permutation((5, 2, 4, 1, 3, 6, 8, 7))):
        x = duplex_factorize(f)
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert y == x
            assert hash(y) == hash(x)
            assert str(y) == str(x)
