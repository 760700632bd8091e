"""The carrier products and enumerations build their values unchecked.
Each result must equal, field for field and hash for hash, the value the
validating constructors build from a reference written another way (the
products by their definitions, in conftest), so a slip in a product's rule
cannot hide behind the skipped checks."""
import math

import pytest

from conftest import PRODUCTS_BY_DEFINITION
from duplexes.binary_trees import catalan, enumerate_binary, over, parse_binary, under
from duplexes.cubes import CubeVertex, cube_dot, cube_star, enumerate_cubes
from duplexes.decorated_trees import DecoratedTree, Tag, enumerate_decorated, tree_dot, tree_star
from duplexes.laws import Structure
from duplexes.permutations import Permutation, enumerate_permutations, natural, sharp
from duplexes.planar_trees import LEAF, PlanarTree, enumerate_trees, parse_tree, super_catalan

MAX_TOTAL = 7


def pairs(enumerate_slice, lowest):
    """Every pair of elements of degrees d1, d2 >= ``lowest`` with d1 + d2 <= MAX_TOTAL."""
    for d1 in range(lowest, MAX_TOTAL + 1 - lowest):
        for d2 in range(lowest, MAX_TOTAL + 1 - d1):
            for a in enumerate_slice(d1):
                for b in enumerate_slice(d2):
                    yield a, b


def pair_count(size, lowest):
    """The number of pairs ``pairs`` yields, from a slice size formula."""
    return sum(
        size(d1) * size(d2) for d1 in range(lowest, MAX_TOTAL + 1) for d2 in range(lowest, MAX_TOTAL + 1 - d1)
    )


def same_value(x, reference):
    assert type(x) is type(reference)
    assert x == reference and hash(x) == hash(reference)
    assert repr(x) == repr(reference)


def test_decorated_products_equal_the_n_ary_graft():
    count = 0
    references = PRODUCTS_BY_DEFINITION[Structure.DECORATED]
    for a, b in pairs(enumerate_decorated, 1):
        for product, tag, reference in zip((tree_dot, tree_star), (Tag.DOT, Tag.STAR), references):
            x = product(a, b)
            same_value(x, reference(a, b))
            same_value(x, DecoratedTree(parse_tree(x.shape.text), tag))
            assert type(x.shape) is PlanarTree and x.tag is tag
            count += 1
    assert count == 2 * pair_count(lambda n: 1 if n == 1 else 2 * super_catalan(n), 1)


def binary_slice(n):
    # the stub LEAF is degree 0; the products take it too
    return (LEAF,) if n == 0 else enumerate_binary(n)


def test_binary_products_equal_the_grafts_by_definition():
    count = 0
    over_reference, under_reference = PRODUCTS_BY_DEFINITION[Structure.BINARY]
    for u, v in pairs(binary_slice, 0):
        x, y = over(u, v), under(u, v)
        same_value(x, over_reference(u, v))
        same_value(y, under_reference(u, v))
        same_value(x, parse_binary(x.text))
        same_value(y, parse_binary(y.text))
        count += 1
    assert count == pair_count(lambda n: catalan(n) if n else 1, 0)


def test_cube_products_equal_the_checked_concatenation():
    count = 0
    for a, b in pairs(enumerate_cubes, 1):
        for product, reference in zip((cube_dot, cube_star), PRODUCTS_BY_DEFINITION[Structure.CUBE]):
            same_value(product(a, b), reference(a, b))
            count += 1
    assert count == 2 * pair_count(lambda n: 2 ** (n - 1), 1)


def test_block_sums_equal_their_pointwise_definitions():
    count = 0
    sharp_reference, natural_reference = PRODUCTS_BY_DEFINITION[Structure.PERM]
    for f, g in pairs(enumerate_permutations, 1):
        same_value(sharp(f, g), sharp_reference(f, g))
        same_value(natural(f, g), natural_reference(f, g))
        count += 1
    assert count == pair_count(math.factorial, 1)


REBUILDS = [
    (enumerate_trees, range(1, 11), lambda t: parse_tree(t.text)),
    (enumerate_binary, range(1, 11), lambda u: parse_binary(u.text)),
    (enumerate_decorated, range(1, 9), lambda t: DecoratedTree(parse_tree(t.shape.text), t.tag)),
    (enumerate_permutations, range(1, 9), lambda f: Permutation(f.images)),
    (enumerate_cubes, range(1, 17), lambda a: CubeVertex(a.signs)),
]


@pytest.mark.parametrize(
    "enumerate_slice, degrees, rebuild", REBUILDS, ids=[e.__name__ for e, _, _ in REBUILDS]
)
def test_every_enumerated_slice_equals_its_validated_rebuild(enumerate_slice, degrees, rebuild):
    for n in degrees:
        for x in enumerate_slice(n):
            same_value(x, rebuild(x))
