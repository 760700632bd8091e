import itertools

from hypothesis import strategies as st

from duplexes.permutations import Permutation, natural, sharp
from duplexes.planar_trees import LEAF, PlanarTree, leaf_count

ONE = Permutation((1,))


def compositions(total, parts):
    """Ordered decompositions of ``total`` into ``parts`` positive integers."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def sort_key(t):
    """Reference canonical tree order: fewer leaves first, then lexicographic
    on the children's keys.  The enumerations generate this order directly."""
    return leaf_count(t), tuple(sort_key(c) for c in t.children)


def permutation_strategy(max_degree=6):
    return (
        st.integers(min_value=1, max_value=max_degree)
        .flatmap(lambda n: st.permutations(list(range(1, n + 1))))
        .map(lambda images: Permutation(tuple(images)))
    )


def planar_tree_strategy(max_leaves=8):
    return st.recursive(
        st.just(LEAF),
        lambda children: st.lists(children, min_size=2, max_size=4).map(
            lambda kids: PlanarTree(tuple(kids))
        ),
        max_leaves=max_leaves,
    )


# An op word o1 o2 ... ok over "." and "*" stands for the left nest
# ((e o1 e) o2 e) ... ok e, and in permutations for the same nest of block
# sums of (1), "." being sharp and "*" natural.


def alternating(depth):
    """The op word ".*.*..." of the given length; its nest has that depth."""
    return "".join(".*"[k % 2] for k in range(depth))


def nest_text(word):
    """The text ``format_expr`` prints for the nest: a run of one operator
    is one chain, and each change of operator opens a parenthesis."""
    runs = [(op, len(list(group))) for op, group in itertools.groupby(word)]
    body = "".join((")" if i else "") + (op + "e") * count for i, (op, count) in enumerate(runs))
    return "(" * (len(runs) - 1) + "e" + body


def nest_permutation(word):
    f = ONE
    for op in word:
        f = sharp(f, ONE) if op == "." else natural(f, ONE)
    return f


def nest_images(word):
    """``nest_permutation(word)`` without a product, in one pass: the e that
    the k-th op adds enters at position k+1 with value k+1 under "." and 1
    under "*", and each later "*" shifts every value before it up by one."""
    stars = word.count("*")
    images = [1 + stars]
    for k, op in enumerate(word, 1):
        stars -= op == "*"
        images.append((k + 1 if op == "." else 1) + stars)
    return Permutation(tuple(images))
