import itertools
import re

from hypothesis import strategies as st

from duplexes.cubes import CubeVertex
from duplexes.decorated_trees import DecoratedTree, DuplexExpr, DuplexOps, Tag
from duplexes.errors import ArityTooSmall, ExprSyntaxError, MixedChainError, UnknownGenerator, check_text
from duplexes.laws import Structure
from duplexes.permutations import Permutation, natural, sharp
from duplexes.planar_trees import LEAF, PlanarTree, leaf_count, parse_tree

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


# --- the carrier products by their definitions ---------------------------------
# The library writes each product once, as one rule on its carrier's forms
# that its scalar and its bulk products share.  These references are written
# from the definitions instead, through the validating constructors, and the
# product tests hold both to them.


def graft_contract(positions, children):
    """Graft, then contract the root edges at the given 1-based positions.

    Contracting the edge to child ``i`` replaces that child, in place, by its
    own child sequence; the child must therefore be an internal vertex.  With
    no positions this is plain grafting.
    """
    children = tuple(children)
    if len(children) < 2:
        raise ArityTooSmall(f"grafting needs at least 2 trees, got {len(children)}")
    contracted = frozenset(positions)
    for i in contracted:
        if not 1 <= i <= len(children):
            raise ValueError(f"position {i} outside 1..{len(children)}")
        if children[i - 1].is_leaf:
            raise ValueError(f"cannot contract the root edge of the leaf at position {i}")
    grafted = []
    for i, child in enumerate(children, 1):
        grafted += child.children if i in contracted else (child,)
    return PlanarTree(grafted)


def contracting_graft(tag):
    """The decorated product ``tag``: graft both trees under a root tagged
    ``tag``, contracting the root edge of each tree already tagged ``tag``."""

    def graft(a, b):
        positions = [i for i, t in enumerate((a, b), 1) if t.tag is tag]
        return DecoratedTree(graft_contract(positions, (a.shape, b.shape)), tag)

    return graft


def graft_on_leftmost_leaf(u, v):
    # over, by its definition: v's leftmost leaf becomes u
    if v.is_leaf:
        return u
    left, right = v.children
    return PlanarTree((graft_on_leftmost_leaf(u, left), right))


def graft_on_rightmost_leaf(u, v):
    # under, by its definition: u's rightmost leaf becomes v
    if u.is_leaf:
        return v
    left, right = u.children
    return PlanarTree((left, graft_on_rightmost_leaf(right, v)))


def diagonal_sum(f, g):
    # sharp, pointwise: f on 1..n, then g shifted up by n
    n = f.degree
    return Permutation([f(i) if i <= n else n + g(i - n) for i in range(1, n + g.degree + 1)])


def anti_diagonal_sum(f, g):
    # natural, pointwise: f shifted up by m = deg g, then g
    n, m = f.degree, g.degree
    return Permutation([m + f(i) if i <= n else g(i - n) for i in range(1, n + m + 1)])


def joined_signs(separator):
    """The cube product with the given separator: the sign sequences
    concatenated around it."""
    return lambda a, b: CubeVertex(a.signs + (separator,) + b.signs)


PRODUCTS_BY_DEFINITION = {
    Structure.PERM: DuplexOps(diagonal_sum, anti_diagonal_sum),
    Structure.DECORATED: DuplexOps(contracting_graft(Tag.DOT), contracting_graft(Tag.STAR)),
    Structure.BINARY: DuplexOps(graft_on_leftmost_leaf, graft_on_rightmost_leaf),
    Structure.CUBE: DuplexOps(joined_signs(-1), joined_signs(1)),
}


# --- a reference expression parser ----------------------------------------------
# A token loop with one regex match per token, building each chain's form
# (tree text and root symbol) from its parts' forms.  It copies O(n·depth)
# characters on deep nests, but `parse_expr` must return its values and
# raise its errors, with their types, messages and positions.

_REFERENCE_TOKEN = re.compile(r"\s*(?:(?P<ident>[a-z][a-z0-9]*)|(?P<op>[.*])|(?P<open>\()|(?P<close>\)))")
_REFERENCE_IDENT = re.compile(r"[a-z][a-z0-9]*")


def _reference_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _REFERENCE_TOKEN.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        token = m.group().lstrip()
        tokens.append((token, m.end() - len(token)))
        pos = m.end()
    return tokens


def _reference_chain(op, forms):
    # a part whose root is op's own enters without its root's parentheses
    return "(" + "".join(f[1:-2] if f[-1] == op else f[:-1] for f in forms) + ")" + op


def reference_parse_expr(text, alphabet):
    check_text(text)
    alphabet = frozenset(alphabet)
    tokens = _reference_tokenize(text.replace("·", "."))
    labels = []
    stack = [[[], None, None]]  # per open chain: its parts, its operator, where its "(" is
    pos = 0
    while True:
        if pos >= len(tokens):
            raise ExprSyntaxError("unexpected end of expression", tokens[-1][1] + 1 if tokens else 0)
        tok, at = tokens[pos]
        pos += 1
        if tok == "(":
            stack.append([[], None, at])
            continue
        if not _REFERENCE_IDENT.fullmatch(tok):
            raise ExprSyntaxError(f"unexpected {tok!r}", at)
        if tok not in alphabet:
            raise UnknownGenerator(f"generator {tok!r} not in alphabet", at)
        labels.append(tok)
        atom = "||"
        while True:
            frame = stack[-1]
            parts, chain_op, open_at = frame
            parts.append(atom)
            if pos < len(tokens) and tokens[pos][0] in (".", "*"):
                op, op_at = tokens[pos]
                if chain_op is None:
                    frame[1] = op
                elif op != chain_op:
                    raise MixedChainError("cannot mix '.' and '*' without parentheses", op_at)
                pos += 1
                break
            atom = parts[0] if len(parts) == 1 else _reference_chain(chain_op, parts)
            if open_at is None:
                if pos != len(tokens):
                    raise ExprSyntaxError(f"unexpected {tokens[pos][0]!r}", tokens[pos][1])
                tag = {"|": None, ".": Tag.DOT, "*": Tag.STAR}[atom[-1]]
                return DuplexExpr(DecoratedTree(parse_tree(atom[:-1]), tag), labels)
            if pos >= len(tokens) or tokens[pos][0] != ")":
                raise ExprSyntaxError("missing ')'", open_at)
            stack.pop()
            pos += 1
