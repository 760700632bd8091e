"""Canonical homomorphisms between the concrete carriers.

All four maps are determined by where the degree-1 generator goes, and the
three on expressions raise ``ValueError`` for more than one generator:

* :func:`alpha` — expressions to permutations, generator to ``(1)``;
* :func:`rho`  — expressions to binary trees, generator to the one-node tree;
* :func:`phi`  — binary trees to cube vertices, generator to ``e``;
* :func:`leaf_sign_vector` — the direct description of ``phi(rho(x))`` read
  off the decorated tree itself.

Each map imports the carrier names it uses inside its body, so importing
this module loads none of ``permutations``, ``decorated_trees`` and
``cubes``, and ``phi`` loads neither of the first two.
"""
from __future__ import annotations

from .errors import StubNotSplittable
from .planar_trees import _tree


def _single_generator(x: DuplexExpr) -> None:
    labels = set(x.labels)
    if len(labels) != 1:
        raise ValueError(f"expected a single-generator expression, found labels {sorted(map(str, labels))}")


def alpha(x: DuplexExpr) -> Permutation:
    """Evaluate in permutations with the generator at ``(1)`` (``.`` as the
    diagonal block sum, ``*`` as the anti-diagonal one).  Degree preserving.

    Every leaf is the block ``(1)``, placed at its value offset by the
    reader :func:`multiply_out` uses, so the cost is linear at any depth.
    """
    from .permutations import _ONE, _place_blocks

    _single_generator(x)
    if x.tree.form == "||":
        return _ONE
    return _place_blocks(x.tree, [(1,)] * x.degree)


def rho(x: DuplexExpr) -> PlanarTree:
    """Evaluate in binary trees with the generator at the one-node tree;
    surjective degree for degree.

    This is the shape of the decreasing tree of ``alpha(x)``, the tree
    whose root is the largest value, with the values left and right of it
    as its two branches: that map sends ``(1)`` to the one-node tree,
    ``sharp`` to ``over`` and ``natural`` to ``under``.  The subtree of the
    value at position i spans the stubs from just after its nearest larger
    value on the left to just before its nearest larger value on the
    right, so one stack pass counts the ``(`` before and the ``)`` after
    each stub, at any depth.

    >>> from duplexes.decorated_trees import parse_expr
    >>> rho(parse_expr("e*(e.e)", "e")).text
    '(|((||)|))'
    """
    images = alpha(x).images
    opens = [0] * (len(images) + 1)  # per stub: the subtrees that start at it
    closes = opens.copy()  # per stub: the subtrees that end at it
    larger = []  # positions still waiting for a larger value; their values decrease
    for i, value in enumerate(images):
        while larger and images[larger[-1]] < value:
            larger.pop()
            closes[i] += 1
        opens[larger[-1] + 1 if larger else 0] += 1
        larger.append(i)
    closes[-1] += len(larger)
    return _tree("".join("(" * o + "|" + ")" * c for o, c in zip(opens, closes)))


def phi(u: PlanarTree) -> CubeVertex:
    """Collapse a binary tree to its cube vertex; the quotient map induced by
    the extra mixed-bracketing identity that cube vertices satisfy.

    A node's image is ``(image(left) . e) * image(right)``, and ``e`` has
    no signs, so the signs are read in order off the text in one loop: a
    ``-1`` after each left child that is not a stub, then a ``+1`` before
    each right child that is not a stub.  In the text, a ``)`` closes a
    left child exactly when a sibling follows it, and a ``(`` opens a right
    child exactly when it does not follow a ``(``.  Equals
    ``eval_duplexes1(u, SINGLETON, CUBE_OPS)``, the generic fold.
    """
    from .cubes import _cube

    if u.is_leaf:
        raise StubNotSplittable("the stub is not an element and has no image")
    text = u.text
    signs = []
    for before, ch in zip(text, text[1:]):
        if before == ")" and ch != ")":
            signs.append("-1")
        if ch == "(" and before != "(":
            signs.append("+1")
    return _cube("<" + ",".join(signs) + ">" if signs else "e")


def leaf_sign_vector(x: DuplexExpr) -> CubeVertex:
    """Signs read between consecutive leaves of the decorated tree.

    Entry i is the derived sign of the vertex where the edges from leaves i
    and i+1 meet (the lower end of the full straight edge rising to leaf
    i+1): ``+1`` for ``*``, ``-1`` for ``.``.  Equals ``phi(rho(x))``.
    That is the operator word of ``x``'s text, so it is read off
    :func:`format_expr` with the labels left out, at any depth.
    """
    from .cubes import _cube
    from .decorated_trees import format_expr

    _single_generator(x)
    word = format_expr(x, lambda _: "").replace("(", "").replace(")", "")
    return _cube("<" + ",".join(word).replace(".", "-1").replace("*", "+1") + ">" if word else "e")
