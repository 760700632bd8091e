"""Permutations under the two block-sum products and their factorizations.

A permutation of degree n is stored in one-line notation, the tuple
``(f(1), ..., f(n))``.  Two associative degree-adding products are
defined:

* ``sharp(f, g)`` places ``g``'s block above ``f``'s along the diagonal:
  the first ``n`` values are ``f``'s, the rest are ``g``'s shifted up by n.
* ``natural(f, g)`` places the blocks along the anti-diagonal: ``f``'s
  values are shifted up by ``g``'s degree and ``g``'s values close the tail.

Both products admit unique factorization into indecomposables, and the two
factorizations interleave into a unique expression tree over the doubly
indecomposable permutations (:func:`duplex_factorize`).
"""
from __future__ import annotations

import enum
import itertools
import operator
import re
from functools import lru_cache
from typing import Iterable, Sequence

from .decorated_trees import _DOT, _STAR, DecoratedTree, DuplexExpr, DuplexOps, Tag, leaf_expr
from .errors import ParseError, check_degree
from .planar_trees import _tree, _Value

DEFAULT_PERMUTATION_BOUND = 8


class Permutation(_Value):
    """A bijection of {1..n} in one-line notation; degree n >= 1.  The
    images must be integers (``operator.index``), else ``TypeError``."""

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        images = tuple(map(operator.index, images))
        _validate_images(images)
        object.__setattr__(self, "images", images)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash((self.images,))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        n = len(self.images)
        if not 1 <= i <= n:
            raise ValueError(f"point {i} is not in 1..{n}")
        return self.images[i - 1]

    def __str__(self) -> str:
        return format_permutation(self)


def _perm(images: tuple[int, ...]) -> Permutation:
    """The permutation of an image tuple the library built from valid ones;
    unchecked."""
    f = object.__new__(Permutation)
    object.__setattr__(f, "images", images)
    return f


def _validate_images(images: tuple[int, ...]) -> None:
    n = len(images)
    if n < 1:
        raise ValueError("a permutation has degree >= 1; the empty sequence is not one")
    seen = set()
    for v in images:
        if v in seen:
            raise ValueError(f"not a permutation of 1..{n}: value {v} appears more than once")
        seen.add(v)
    if seen != set(range(1, n + 1)):
        missing = min(set(range(1, n + 1)) - seen)
        stray = sorted(seen - set(range(1, n + 1)))
        detail = f"value {missing} is missing"
        if stray:
            detail += f" (found out-of-range {stray[0]})"
        raise ValueError(f"not a permutation of 1..{n}: {detail}")


class IndecKind(enum.Enum):
    """Which product a permutation should be indecomposable for."""

    SHARP = "sharp"
    NATURAL = "natural"
    S2 = "s2"  # indecomposable for both products at once


# bound once, as decorated_trees binds the Tag members: an enum member
# lookup takes a slow hook up to Python 3.11
_SHARP, _NATURAL = IndecKind.SHARP, IndecKind.NATURAL


def sharp(f: Permutation, g: Permutation) -> Permutation:
    """Diagonal block sum.

    >>> str(sharp(Permutation((3, 1, 2)), Permutation((3, 2, 1))))
    '(3,1,2,6,5,4)'
    """
    n = f.degree
    return _perm(f.images + tuple(n + v for v in g.images))


def natural(f: Permutation, g: Permutation) -> Permutation:
    """Anti-diagonal block sum.

    >>> str(natural(Permutation((3, 1, 2)), Permutation((3, 2, 1))))
    '(6,4,5,3,2,1)'
    """
    m = g.degree
    return _perm(tuple(m + v for v in f.images) + g.images)


# convention used everywhere: sharp plays ".", natural plays "*"
PERM_OPS = DuplexOps(sharp, natural)


def xi(f: Permutation) -> Permutation:
    """Compose with the order reversal on the left; an involution that swaps
    the roles of the two block sums."""
    n = f.degree
    return _perm(tuple(n + 1 - v for v in f.images))


def sharp_factorize(f: Permutation) -> tuple[Permutation, ...]:
    """The unique factorization of ``f`` under the diagonal block sum.

    Splits at every prefix {1..i} that f maps into itself; each block,
    shifted back down, is indecomposable, and re-multiplying with
    :func:`sharp` restores ``f``.

    >>> [str(g) for g in sharp_factorize(Permutation((3, 1, 2, 6, 5, 4)))]
    ['(3,1,2)', '(3,2,1)']
    """
    return _factorize(f, _DOT)


def natural_factorize(f: Permutation) -> tuple[Permutation, ...]:
    """Unique factorization under the anti-diagonal block sum: splits at every
    prefix {1..i} that f maps onto its top i values."""
    return _factorize(f, _STAR)


def _factorize(f: Permutation, tag: Tag) -> tuple[Permutation, ...]:
    """The factors of ``f`` under the product tagged ``tag``: the ranges of
    the :func:`_chain` of its first cut, shifted down.  With no cut of that
    product, including when it splits under the other one, ``f`` is its own
    single factor."""
    images = f.images
    n = len(images)
    cut = _cut(images, 0, n, 1)
    if cut is None or cut[0] is not tag:
        return (f,)
    return tuple(
        _perm(tuple(v - low + 1 for v in images[start:end])) for start, end, low, _ in _chain(images, 0, n, 1, cut)
    )


def is_indecomposable(f: Permutation, kind: IndecKind) -> bool:
    """Whether ``f`` admits no nontrivial factorization of the given kind.

    Degree 1 is indecomposable of every kind.  Uses running prefix extrema,
    so each test is linear in the degree.  These one-sided scans stay apart
    from :func:`_cut`: a test needs no cut position, and the both-ends scan,
    which tests four conditions per step, made the slice enumerations, which
    run them per element, measurably slower.
    """
    if kind is _SHARP:
        return _sharp_indecomposable(f.images)
    if kind is _NATURAL:
        return _natural_indecomposable(f.images)
    return _sharp_indecomposable(f.images) and _natural_indecomposable(f.images)


def _sharp_indecomposable(images: tuple[int, ...]) -> bool:
    # f({1..i}) inside {1..i} for i < n <=> running max equals i
    top = i = 0
    for v in images[:-1]:
        i += 1
        if v > top:
            top = v
        if top == i:
            return False
    return True


def _natural_indecomposable(images: tuple[int, ...]) -> bool:
    # f({1..i}) inside {n-i+1..n} for i < n <=> running min exceeds n - i
    rest = len(images)
    low = rest + 1
    for v in images[:-1]:
        rest -= 1
        if v < low:
            low = v
        if low > rest:
            return False
    return True


@lru_cache(maxsize=None)
def _all_permutations(n: int) -> tuple[Permutation, ...]:
    return tuple(map(_perm, itertools.permutations(range(1, n + 1))))


def enumerate_permutations(n: int) -> tuple[Permutation, ...]:
    """All degree-n permutations in lexicographic one-line order, for
    n <= ``DEFAULT_PERMUTATION_BOUND``."""
    check_degree(n, DEFAULT_PERMUTATION_BOUND)
    return _all_permutations(n)


def enumerate_indecomposable(n: int, kind: IndecKind) -> tuple[Permutation, ...]:
    """All degree-n indecomposables of the given kind, in lexicographic order."""
    return _indecomposables(n, kind)


@lru_cache(maxsize=None)
def _indecomposables(n: int, kind: IndecKind) -> tuple[Permutation, ...]:
    # the doubly indecomposables filter the sharp slice, which keeps the
    # lexicographic order and skips the permutations it already rejected
    if kind is _SHARP:
        return tuple([f for f in enumerate_permutations(n) if _sharp_indecomposable(f.images)])
    if kind is _NATURAL:
        return tuple([f for f in enumerate_permutations(n) if _natural_indecomposable(f.images)])
    return tuple([f for f in _indecomposables(n, _SHARP) if _natural_indecomposable(f.images)])


def count_indecomposable(n: int, kind: IndecKind) -> int:
    """Number of degree-n indecomposables of the given kind, none of them built.

    A permutation is the chain of its prefix value sets
    ``{} < f({1}) < f({1,2}) < ... < {1..n}``.  It splits under the diagonal
    product exactly when a proper prefix set is ``{1..i}``, and under the
    anti-diagonal one exactly when it is ``{n-i+1..n}``.  So the count is the
    number of chains of value bitmasks that avoid those sets, summed in one
    pass over the masks in increasing order: O(2**n * n) additions.  The
    bound and its message are those of :func:`enumerate_permutations`.

    >>> [count_indecomposable(n, IndecKind.S2) for n in range(1, 8)]
    [1, 0, 0, 2, 22, 202, 1854]
    """
    check_degree(n, DEFAULT_PERMUTATION_BOUND)
    full = (1 << n) - 1
    forbidden = set()
    if kind is not _NATURAL:
        forbidden.update((1 << i) - 1 for i in range(1, n))
    if kind is not _SHARP:
        forbidden.update(full ^ ((1 << i) - 1) for i in range(1, n))
    bits = [1 << v for v in range(n)]
    chains = [0] * (full + 1)
    chains[0] = 1
    for mask in range(full):
        count = chains[mask]
        if count and mask not in forbidden:
            for bit in bits:
                if not mask & bit:
                    chains[mask | bit] += count
    return chains[full]


def duplex_factorize(f: Permutation) -> DuplexExpr:
    """Normal form of ``f`` as an expression over the doubly indecomposables.

    A doubly indecomposable permutation is a leaf.  Otherwise exactly one of
    the two products factors ``f`` nontrivially; the full factorization on
    that side is taken and each factor is factored in turn, the results
    joined with ``.`` for the diagonal product and ``*`` for the
    anti-diagonal one.  :func:`multiply_out` inverts this.

    Factors are index ranges of ``f.images`` with their lowest value, so no
    block is copied and only the leaves become :class:`Permutation`
    objects.  Each cut costs the size of the smaller piece it takes off
    (:func:`_cut`), so the whole factorization is O(n log n) on every
    shape.  The ranges sit on an explicit stack and the tree's text is
    written in preorder as they are visited, so any depth works.
    """
    images = f.images
    root = _cut(images, 0, len(images), 1)
    if root is None:
        return leaf_expr(f)
    labels: list[Permutation] = []
    # a chain's factors are tagged with the other product or are leaves, so
    # no root edge is contracted and the text is the plain nesting
    text = ["("]
    stack = [iter(_chain(images, 0, len(images), 1, root))]  # unvisited factors per open chain
    while stack:
        for start, end, low, cut in stack[-1]:
            if cut is _UNSCANNED:
                cut = _cut(images, start, end, low)
            if cut is not None:
                text.append("(")
                stack.append(iter(_chain(images, start, end, low, cut)))
                break
            block = images[start:end]
            labels.append(_perm(tuple(v - low + 1 for v in block) if low > 1 else block))
            text.append("|")
        else:
            stack.pop()
            text.append(")")
    return DuplexExpr(DecoratedTree(_tree("".join(text)), root[0]), labels)


_UNSCANNED = "unscanned"  # a factor whose first cut is not yet looked for


def _cut(images: tuple[int, ...], start: int, end: int, low: int) -> tuple[Tag, int, bool] | None:
    """The first cut found in ``images[start:end]``, a range holding the m
    values ``low .. low+m-1``: (tag of its product, position, whether the
    piece taken off is the one before it), or None when the range is doubly
    indecomposable.

    The range is scanned from both ends at once.  A prefix of length k is a
    first factor under ``.`` when its maximum is low+k-1 and under ``*``
    when its minimum is low+m-k; a suffix of length k is a last factor
    under ``.`` when its minimum is low+m-k and under ``*`` when its
    maximum is low+k-1.  Either side of a cut has at most m/2 values, so
    stopping at m/2 misses none, and a cut costs the length of the smaller
    piece.  No range of degree >= 2 has cuts of both tags.
    """
    m = end - start
    top = low - 1  # low+k-1 at step k
    bottom = low + m  # low+m-k at step k
    head_max = tail_max = 0
    head_min = tail_min = bottom
    j = end
    for i in range(start, start + m // 2):
        top += 1
        bottom -= 1
        j -= 1
        v = images[i]
        if v > head_max:
            head_max = v
        if v < head_min:
            head_min = v
        v = images[j]
        if v > tail_max:
            tail_max = v
        if v < tail_min:
            tail_min = v
        if head_max == top:
            return _DOT, i + 1, True
        if head_min == bottom:
            return _STAR, i + 1, True
        if tail_min == bottom:
            return _DOT, j, False
        if tail_max == top:
            return _STAR, j, False
    return None


def _chain(
    images: tuple[int, ...], start: int, end: int, low: int, cut: tuple[Tag, int, bool]
) -> list[tuple[int, int, int, object]]:
    """The factors, left to right, of the range whose first cut found is
    ``cut``, as (start, end, lowest value, first cut or _UNSCANNED).

    Each cut takes off its smaller piece as one factor, and the rest is
    scanned again.  Once the rest has no cut of the chain's product it is
    the last factor, and the cut of the other product found there, or
    None, is its own first cut.
    """
    tag = cut[0]
    head: list = []
    tail: list = []  # factors taken off the end, last one first
    while cut is not None and cut[0] is tag:
        at, from_head = cut[1], cut[2]
        # "." puts the piece before the cut at the bottom of the values, "*" at the top
        if tag is _DOT:
            before, after = low, low + at - start
        else:
            before, after = low + end - at, low
        if from_head:
            head.append((start, at, before, _UNSCANNED))
            start, low = at, after
        else:
            tail.append((at, end, after, _UNSCANNED))
            end, low = at, before
        cut = _cut(images, start, end, low)
    head.append((start, end, low, cut))
    head.extend(reversed(tail))
    return head


def multiply_out(x: DuplexExpr) -> Permutation:
    """Evaluate an expression whose labels are permutations, using the
    diagonal product for ``.`` and the anti-diagonal one for ``*``.

    No product is built: :func:`_place_blocks` shifts each label's images
    into its place, so the cost is linear at any depth.
    """
    if x.tree.tag is None:
        return x.labels[0]
    return _place_blocks(x.tree, [label.images for label in x.labels])


def _place_blocks(tree: DecoratedTree, blocks: Sequence[tuple[int, ...]]) -> Permutation:
    """The product that the tagged ``tree`` describes, its leaves holding
    the image tuples ``blocks`` left to right, read off the tree's text in
    two passes.

    The first pass sums the degree of every vertex.  The second gives each
    leaf a value offset: a ``.`` vertex fills its children's value ranges
    from the bottom, left to right, and a ``*`` vertex fills them from the
    top.  The leaves' images, shifted, are the result's, concatenated.
    """
    text = tree.shape.text
    degrees: list[int] = []  # of the vertices, in preorder
    open_vertices: list[int] = []  # their preorder indices
    leaf_degrees = map(len, blocks)
    for ch in text:
        if ch == "(":
            open_vertices.append(len(degrees))
            degrees.append(0)
        elif ch == "|":
            degrees[open_vertices[-1]] += next(leaf_degrees)
        else:
            degree = degrees[open_vertices.pop()]
            if open_vertices:
                degrees[open_vertices[-1]] += degree
    vertex_degrees = iter(degrees)
    leaves = iter(blocks)
    images: list[int] = []
    # per open vertex: [its next free offset, whether it fills from the top];
    # the first entry stands for the root's parent
    fills = [[0, False]]
    top_parity = 1 if tree.tag is _STAR else 0  # len(fills) % 2 at a "*" vertex
    for ch in text:
        if ch == ")":
            fills.pop()
            continue
        if ch == "(":
            degree = next(vertex_degrees)
        else:
            block = next(leaves)
            degree = len(block)
        fill = fills[-1]
        if fill[1]:
            fill[0] -= degree
            offset = fill[0]
        else:
            offset = fill[0]
            fill[0] += degree
        if ch == "(":
            from_top = len(fills) % 2 == top_parity
            fills.append([offset + degree if from_top else offset, from_top])
        else:
            images.extend([v + offset for v in block])
    return _perm(tuple(images))


def format_permutation(f: Permutation) -> str:
    """``(3,1,2)``: the image tuple's repr without its spaces; the images
    are exact ints, so the repr is their decimal text.  Degree 1 drops the
    repr's trailing comma."""
    images = f.images
    if len(images) == 1:
        return "(1)"
    return repr(images).replace(" ", "")


_PERM_TEXT = re.compile(r"\(\s*\d+\s*(?:,\s*\d+\s*)*\)")


def parse_permutation(text: str) -> Permutation:
    """Parse ``"(3,1,2)"``; whitespace is insignificant.  Rejects sequences
    that are not bijections, naming the repeated or missing value."""
    stripped = text.strip()
    if not _PERM_TEXT.fullmatch(stripped):
        raise ParseError(f"expected a parenthesized list of integers, got {text!r}")
    values = tuple(int(v) for v in stripped[1:-1].split(","))
    try:
        return Permutation(values)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
