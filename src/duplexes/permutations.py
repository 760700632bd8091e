"""Permutations under the two block-sum products and their factorizations.

A permutation of degree n is stored in one-line notation, the tuple
``(f(1), ..., f(n))``.  Besides group composition, two associative
degree-adding products are defined:

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
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .decorated_trees import GENERATOR_TREE, DuplexExpr, DuplexOps, Tag, _product, eval_hom, leaf_expr
from .errors import BoundExceeded, DegreeMismatch, InvalidDegree, ParseError

DEFAULT_PERMUTATION_BOUND = 8


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n} in one-line notation; degree n >= 1."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        _validate_images(self.images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __str__(self) -> str:
        return format_permutation(self)


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


def compose(f: Permutation, g: Permutation) -> Permutation:
    """Group composition: ``compose(f, g)(i) = f(g(i))``."""
    if f.degree != g.degree:
        raise DegreeMismatch(f"cannot compose degrees {f.degree} and {g.degree}")
    return Permutation(tuple(f.images[j - 1] for j in g.images))


def sharp(f: Permutation, g: Permutation) -> Permutation:
    """Diagonal block sum.

    >>> str(sharp(Permutation((3, 1, 2)), Permutation((3, 2, 1))))
    '(3,1,2,6,5,4)'
    """
    n = f.degree
    return Permutation(f.images + tuple(n + v for v in g.images))


def natural(f: Permutation, g: Permutation) -> Permutation:
    """Anti-diagonal block sum.

    >>> str(natural(Permutation((3, 1, 2)), Permutation((3, 2, 1))))
    '(6,4,5,3,2,1)'
    """
    m = g.degree
    return Permutation(tuple(m + v for v in f.images) + g.images)


# convention used everywhere: sharp plays ".", natural plays "*"
PERM_OPS = DuplexOps(sharp, natural)


def omega(n: int) -> Permutation:
    """The order-reversing permutation ``i -> n + 1 - i``."""
    if n < 1:
        raise InvalidDegree(f"degree must be >= 1, got {n}")
    return Permutation(tuple(range(n, 0, -1)))


def xi(f: Permutation) -> Permutation:
    """Compose with the order reversal on the left; an involution that swaps
    the roles of the two block sums."""
    n = f.degree
    return Permutation(tuple(n + 1 - v for v in f.images))


def delta(f: Permutation) -> int:
    """Smallest i such that f maps {1..i} into itself (i = n always works)."""
    top = 0
    for i, v in enumerate(f.images, 1):
        top = max(top, v)
        if top == i:
            return i
    raise AssertionError("unreachable: i = n always satisfies the condition")


def sharp_factorize(f: Permutation) -> tuple[Permutation, ...]:
    """The unique factorization of ``f`` under the diagonal block sum.

    Splits at every prefix {1..i} that f maps into itself; each block,
    shifted back down, is indecomposable, and re-multiplying with
    :func:`sharp` restores ``f``.

    >>> [str(g) for g in sharp_factorize(Permutation((3, 1, 2, 6, 5, 4)))]
    ['(3,1,2)', '(3,2,1)']
    """
    return tuple(Permutation(block) for block in _sharp_blocks(f.images))


def natural_factorize(f: Permutation) -> tuple[Permutation, ...]:
    """Unique factorization under the anti-diagonal block sum: the sharp
    factorization transported through :func:`xi`, read off directly."""
    return tuple(Permutation(block) for block in _natural_blocks(f.images))


def _sharp_blocks(images: tuple[int, ...]) -> list[tuple[int, ...]]:
    # split after every prefix {1..i}; block start+1..i holds start+1..i
    blocks = []
    start = top = 0
    for i, v in enumerate(images, 1):
        if v > top:
            top = v
        if top == i:
            blocks.append(tuple(v - start for v in images[start:i]))
            start = i
    return blocks


def _natural_blocks(images: tuple[int, ...]) -> list[tuple[int, ...]]:
    # split after every prefix {n-i+1..n}; block start+1..i holds n-i+1..n-start
    n = len(images)
    blocks = []
    start = 0
    low = n + 1
    for i, v in enumerate(images, 1):
        if v < low:
            low = v
        if low > n - i:
            blocks.append(tuple(v - (n - i) for v in images[start:i]))
            start = i
    return blocks


def is_indecomposable(f: Permutation, kind: IndecKind) -> bool:
    """Whether ``f`` admits no nontrivial factorization of the given kind.

    Degree 1 is indecomposable of every kind.  Uses running prefix extrema,
    so each test is linear in the degree.
    """
    if kind is IndecKind.SHARP:
        return _sharp_indecomposable(f.images)
    if kind is IndecKind.NATURAL:
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
    return tuple(Permutation(p) for p in itertools.permutations(range(1, n + 1)))


def enumerate_permutations(n: int, bound: int = DEFAULT_PERMUTATION_BOUND) -> tuple[Permutation, ...]:
    """All degree-n permutations in lexicographic one-line order."""
    _check_degree(n, bound)
    return _all_permutations(n)


def _check_degree(n: int, bound: int) -> None:
    if n < 1:
        raise InvalidDegree(f"degree must be >= 1, got {n}")
    if n > bound:
        raise BoundExceeded(f"degree {n} exceeds the enumeration bound {bound}")


def enumerate_indecomposable(
    n: int, kind: IndecKind, bound: int = DEFAULT_PERMUTATION_BOUND
) -> tuple[Permutation, ...]:
    """All degree-n indecomposables of the given kind, in lexicographic order."""
    return _indecomposables(n, kind, bound)


@lru_cache(maxsize=None)
def _indecomposables(n: int, kind: IndecKind, bound: int) -> tuple[Permutation, ...]:
    return tuple(f for f in enumerate_permutations(n, bound) if is_indecomposable(f, kind))


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
    _check_degree(n, DEFAULT_PERMUTATION_BOUND)
    full = (1 << n) - 1
    forbidden = set()
    if kind is not IndecKind.NATURAL:
        forbidden.update((1 << i) - 1 for i in range(1, n))
    if kind is not IndecKind.SHARP:
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

    Factors are image tuples on an explicit stack and only the leaves become
    :class:`Permutation` objects; each chain is one n-ary product.  Every
    vertex scans its factor once, so the cost is linear in the degree times
    the nesting depth, and any depth works.
    """
    root = _split(f.images)
    if root is None:
        return leaf_expr(f)
    labels: list[Permutation] = []
    # frames: (tag of the vertex, its unvisited blocks, trees of visited blocks)
    stack = [(*root, [])]
    while stack:
        tag, blocks, parts = stack[-1]
        for block in blocks:
            split = _split(block)
            if split is not None:
                stack.append((*split, []))
                break
            labels.append(Permutation(block))
            parts.append(GENERATOR_TREE)
        else:
            stack.pop()
            tree = _product(tag, parts)
            if not stack:
                return DuplexExpr(tree, labels)
            stack[-1][2].append(tree)


def _split(images: tuple[int, ...]) -> tuple[Tag, Iterator[tuple[int, ...]]] | None:
    """(tag, iterator over the blocks) of the side that factors ``images``
    nontrivially, or None when it is doubly indecomposable."""
    blocks = _sharp_blocks(images)
    if len(blocks) > 1:
        return Tag.DOT, iter(blocks)
    blocks = _natural_blocks(images)
    if len(blocks) > 1:
        return Tag.STAR, iter(blocks)
    return None


def multiply_out(x: DuplexExpr) -> Permutation:
    """Evaluate an expression whose labels are permutations, using the
    diagonal product for ``.`` and the anti-diagonal one for ``*``."""
    return eval_hom(x, {lab: lab for lab in set(x.labels)}, PERM_OPS)


def format_permutation(f: Permutation) -> str:
    return "(" + ",".join(str(v) for v in f.images) + ")"


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
