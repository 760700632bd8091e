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
indecomposable permutations (:func:`duplex_factorize`).  That tree is a
:mod:`duplexes.decorated_trees` expression, a module read on the first such
factorization: nothing else here needs it.
"""
from __future__ import annotations

import enum
import itertools
import operator
import re
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from ._values import DuplexOps, _build, _ColumnCache, _Value
from .errors import ParseError, check_degree, check_member, check_text

DEFAULT_PERMUTATION_BOUND = 8

# what duplex_factorize builds its result with, read from decorated_trees on
# its first call (see _read_decorated_trees), so that no other use loads it;
# kept as globals, not a function-level import, because that import costs about
# 1 µs against a call of about 5 µs on the degree-8 slice
GENERATOR_TREE = _decorated = _expr = None


class Permutation(_Value):
    """A bijection of {1..n} in one-line notation; degree n >= 1.  The
    images must be integers (``operator.index``), else ``TypeError``."""

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        images = tuple(map(operator.index, images))
        _validate_images(images)
        object.__setattr__(self, "images", images)

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


_perm = Permutation._make  # the permutation of images the library built from valid ones; unchecked


_ONE = _perm((1,))  # every degree-1 factor: the image of the generator under alpha


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


# The symbols of the first cuts (see _cut) that split each kind.  No range
# of degree >= 2 has cuts of both products, so a permutation's first cut
# alone decides all three kinds.
_SPLITTING_TAGS = {
    IndecKind.SHARP: (".",),
    IndecKind.NATURAL: ("*",),
    IndecKind.S2: (".", "*"),
}


# Each product's one rule: one operand's images shifted up by the other's
# degree, then the two image tuples added, f's first.
def _shifted(images: tuple[tuple[int, ...], ...], by: int) -> tuple[tuple[int, ...], ...]:
    return tuple([tuple([by + v for v in f]) for f in images])


def form(f: Permutation) -> tuple[int, ...]:
    """A law audit's form of ``f``: its images."""
    return f.images


def bulk_products() -> Callable[[str, tuple, tuple], Iterable[tuple]]:
    """A fresh ``products(op, xs, ys)``: the images of ``x op y`` for all x of
    ``xs`` and y of ``ys``, x major, each column's one shift cached."""
    shifted = _ColumnCache(_shifted)

    def products(op: str, xs: tuple[tuple, ...], ys: tuple[tuple, ...]) -> Iterable[tuple]:
        if op == ".":
            return itertools.starmap(operator.add, itertools.product(xs, shifted[ys, len(xs[0])]))
        return itertools.starmap(operator.add, itertools.product(shifted[xs, len(ys[0])], ys))

    return products


def sharp(f: Permutation, g: Permutation) -> Permutation:
    """Diagonal block sum.

    >>> str(sharp(Permutation((3, 1, 2)), Permutation((3, 2, 1))))
    '(3,1,2,6,5,4)'
    """
    images = f.images
    return _perm(images + _shifted((g.images,), len(images))[0])


def natural(f: Permutation, g: Permutation) -> Permutation:
    """Anti-diagonal block sum.

    >>> str(natural(Permutation((3, 1, 2)), Permutation((3, 2, 1))))
    '(6,4,5,3,2,1)'
    """
    images = g.images
    return _perm(_shifted((f.images,), len(images))[0] + images)


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
    return _factorize(f, ".")


def natural_factorize(f: Permutation) -> tuple[Permutation, ...]:
    """Unique factorization under the anti-diagonal block sum: splits at every
    prefix {1..i} that f maps onto its top i values."""
    return _factorize(f, "*")


def _factorize(f: Permutation, op: str) -> tuple[Permutation, ...]:
    """The factors of ``f`` under the product ``op``, ``.`` or ``*``: the
    ranges of the :func:`_chain` of its first cut, shifted down, each
    degree-1 range ``_ONE``.  With no cut of that product, including when it splits under
    the other one, ``f`` is its own single factor."""
    images = f.images
    n = len(images)
    cut = _cut(images, 0, n, 1)
    if cut is None or cut[0] != op:
        return (f,)
    return tuple(
        [
            _ONE if end - start == 1 else _perm(tuple([v - low + 1 for v in images[start:end]]))
            for start, end, low, _ in reversed(_chain(images, 0, n, 1, cut))
        ]
    )


def is_indecomposable(f: Permutation, kind: IndecKind) -> bool:
    """Whether ``f`` admits no nontrivial factorization of the given kind.

    Degree 1 is indecomposable of every kind.  The answer is the symbol
    of the first cut :func:`_cut` finds, so a test scans at most half the
    degree.  A ``kind`` that is not an :class:`IndecKind` member raises
    ``TypeError``.
    """
    check_member("kind", kind, IndecKind)
    images = f.images
    cut = _cut(images, 0, len(images), 1)
    return cut is None or cut[0] not in _SPLITTING_TAGS[kind]


@lru_cache(maxsize=None)
def _all_permutations(n: int) -> tuple[Permutation, ...]:
    return _build(Permutation, list(itertools.permutations(range(1, n + 1))))


def enumerate_permutations(n: int) -> tuple[Permutation, ...]:
    """All degree-n permutations in lexicographic one-line order, for
    n <= ``DEFAULT_PERMUTATION_BOUND``."""
    check_degree(n, DEFAULT_PERMUTATION_BOUND)
    return _all_permutations(n)


def enumerate_indecomposable(n: int, kind: IndecKind) -> tuple[Permutation, ...]:
    """All degree-n indecomposables of the given kind, in lexicographic order:
    the slice of :func:`enumerate_permutations` whose cuts, read off the
    degree's cached :func:`_dot_cuts` masks, do not split the kind.  The
    ``*`` cuts are the masks read in reverse, as :func:`xi` swaps the two
    products and reverses the slice; no permutation is scanned.  A ``kind``
    that is not an :class:`IndecKind` member raises ``TypeError``, before
    the degree is checked."""
    check_member("kind", kind, IndecKind)
    check_degree(n, DEFAULT_PERMUTATION_BOUND)
    dots = _dot_cuts(n)
    if kind is IndecKind.SHARP:
        splits = dots
    elif kind is IndecKind.NATURAL:
        splits = reversed(dots)
    else:
        splits = map(operator.or_, dots, reversed(dots))
    return tuple(itertools.compress(_all_permutations(n), map(operator.not_, splits)))


@lru_cache(maxsize=None)
def _dot_cuts(n: int) -> tuple[int, ...]:
    """Each degree-n permutation's ``.`` cuts, in the slice's order: bit i-1
    is set when its first i images are {1..i}, for 0 < i < n.  The slice is
    n runs, one per first image v, each the degree n-1 slice with the values
    from v up raised by one.  A prefix of length i > 1 is {1..i} exactly
    when v <= i and the rest's prefix of length i-1 is {1..i-1}, so run v
    holds the lower masks with the bits below v-2 cleared, shifted up one;
    run 1 also sets bit 0."""
    if n == 1:
        return (0,)
    lower = _dot_cuts(n - 1)
    runs = [map(operator.or_, map(operator.lshift, lower, itertools.repeat(1)), itertools.repeat(1))]
    runs += [
        map(operator.lshift, map(operator.and_, lower, itertools.repeat(-1 << (v - 2))), itertools.repeat(1))
        for v in range(2, n + 1)
    ]
    return tuple(itertools.chain.from_iterable(runs))


def count_indecomposable(n: int, kind: IndecKind) -> int:
    """Number of degree-n indecomposables of the given kind, none of them built.

    A permutation is the chain of its prefix value sets
    ``{} < f({1}) < f({1,2}) < ... < {1..n}``.  It splits under the diagonal
    product exactly when a proper prefix set is ``{1..i}``, and under the
    anti-diagonal one exactly when it is ``{n-i+1..n}``.  So the count is the
    number of chains of value bitmasks that avoid those sets, summed in one
    pass over the masks in increasing order: O(2**n * n) additions.  The
    bound and its message are those of :func:`enumerate_permutations`; a
    ``kind`` that is not an :class:`IndecKind` member raises ``TypeError``.

    >>> [count_indecomposable(n, IndecKind.S2) for n in range(1, 8)]
    [1, 0, 0, 2, 22, 202, 1854]
    """
    check_member("kind", kind, IndecKind)
    check_degree(n, DEFAULT_PERMUTATION_BOUND)
    full = (1 << n) - 1
    splitting = _SPLITTING_TAGS[kind]
    forbidden = set()
    if "." in splitting:
        forbidden.update((1 << i) - 1 for i in range(1, n))
    if "*" in splitting:
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
    objects; every degree-1 range is the one leaf ``_ONE``, with no scan.
    Each cut costs the size of the smaller piece it takes off (:func:`_cut`),
    so the whole factorization is O(n log n) on every shape.  The pending
    factors of all open chains sit on one flat stack, each chain's in pop
    order above a ``None`` that closes it, and the tree's text is written in
    preorder as they are popped, so any depth works.  The tree and the
    labels are built here, so the result skips :class:`DuplexExpr`'s check.
    The first call reads :mod:`duplexes.decorated_trees`.
    """
    if _expr is None:
        _read_decorated_trees()
    images = f.images
    root = _cut(images, 0, len(images), 1)
    if root is None:
        return _expr(GENERATOR_TREE, (f,))
    labels: list[Permutation] = []
    # a chain's factors are tagged with the other product or are leaves, so
    # no root edge is contracted and the text is the plain nesting
    text = ["("]
    pending = [None]  # per open chain: None, then its unvisited factors in pop order
    pending += _chain(images, 0, len(images), 1, root)
    pop, push = pending.pop, pending.extend
    write, label = text.append, labels.append
    while pending:
        factor = pop()
        if factor is None:
            write(")")
            continue
        start, end, low, cut = factor
        if end - start == 1:
            label(_ONE)
            write("|")
            continue
        if cut is False:
            cut = _cut(images, start, end, low)
        if cut is None:
            block = images[start:end]
            label(_perm(tuple([v - low + 1 for v in block]) if low > 1 else block))
            write("|")
        else:
            write("(")
            pending.append(None)
            push(_chain(images, start, end, low, cut))
    return _expr(_decorated("".join(text) + root[0]), tuple(labels))


def _read_decorated_trees() -> None:
    # binds the module globals, in order: once _expr is set, the other two are
    global GENERATOR_TREE, _decorated, _expr
    from .decorated_trees import GENERATOR_TREE, _decorated, _expr


def _cut(images: tuple[int, ...], start: int, end: int, low: int) -> tuple[str, int, bool] | None:
    """The first cut found in ``images[start:end]``, a range holding the m
    values ``low .. low+m-1``: (its product's symbol, ``.`` or ``*``,
    position, whether the piece taken off is the one before it), or None
    when the range is doubly indecomposable.

    The range is scanned from both ends at once.  A prefix of length k is a
    first factor under ``.`` when its maximum is low+k-1 and under ``*``
    when its minimum is low+m-k; a suffix of length k is a last factor
    under ``.`` when its minimum is low+m-k and under ``*`` when its
    maximum is low+k-1.  Either side of a cut has at most m/2 values, so
    stopping at m/2 misses none, and a cut costs the length of the smaller
    piece.  No range of degree >= 2 has cuts of both products.
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
            return ".", i + 1, True
        if head_min == bottom:
            return "*", i + 1, True
        if tail_min == bottom:
            return ".", j, False
        if tail_max == top:
            return "*", j, False
    return None


def _chain(
    images: tuple[int, ...], start: int, end: int, low: int, cut: tuple[str, int, bool]
) -> list[tuple[int, int, int, tuple[str, int, bool] | bool | None]]:
    """The factors of the range whose first cut found is ``cut``, in pop
    order (right to left), as (start, end, lowest value, first cut), the
    first cut ``False`` when the factor is not scanned yet.

    Each cut takes off its smaller piece as one factor, and the rest is
    scanned again.  Once the rest has no cut of the chain's product it is
    the last factor scanned, and the cut of the other product found there,
    or None, travels with it as its own first cut; a degree-1 rest is not
    scanned and has None.
    """
    op = cut[0]
    head: list = []  # factors taken off the front, first one first
    factors: list = []  # taken off the end, last one first: already in pop order
    while cut is not None and cut[0] == op:
        at, from_head = cut[1], cut[2]
        # "." puts the piece before the cut at the bottom of the values, "*" at the top
        if op == ".":
            before, after = low, low + at - start
        else:
            before, after = low + end - at, low
        if from_head:
            head.append((start, at, before, False))
            start, low = at, after
        else:
            factors.append((at, end, after, False))
            end, low = at, before
        cut = _cut(images, start, end, low) if end - start > 1 else None
    factors.append((start, end, low, cut))
    head.reverse()
    factors += head
    return factors


def multiply_out(x: DuplexExpr) -> Permutation:
    """Evaluate an expression whose labels are permutations, using the
    diagonal product for ``.`` and the anti-diagonal one for ``*``.

    No product is built: :func:`_place_blocks` shifts each label's images
    into its place, so the cost is linear at any depth.
    """
    if x.tree.form == "||":
        return x.labels[0]
    return _place_blocks(x.tree, [label.images for label in x.labels])


def _place_blocks(tree: DecoratedTree, blocks: Sequence[tuple[int, ...]]) -> Permutation:
    """The product that the tagged ``tree`` describes, its leaves holding
    the image tuples ``blocks`` left to right, read off the tree's text in
    two passes.

    The first pass sums the degree of every vertex.  The second gives each
    leaf a value offset: a ``.`` vertex fills its children's value ranges
    from the bottom, left to right, and a ``*`` vertex fills them from the
    top.  The leaves' images, shifted, are the result's, concatenated; a
    degree-1 leaf, the block ``(1,)``, adds the one value ``offset + 1``.
    Both passes read the root's interior and keep the vertex being read in
    locals, its open ancestors' state on a stack.
    """
    form = tree.form
    inner = form[1:-2]
    degrees: list[int] = []  # of the vertices below the root, in preorder
    sums: list[tuple[int, int]] = []  # per open ancestor: its preorder index, its degree so far
    vertex, degree = -1, 0  # the root's: it never closes, so its index is not used
    leaf_degrees = map(len, blocks)
    for ch in inner:
        if ch == "|":
            degree += next(leaf_degrees)
        elif ch == "(":
            sums.append((vertex, degree))
            vertex = len(degrees)
            degrees.append(0)
            degree = 0
        else:
            degrees[vertex] = degree
            vertex, above = sums.pop()
            degree += above
    # degree is the root's now; from here on, free is the next free offset
    # of the vertex being filled, and the stack holds its ancestors' fills
    from_top = form[-1] == "*"
    free = degree if from_top else 0
    fills: list[tuple[int, bool]] = []
    vertex_degrees = iter(degrees)
    leaves = iter(blocks)
    images: list[int] = []
    append, extend = images.append, images.extend
    for ch in inner:
        if ch == "|":
            block = next(leaves)
            degree = len(block)
            if from_top:
                free -= degree
                offset = free
            else:
                offset = free
                free += degree
            if degree == 1:
                append(offset + 1)
            else:
                extend([v + offset for v in block])
        elif ch == "(":
            # the child vertex fills the range it takes the other way round
            degree = next(vertex_degrees)
            if from_top:
                free -= degree
                fills.append((free, True))
            else:
                fills.append((free + degree, False))
                free += degree
            from_top = not from_top
        else:
            free, from_top = fills.pop()
    return _perm(tuple(images))


def format_permutation(f: Permutation) -> str:
    """``(3,1,2)``: the images, exact ints, through the degree's ``%d``
    template.  Degree 1, the most common label in normal forms, returns
    its one text without a lookup."""
    images = f.images
    if len(images) == 1:
        return "(1)"
    return _template(len(images)) % images


@lru_cache(maxsize=64)
def _template(n: int) -> str:
    """``(%d,...,%d)`` with n fields."""
    return "(" + ",".join(["%d"] * n) + ")"


_PERM_TEXT = re.compile(r"\(\s*[0-9]+\s*(?:,\s*[0-9]+\s*)*\)")  # ASCII numerals; \d takes any Unicode digit


def parse_permutation(text: str) -> Permutation:
    """Parse ``"(3,1,2)"``; whitespace is insignificant and numerals are
    ASCII digits.  Rejects sequences that are not bijections, naming the
    repeated or missing value."""
    check_text(text)
    stripped = text.strip()
    if not _PERM_TEXT.fullmatch(stripped):
        raise ParseError(f"expected a parenthesized list of integers, got {text!r}")
    try:
        values = tuple(int(v) for v in stripped[1:-1].split(","))
    except ValueError:  # a numeral past the interpreter's int-to-str digit cap
        raise ParseError("a value has too many digits to read as an integer") from None
    try:
        return Permutation(values)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
