"""Decorated planar trees: the free two-operation structure.

A decorated tree is a planar tree whose internal vertices carry ``.`` /
``*`` signs that alternate by level parity.  Only the sign class of the root is
stored (the tag); every other vertex sign is derived, so an inconsistent
decoration cannot be built.  The single leaf tree is untagged and plays the
role of the generator.  A decorated tree is one string, its form: the
shape's canonical text (see :mod:`duplexes.planar_trees`) and the root's
symbol, ``"(||)."`` for the dot-rooted 2-leaf tree and ``"||"`` for the
leaf; no ``PlanarTree`` is built unless ``.shape`` is read.

The two products join trees under a fresh root and then contract the root
edges of exactly those arguments whose root already carries the sign being
applied.  That rule is written once, on forms: the scalar products apply it
to one pair, and the function :func:`bulk_products` returns to every pair
of two columns at once.
:func:`parse_expr` follows it as it writes a whole expression's text: a
group with its enclosing chain's operator loses its parentheses.  Both
products are associative, and every tagged tree factors uniquely into
arguments of the opposite class, which is what makes evaluation into any
other two-operation structure well defined (:func:`eval_hom`).

Expressions (``DuplexExpr``) pair a decorated tree with one generator label
per leaf.  The text grammar accepts chains of a single operation without
parentheses (``e.e.e``) and requires parentheses to mix operations, e.g.
``(e.e.e)*(e.(e*e))``.
"""
from __future__ import annotations

import enum
import re
from functools import reduce
from itertools import chain, cycle, islice, product
from operator import add, attrgetter
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from ._values import DuplexOps, _build, _ColumnCache, _Value
from .errors import (
    ExprSyntaxError,
    MixedChainError,
    ParseError,
    UnboundGenerator,
    UnknownGenerator,
    check_degree,
    check_text,
)
from .planar_trees import PlanarTree, _tree, _tree_texts, parse_tree

DEFAULT_DECORATED_BOUND = 8


class Tag(enum.Enum):
    """Sign class of a decorated tree's root."""

    DOT = "."
    STAR = "*"

    @property
    def other(self) -> "Tag":
        return Tag.STAR if self is Tag.DOT else Tag.DOT


class DecoratedTree(_Value):
    """A planar tree with derived vertex signs; untagged iff it is the leaf.

    The tree is one string, its form: the shape's canonical text and the
    root's symbol, as a ``PlanarTree`` is its text; ``.text``, ``.tag`` and
    ``.shape`` are read off it, the last building the ``PlanarTree`` on
    each read.  The constructor takes a ``PlanarTree`` shape and a tag,
    ``Tag.DOT``, ``Tag.STAR`` or ``None`` (else ``TypeError``), that fits
    the shape (else ``ValueError``), and the repr, hash, pickle and copy
    are those of the tuple ``(shape, tag)``."""

    __slots__ = ("form",)
    form: str

    def __init__(self, shape: PlanarTree, tag: Tag | None):
        if not isinstance(shape, PlanarTree):
            raise TypeError(f"shape must be a PlanarTree, got {shape!r}")
        if tag is not None and tag.__class__ is not Tag:
            raise TypeError(f"tag must be Tag.DOT, Tag.STAR or None, got {tag!r}")
        if shape.is_leaf != (tag is None):
            raise ValueError("exactly the leaf tree carries no tag")
        object.__setattr__(self, "form", shape.text + ("|" if tag is None else tag.value))

    def __hash__(self) -> int:
        # a tuple hashes through its items' hashes, and the shape's is that
        # of (text,): so this is hash((shape, tag)), with no tree built
        return hash(((self.text,), self.tag))

    def __repr__(self) -> str:
        return f"DecoratedTree(shape={self.shape!r}, tag={self.tag!r})"

    def __reduce__(self):
        return DecoratedTree, (self.shape, self.tag)

    @property
    def text(self) -> str:
        return self.form[:-1]

    @property
    def tag(self) -> Tag | None:
        return _TAGS[self.form[-1]]

    @property
    def shape(self) -> PlanarTree:
        return _tree(self.text)

    @property
    def degree(self) -> int:
        return self.form.count("|", 0, -1)  # the leaf's root symbol is "|" too


_decorated = DecoratedTree._make  # of a form the library built; unchecked

_TAGS = {"|": None, ".": Tag.DOT, "*": Tag.STAR}  # by root symbol

GENERATOR_TREE = _decorated("||")


form = attrgetter("form")  # a law audit's form of a tree: the one string it is


# Each product's one rule: a factor of an op-product enters as its text,
# without the root's parentheses when the root is op's own (the root edge
# is contracted); a binary product joins two factors under a new root.
def _tree_parts(op: str, forms: Iterable[str]) -> tuple[str, ...]:
    return tuple([f[1:-2] if f[-1] == op else f[:-1] for f in forms])


_TEMPLATES = {op: f"(%s%s){op}".__mod__ for op in ".*"}


def bulk_products() -> Callable[[str, tuple, tuple], Iterable[str]]:
    """A fresh ``products(op, xs, ys)``: the forms of ``x op y`` for all x
    of the forms ``xs`` and y of ``ys``, x major, each column's parts cached."""
    tree_parts = _ColumnCache(_tree_parts)

    def products(op: str, xs: tuple[str, ...], ys: tuple[str, ...]) -> Iterable[str]:
        return map(_TEMPLATES[op], product(tree_parts[op, xs], tree_parts[op, ys]))

    return products


def tree_dot(t1: DecoratedTree, t2: DecoratedTree) -> DecoratedTree:
    """The ``.`` product: graft and absorb dot-rooted arguments into the root."""
    return _decorated(_TEMPLATES["."](_tree_parts(".", (t1.form, t2.form))))


def tree_star(t1: DecoratedTree, t2: DecoratedTree) -> DecoratedTree:
    """The ``*`` product: graft and absorb star-rooted arguments into the root."""
    return _decorated(_TEMPLATES["*"](_tree_parts("*", (t1.form, t2.form))))


DECORATED_OPS = DuplexOps(tree_dot, tree_star)


def _all_decorated(n: int) -> tuple[DecoratedTree, ...]:
    if n == 1:
        return (GENERATOR_TREE,)
    texts = _tree_texts(n)
    return _build(DecoratedTree, list(map(add, chain.from_iterable(zip(texts, texts)), cycle(".*"))))


def enumerate_decorated(n: int) -> tuple[DecoratedTree, ...]:
    """All decorated trees of degree ``n``: each shape with each tag (2 per
    shape for n >= 2), shapes in canonical order with ``.`` before ``*``;
    n <= ``DEFAULT_DECORATED_BOUND``.  Nothing is cached but the shapes'
    texts: each call builds fresh trees, equal to the last."""
    check_degree(n, DEFAULT_DECORATED_BOUND)
    return _all_decorated(n)


def format_decorated(t: DecoratedTree) -> str:
    """The tree's text and its root's symbol in brackets, ``-`` for the
    leaf's, as a law audit's witness prints: ``(||)[.]``."""
    return f"{t.text}[{t.form[-1].replace('|', '-')}]"


class DuplexExpr(_Value):
    """A decorated tree with one generator label per leaf; two expressions
    are equal when their trees and labels are.

    ``alphabet``, when given, is only checked: every label must be in it.
    """

    __slots__ = ("tree", "labels")
    tree: DecoratedTree
    labels: tuple[Hashable, ...]

    def __init__(self, tree: DecoratedTree, labels: Iterable[Hashable], alphabet: Iterable | None = None):
        if not isinstance(tree, DecoratedTree):
            raise TypeError(f"tree must be a DecoratedTree, got {tree!r}")
        labels = tuple(labels)
        n = tree.degree
        if len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        if alphabet is not None:
            alphabet = frozenset(alphabet)
            stray = [lab for lab in labels if lab not in alphabet]
            if stray:
                raise ValueError(f"labels {stray!r} not in the declared alphabet")
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "labels", labels)

    @property
    def degree(self) -> int:
        return self.tree.degree

    def __str__(self) -> str:
        return format_expr(self)


_expr = DuplexExpr._make  # of a tree and one label per leaf the library built; unchecked


def leaf_expr(label: Hashable) -> DuplexExpr:
    """Degree-1 expression: the generator ``label``."""
    return _expr(GENERATOR_TREE, (label,))


def dot(x: DuplexExpr, y: DuplexExpr) -> DuplexExpr:
    return _expr(tree_dot(x.tree, y.tree), x.labels + y.labels)


def star(x: DuplexExpr, y: DuplexExpr) -> DuplexExpr:
    return _expr(tree_star(x.tree, y.tree), x.labels + y.labels)


def eval_hom(x: DuplexExpr, assignment: Mapping, ops: DuplexOps):
    """Image of ``x`` under the homomorphism sending each generator to its
    assigned value.

    Well defined because a tagged tree factors uniquely over the opposite
    sign class: each vertex is the product, under its derived sign's
    operation, of its children's values, folded left to right.  One loop
    over the shape's text computes them, taking the labels left to right,
    so any depth works; the cost is that of the carrier's products.
    """
    labels = iter(x.labels)

    def value(label):
        try:
            return assignment[label]
        except KeyError:
            raise UnboundGenerator(f"no value assigned to generator {label!r}") from None

    form = x.tree.form
    if form == "||":
        return value(x.labels[0])
    op_of_level = (ops.dot, ops.star) if form[-1] == "." else (ops.star, ops.dot)
    stack: list[list] = [[]]  # a vertex at depth d has its values at stack[d]
    for ch in form[1:-2]:
        if ch == "(":
            stack.append([])
        elif ch == "|":
            stack[-1].append(value(next(labels)))
        else:
            values = stack.pop()
            stack[-1].append(reduce(op_of_level[len(stack) % 2], values))
    return reduce(op_of_level[0], stack[0])


# --- text format ------------------------------------------------------------

# The text of a valid expression holds no character outside its tokens but
# whitespace, so its tokens are one findall.  A bad character is one outside
# the grammar, or a digit that does not continue an identifier.
_TOKEN_TEXTS = re.compile(r"[a-z][a-z0-9]*|[.*()]")
_BAD_CHARACTER = re.compile(r"[^\sa-z.*()](?<![a-z0-9][0-9])")
_OPS = frozenset(".*")
_NOT_ATOMS = frozenset(").*")
# the symbols of a tagged root's levels, by depth parity
_LEVEL_SYMBOLS = {".": (".", "*"), "*": ("*", ".")}


def format_expr(x: DuplexExpr, format_label: Callable[[Any], str] = str) -> str:
    """Render as expression text; parses back to an equal value when the
    labels are grammar identifiers.

    Every vertex below the root is parenthesized and its children are joined
    by its derived sign.  One loop over the shape's text, tracking the
    depth, so any depth works.
    """
    labels = iter(x.labels)
    form = x.tree.form
    if form == "||":
        return format_label(x.labels[0])
    symbol_of_level = _LEVEL_SYMBOLS[form[-1]]
    out: list[str] = []
    # every child is followed by its parent's symbol; a vertex closing turns
    # the symbol after its last child into ")" (at the root: drops it)
    depth = 0  # of the innermost open vertex; the root's is 0
    for ch in form[1:-2]:
        if ch == "(":
            out.append("(")
            depth += 1
        elif ch == "|":
            out.append(format_label(next(labels)))
            out.append(symbol_of_level[depth % 2])
        else:
            depth -= 1
            out[-1] = ")"
            out.append(symbol_of_level[depth % 2])
    out.pop()
    return "".join(out)


def parse_expr(text: str, alphabet: Iterable) -> DuplexExpr:
    """Parse expression text over the given generator alphabet.

    Unparenthesized chains must stick to one operation; ``·`` is accepted
    for ``.``.  Each chain becomes one n-ary product.  Three linear steps,
    with no recursion, so any nesting depth works: one regex search for a
    character outside the grammar and one ``findall`` of the tokens; a
    pass that checks the grammar and fixes each group's operator (group 0
    is the top level, group k the k-th ``(``); and a pass that writes the
    tree's text once.  A group without an operator is transparent, and one
    with the operator of the nearest enclosing group that has one is
    contracted into it, as the products contract a root edge; every other
    group is a vertex and writes its parentheses.
    """
    check_text(text)
    alphabet = frozenset(alphabet)
    text = text.replace("·", ".")
    bad = _BAD_CHARACTER.search(text)
    if bad is not None:
        raise ExprSyntaxError(f"unexpected character {bad.group()!r}", bad.start())
    tokens = _TOKEN_TEXTS.findall(text)
    end = len(tokens)
    labels: list[str] = []
    ops: list[str | None] = [None]  # each group's operator, None until its first one
    stack = [0]  # the open groups, innermost last
    pos = 0
    while True:
        # an atom starts at pos
        if pos >= end:
            # just after the last token, a "(" or an operator
            raise ExprSyntaxError("unexpected end of expression", len(text.rstrip()))
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            stack.append(len(ops))
            ops.append(None)
            continue
        if tok in _NOT_ATOMS:
            raise ExprSyntaxError(f"unexpected {tok!r}", _nth_start(_TOKEN_TEXTS, text, pos - 1))
        if tok not in alphabet:
            raise UnknownGenerator(f"generator {tok!r} not in alphabet", _nth_start(_TOKEN_TEXTS, text, pos - 1))
        labels.append(tok)
        # extend the innermost group with the atom; close every group that ends here
        while True:
            group = stack[-1]
            if pos < end and tokens[pos] in _OPS:
                op = tokens[pos]
                if ops[group] is None:
                    ops[group] = op
                elif op != ops[group]:
                    position = _nth_start(_TOKEN_TEXTS, text, pos)
                    raise MixedChainError("cannot mix '.' and '*' without parentheses", position)
                pos += 1
                break
            if not group:
                if pos != end:
                    raise ExprSyntaxError(f"unexpected {tokens[pos]!r}", _nth_start(_TOKEN_TEXTS, text, pos))
                return _expr(_written_tree(tokens, ops), tuple(labels))
            if pos >= end or tokens[pos] != ")":
                raise ExprSyntaxError("missing ')'", _nth_start(re.compile(r"\("), text, group - 1))
            stack.pop()
            pos += 1


def _written_tree(tokens: list[str], ops: list[str | None]) -> DecoratedTree:
    """The tree of a checked expression's tokens, given each group's
    operator: one "|" per identifier, and the parentheses of each group
    whose operator is set and differs from the nearest enclosing one's."""
    root = next(filter(None, ops), None)
    if root is None:
        return GENERATOR_TREE
    outer = ops[0]  # the operator of the nearest group that has one
    out = ["("] if outer else []
    closing: list[tuple[str | None, str]] = []  # each open group's outer operator and ")" or ""
    group = 0
    for tok in tokens:
        if tok == "(":
            group += 1
            op = ops[group]
            if op is None or op == outer:
                closing.append((outer, ""))
            else:
                closing.append((outer, ")"))
                out.append("(")
                outer = op
        elif tok == ")":
            outer, close = closing.pop()
            out.append(close)
        elif tok not in _OPS:
            out.append("|")
    if ops[0]:
        out.append(")")
    return _decorated("".join(out) + root)


def _nth_start(pattern: re.Pattern, text: str, k: int) -> int:
    """Where match k (from 0) of ``pattern`` in ``text`` starts; for errors
    only: group g's ``(`` is match g - 1 of ``\\(``, and token k of a text
    with no bad character is match k of ``_TOKEN_TEXTS``."""
    return next(islice(pattern.finditer(text), k, None)).start()


# --- machine format ---------------------------------------------------------

_TAG_LETTER = {".": "d", "*": "s", "|": "-"}  # by root symbol
_LETTER_SYMBOL = {v: k for k, v in _TAG_LETTER.items()}


def expr_to_machine(x: DuplexExpr, format_label: Callable[[Any], str] = str) -> tuple[str, str, list[str]]:
    """(tree text, tag letter, label list) form; round-trips via
    :func:`expr_from_machine`."""
    form = x.tree.form
    return form[:-1], _TAG_LETTER[form[-1]], [format_label(l) for l in x.labels]


def expr_from_machine(triple: Sequence, parse_label: Callable[[str], Hashable] = str) -> DuplexExpr:
    """Rebuild an expression from its (tree text, tag letter, label list)
    form, as JSON carries it.  A triple of another length, a tree text that
    is not a string, a tag letter other than ``d``, ``s`` or ``-`` (a list
    included) or that does not fit the tree (``-`` is the leaf's, and only
    its), and a label list that cannot be iterated or does not hold one
    label per leaf raise ``ParseError``."""
    try:
        tree_text, tag_letter, labels = triple
    except (TypeError, ValueError):
        raise ParseError(f"expected a (tree text, tag letter, label list) triple, got {triple!r}") from None
    if not isinstance(tree_text, str):
        raise ParseError(f"expected the tree text as a string, got {tree_text!r}")
    try:
        symbol = _LETTER_SYMBOL[tag_letter]
    except (KeyError, TypeError):
        raise ParseError(f"unknown tag letter {tag_letter!r}; expected 'd', 's' or '-'") from None
    try:
        labels = list(labels)
    except TypeError:
        raise ParseError(f"expected a list of labels, got {labels!r}") from None
    shape = parse_tree(tree_text)
    if shape.is_leaf != (symbol == "|"):
        raise ParseError(f"tag letter {tag_letter!r} does not fit the tree {tree_text!r}: only the leaf '|' takes '-'")
    tree = _decorated(shape.text + symbol)
    if len(labels) != tree.degree:
        raise ParseError(f"expected {tree.degree} labels, one per leaf of the tree {tree_text!r}, got {len(labels)}")
    return _expr(tree, tuple(map(parse_label, labels)))
