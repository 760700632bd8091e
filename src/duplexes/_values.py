"""The base of the package's value classes and the pair of operations,
shared by every carrier and the series; it imports no other module of the
package, so a carrier loads no other carrier to get them."""
from __future__ import annotations

from collections import deque
from itertools import repeat
from operator import attrgetter
from typing import Any, Callable, Iterable, NamedTuple

_new = object.__new__


class _Value:
    """Base of the package's immutable value classes.  A subclass declares
    its fields as ``__slots__`` and sets them once in its ``__init__``
    through ``object.__setattr__``.  As the subclass is made, ``_Value``
    reads the slots once and derives ``__eq__``, true only within the
    class, and ``__hash__``, the hash of the field tuple, unless the class
    writes its own (``DecoratedTree`` hashes its public ``(shape, tag)``);
    ``_setters``, the slots' descriptor setters; and ``_make(*fields)``, the
    unchecked constructor of values the library builds from parts it knows
    are valid: one ``object.__new__`` and one setter call per slot.  A
    whole slice is made by :func:`_build`, with no Python frame per
    element.  Pickling and copying call the class with the fields again, so
    the constructor's checks run (a tree or a cube vertex is rebuilt by
    parsing its text)."""

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)  # the field itself for one slot
        fields = get if len(cls.__slots__) > 1 else lambda value: (get(value),)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return get(self) == get(other)

        def __hash__(self) -> int:
            return hash(fields(self))

        cls.__eq__ = __eq__
        if "__hash__" not in vars(cls):
            cls.__hash__ = __hash__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._make = staticmethod(_unchecked_constructor(cls, cls._setters))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def _unchecked_constructor(cls: type, setters: tuple) -> Callable:
    # written out for one slot and for two, the package's only arities: a
    # loop over the setters would double the cost of every product
    if len(setters) == 1:
        (set_field,) = setters

        def make(field):
            value = _new(cls)
            set_field(value, field)
            return value

        return make
    set_first, set_second = setters

    def make(first, second):
        value = _new(cls)
        set_first(value, first)
        set_second(value, second)
        return value

    return make


def _build(cls: type, *columns: Iterable) -> tuple:
    """One unchecked ``cls`` instance per item of the first column (a
    sequence), its slots filled in order from the columns through the
    class's setters: every loop runs in C (``map``, drained by a
    zero-length ``deque``), so a slice costs no Python frame per element."""
    values = tuple(map(_new, repeat(cls, len(columns[0]))))
    for setter, column in zip(cls._setters, columns):
        deque(map(setter, values, column), maxlen=0)
    return values


class DuplexOps(NamedTuple):
    """A pair of associative binary operations on some carrier (a tuple);
    defined here, the module every carrier imports, so that a carrier needs
    no other to name its pair."""

    dot: Callable[[Any, Any], Any]
    star: Callable[[Any, Any], Any]


class _ColumnCache(dict):
    """``cache[key]`` is ``rule(*key)``, computed on the first lookup.  A
    hit is one C-level dict lookup, and a cache costs less to make than an
    ``lru_cache``, which short law audits, each making their own, notice."""

    __slots__ = ("rule",)

    def __init__(self, rule: Callable):
        self.rule = rule

    def __missing__(self, key: tuple):
        value = self[key] = self.rule(*key)
        return value
