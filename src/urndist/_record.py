"""Base classes of the package's value records.

A record's fields are its ``__slots__``, in order, set by ``__init__`` from
the values its subclass has checked.  Equality, hash and ``repr`` go by the
fields as a dataclass's do: records are equal when they are of the same
class and their fields are equal, and the repr is ``Name(field=value,
...)``.  A record pickles and copies through its constructor, called with
its fields in order.  ``dataclasses`` is not used: it imports ``inspect``
and ``ast``, about 6 ms of a cold ``urn`` start that no command needs.
"""

from __future__ import annotations

__all__ = ["FrozenRecord", "Record"]


class Record:
    """A mutable record.  Equal by its fields, so unhashable, as a dataclass
    with ``eq=True`` and ``frozen=False`` is."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class FrozenRecord(Record):
    """A record whose fields are set once, by ``__init__``; hashable by them."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
