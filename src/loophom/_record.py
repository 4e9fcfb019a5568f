"""The base of the package's value classes: plain classes with `__slots__`
and written-out constructors, which import faster than classes whose
methods a decorator generates and compiles. A subclass names its
constructor's arguments in `_fields`, in order; `==`, the hash, the repr,
copy and pickle go by them. Every value is immutable: its constructor
makes its checks, then sets the fields with one `_fill` call, and no field
can be assigned or deleted after that."""

from operator import attrgetter

from .errors import ReadOnlyValue

_set = object.__setattr__  # past the guard: `_fill`, and RankProfile's `betti`


def _fill(record, *values) -> None:
    """Set the fields of `record` to `values`, in `_fields` order."""
    for name, value in zip(record._fields, values):
        _set(record, name, value)


class Record:
    """Field-wise `==` within one class and a hash of the fields (TypeError
    where a field is unhashable); assigning or deleting any attribute
    raises ReadOnlyValue, an AttributeError."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        # what == and the hash compare: the field's value, or a tuple of several
        if cls._fields:
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, past the guard
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise ReadOnlyValue(f"cannot assign to {name!r}")

    def __delattr__(self, name):
        raise ReadOnlyValue(f"cannot delete {name!r}")
