"""The base of the package's value classes: plain classes with `__slots__`
and written-out constructors, which import faster than classes whose
methods a decorator generates and compiles. A subclass names its
constructor's arguments in `_fields`, in order; `==`, the repr, a frozen
class's hash, copy and pickle go by them."""

from operator import attrgetter

_set = object.__setattr__  # how a frozen class's `__init__` sets its slots


class Record:
    """Field-wise `==` within one class; unhashable, as it is mutable."""

    __slots__ = ()
    _fields: tuple = ()
    __hash__ = None

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
        # copy and pickle rebuild through the constructor, past a frozen guard
        return type(self), tuple(getattr(self, f) for f in self._fields)


class Frozen(Record):
    """Hashable; no attribute can be assigned or deleted."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
