"""The base of the package's value classes: plain classes with `__slots__`
and written-out constructors, which import faster than classes whose
methods a decorator generates and compiles. A subclass names its
constructor's arguments in `_fields`, in order; `==`, the hash, the repr,
copy and pickle go by them. Every value is immutable: its constructor
makes its checks, then sets the fields with one `_fill` call, and no field
can be assigned or deleted after that; a field that is a map is a
`ReadOnlyMap`."""

from operator import attrgetter

from .errors import ReadOnlyValue

_set = object.__setattr__  # past the guard: `_fill`, derived slots and private memos


def _fill(record, *values) -> None:
    """Set the fields of `record` to `values`, in `_fields` order."""
    for name, value in zip(record._fields, values):
        _set(record, name, value)


class ReadOnly:
    """Assigning or deleting any attribute raises ReadOnlyValue."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise ReadOnlyValue(f"cannot assign to or delete {name!r}")

    __delattr__ = __setattr__


class Record(ReadOnly):
    """Field-wise `==` within one class and a hash of the fields (TypeError
    where a field is unhashable)."""

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


class ReadOnlyMap(dict):
    """A dict no write can change: setting, deleting, clearing, popping
    and updating raise ReadOnlyValue. It hashes by its items, and copy
    and pickle build a new map of the same items."""

    __slots__ = ()

    def __new__(cls, items=()):
        self = dict.__new__(cls)
        dict.update(self, items)
        return self

    def __init__(self, items=()):
        pass  # the items went in at `__new__`; `dict.__init__` would add more on any call

    def _refuse(self, *args, **kwargs):
        raise ReadOnlyValue("cannot change a read-only map")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return type(self), (dict(self),)
