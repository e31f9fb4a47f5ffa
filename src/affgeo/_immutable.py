"""Slotted classes that generate no code.  A class names its fields in
``__slots__``, in the order its ``__init__`` takes them, and that
``__init__`` writes them with :func:`fill_slots`.  :class:`Immutable`
adds what a frozen dataclass has: any later assignment or deletion
raises, an instance equals one of its own class with equal fields, its
hash is that of the field tuple, and it shows as ``Name(field=value, ...)``."""


class ImmutableError(AttributeError):
    """An assignment to, or a deletion of, an attribute of an immutable instance."""


def fill_slots(obj, *values) -> None:
    for name, value in zip(obj.__slots__, values, strict=True):
        object.__setattr__(obj, name, value)


class Immutable:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise ImmutableError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise ImmutableError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields()
