"""Slotted classes that generate no code.  A class names its fields in
``__slots__``, in the order its ``__init__`` takes them, and that
``__init__`` writes them with :func:`fill_slots`.  :class:`Immutable`
adds what a frozen dataclass has: any later assignment or deletion
raises, an instance equals one of its own class with equal fields (at
any depth of nesting, without recursion), its hash is that of the field
tuple, and it shows as ``Name(field=value, ...)`` (at any depth too)."""


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
        stack = [(self, other)]  # a field shared by both sides is equal at once
        while stack:
            x, y = stack.pop()
            if x is y:
                continue
            if x.__class__ is not y.__class__:
                return False
            for a, b in zip(x._fields(), y._fields()):
                if isinstance(a, Immutable):
                    stack.append((a, b))
                elif a is not b and a != b:
                    return False
        return True

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        # Name(field=value, ...) built on an explicit stack of texts and of
        # instances still to open, so a structure of any depth shows
        texts, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                texts.append(item)
                continue
            stack.append(")")
            for n, name in reversed(list(enumerate(item.__slots__))):
                value = getattr(item, name)
                stack += [value if isinstance(value, Immutable) else repr(value),
                          f"{', ' if n else ''}{name}="]
            stack.append(f"{type(item).__qualname__}(")
        return "".join(texts)

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields()
