"""Bases of the package's value classes.  ``Value`` gives equality, repr and
a dict over the fields ``_fields`` names, in order, and no hash.  ``Frozen``
adds a hash over them and refuses assignment; its ``__init__`` writes each
field into ``__dict__`` once.  The classes built most often write their own
``__eq__`` and ``__hash__`` field by field instead."""


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({args})"


class Frozen(Value):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
