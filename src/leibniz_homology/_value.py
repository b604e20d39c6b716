"""Bases of the package's value classes.  ``Value`` gives equality, repr and
a dict over the fields ``_fields`` names, in order, and no hash; that dict,
``_asdict``, is the JSON of a flat value (one whose fields are all JSON
values), such as a Betti entry, a rank certificate or a check.  ``Frozen``
adds a hash over them and refuses assignment; its ``__init__`` writes each
field into ``__dict__`` once.  Each class reads its field tuple with one
``operator.attrgetter``, built when the class is defined; a one-field class
still gets a 1-tuple, so its hash is ``hash((value,))``."""

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    @staticmethod
    def _values(obj) -> tuple:
        return ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields
        if len(fields) == 1:
            get = attrgetter(fields[0])
            cls._values = staticmethod(lambda obj: (get(obj),))
        elif fields:
            cls._values = staticmethod(attrgetter(*fields))

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values(self)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({args})"


class Frozen(Value):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
