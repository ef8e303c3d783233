"""The base of the package's slotted, immutable records.

A record class lists its fields, in constructor order, in ``_fields``,
stores them in ``__slots__`` and sets them in a hand-written
``__init__``, after its checks: with ``object.__setattr__`` in the
records built in hot loops, with ``_set`` elsewhere.  The base
gives every record value semantics: equality with a record of the same
class and equal fields, the hash of the field tuple, a repr naming each
field, no assignment or deletion after construction, and pickling
through the constructor.  No code is generated when a class is defined.
"""


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def _set(self, *values) -> None:
        """Set the fields to ``values``, in ``_fields`` order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple()
