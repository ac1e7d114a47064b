"""The base of the record types: every value type but ``scalars.QQi``.

A record type names its fields once, as ``__slots__ = _fields = (...)``, and
its own ``__init__`` checks the arguments and stores them with
``object.__setattr__``.  The base compares two records of the same type field
by field, hashes the tuple of the fields, prints ``Name(field=value, ...)``,
and refuses assignment.  Defining a record type generates and executes no
code, so importing the package stays cheap.
"""


class Record:
    """A value made of the fields that its type lists in ``_fields``."""

    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self._fields:  # as tuples compare: identity, then ==
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is not theirs and not mine == theirs:
                return False
        return True

    def __hash__(self):
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"
