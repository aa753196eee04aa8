"""Immutable value classes without generated code.

A subclass of :class:`Value` lists its fields in ``__slots__`` (field
order is slot order, the base's slots first) and sets each one once in an
explicit ``__init__``, after normalising and checking it, by
``set_field(self, name, value)``: that is ``object.__setattr__``, which
passes by the base's ``__setattr__``, and one call per field is the
cheapest way to fill a slot past it.  The base gives what a frozen record
needs: assignment and deletion raise ``AttributeError``, two values are
equal when they have the same type and equal fields, equal values hash
equal (a value with an unhashable field, a dict or a list, does not hash),
``repr`` names every field, and copies and pickles rebuild a value by its
constructor.
"""

from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__


class Value:
    """Base of the package's immutable records and formula nodes."""

    __slots__ = ()
    _fields: tuple = ()  # the field names, in order
    _key = staticmethod(lambda value: ())  # the field values (a lone field's value bare)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for klass in reversed(cls.__mro__) for name in vars(klass).get("__slots__", ()))
        if cls._fields:
            cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

