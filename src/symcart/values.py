"""The base of the value classes that check their fields.

A value class subclasses ``value_tuple(name, fields)`` and checks and
normalises its fields in ``__new__``.  A plain ``namedtuple``'s
``_make``, and ``_replace`` through it, would build the tuple directly
and skip that check; here both go through the class's constructor.

>>> class Interval(value_tuple("Interval", "lo hi")):
...     def __new__(cls, lo, hi):
...         if hi < lo:
...             raise ValueError("need lo <= hi")
...         return tuple.__new__(cls, (lo, hi))
>>> Interval(1, 2)._replace(hi=0)
Traceback (most recent call last):
    ...
ValueError: need lo <= hi
"""

from collections import namedtuple


def _make(cls, iterable):
    """A value built by the class's own constructor, from its fields."""
    fields = tuple(iterable)
    if len(fields) != len(cls._fields):
        raise TypeError(f"Expected {len(cls._fields)} arguments, "
                        f"got {len(fields)}")
    return cls(*fields)


def value_tuple(typename: str, field_names: str):
    """A ``namedtuple`` base whose ``_make`` and ``_replace`` build
    through the subclass's ``__new__``."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(_make)
    return base
