"""State arrays that a closed-form solution builds only when they are read.

A solution's fields are its closed form: the few inputs from which every
state value follows, and from which the fixed point and the metrics take
their O(1) scalars. The full state arrays are read only by the oracle checks,
the tests and library callers, and their builders import numpy. A `Lazy`
field keeps such an array a normal dataclass field, built from the solution
itself on first read. An array passed to the constructor or to
`dataclasses.replace` is kept as given; the scalars never read it.
(`replace` reads every field, so its copy keeps the original's arrays
unless it is given new ones.)

Each such field is declared `field(default=Lazy(build), compare=False,
repr=False)`. The arrays follow from the other fields, so equality and the
hash use those alone (comparing arrays would raise), and `repr` builds none.
"""
from __future__ import annotations


class Lazy:
    """Dataclass field default for an array built by `build(solution)` on first read.

    A value given to the constructor is kept as given. An omitted one is
    built when first read and cached on the instance.
    """

    def __init__(self, build):
        self._build = build

    def __repr__(self):
        return "<built on first read>"

    def __set_name__(self, owner, name):
        self._name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        try:
            return obj.__dict__[self._name]
        except KeyError:
            value = obj.__dict__[self._name] = self._build(obj)
            return value

    def __set__(self, obj, value):
        # the dataclass __init__ passes this default itself for an omitted field
        if value is not self:
            obj.__dict__[self._name] = value
