"""State arrays that a closed-form solution builds only when they are read.

A solution's fields are its closed form, from which its `state(family,
index)` gives each state's value: the one source of the oracle map, the
O(1) scalars and these arrays. The full arrays are read only by the
benchmark's checks, the tests and library callers; `state_array` builds
them, the one place the solutions load numpy. A `Lazy` field keeps such an
array a normal dataclass field, built on first read. An array passed to the
constructor or to `dataclasses.replace` is kept as given; neither the
scalars nor the oracle map read it. (`replace` reads every field, so its
copy keeps the original's arrays unless it is given new ones.)

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


def state_array(values):
    """A `Lazy` default: the numpy array of the nested list `values(solution)`.

    `values` lists the solution's `state(family, index)` values in array order.
    """
    def build(sol):
        import numpy as np
        return np.array(values(sol))
    return Lazy(build)
