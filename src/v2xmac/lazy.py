"""State arrays that a closed-form solution builds only when they are read.

The fixed point and the metrics need a handful of scalars from each chain;
the full state arrays are read only by the oracle checks, the tests and
library callers, and their builders import numpy. A `Lazy` field keeps such an array a normal dataclass field, so it can
still be passed to the constructor or to `dataclasses.replace`, while a
solution made by `closed_form` builds it from its scalar inputs on first read.
"""
from __future__ import annotations

from dataclasses import field


class _Unbuilt:
    def __repr__(self):
        return "<built on first read>"


UNBUILT = _Unbuilt()


def form_field():
    """The private `_form` field of a solution class: its closed-form inputs.

    It is not an `__init__` argument, so `dataclasses.replace` leaves it None:
    the copy holds every array explicitly and reads nothing from the form.
    """
    return field(default=None, init=False, repr=False, compare=False)


class Lazy:
    """Dataclass field default for an array built from `instance._form` on first read.

    A value given to the constructor is kept as given. An omitted one is
    built by `build(form)` when first read and cached on the instance.
    """

    def __init__(self, build):
        self._build = build

    def __set_name__(self, owner, name):
        self._name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return UNBUILT   # the default dataclasses records for the field
        try:
            return obj.__dict__[self._name]
        except KeyError:
            if obj._form is None:
                raise AttributeError(f"{type(obj).__name__}.{self._name} was not "
                                     "given and there is no closed form to build it")
            value = obj.__dict__[self._name] = self._build(obj._form)
            return value

    def __set__(self, obj, value):
        if value is not UNBUILT:
            obj.__dict__[self._name] = value


def closed_form(cls, form, **fields):
    """An instance of solution class `cls` whose omitted Lazy fields come from `form`."""
    sol = cls(**fields)
    object.__setattr__(sol, "_form", form)
    return sol
