"""Immutable records, the package's small result types.

A :class:`Record` subclass names its fields in ``__slots__`` and may give
defaults for trailing ones in ``_defaults``.  Construction (positional or
by keyword), equality, hash and repr follow the fields in order, as those
of a frozen dataclass do, and assigning a field raises AttributeError.
They are written out here because importing ``dataclasses``, which imports
``inspect``, costs every fresh ``lie2`` process several milliseconds.
"""

from __future__ import annotations


class Record:
    """Fields in ``__slots__`` order; ``_defaults`` maps trailing fields to defaults."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{type(self).__name__} got an unexpected or repeated field {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                if name not in self._defaults:
                    raise TypeError(f"{type(self).__name__} is missing field {name!r}")
                values[name] = self._defaults[name]
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
