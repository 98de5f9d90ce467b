"""The frozen-record base of the package's result and config types."""

from __future__ import annotations

_setattr = object.__setattr__


class Record:
    """Base of a frozen record type that builds no code.

    A subclass lists its fields as class annotations, in order; a class
    attribute of the same name is that field's default.  ``__init_subclass__``
    reads them into the field-name tuple ``_fields`` and the dict
    ``_defaults``.  Nothing is generated or exec'd, and neither dataclasses
    nor inspect is imported, so a record class costs no more at import than
    its own class body.  What a record offers its callers:

    - construction by position, by keyword or both, with the defaults filled
      in; a call that passes every field by position skips argument binding;
    - ``__post_init__(self)``, when the subclass defines it, runs once the
      fields are set, so its checks raise from the constructor;
    - assigning or deleting any attribute raises AttributeError;
    - ``==`` compares the fields in order, only between records of the same
      type (NotImplemented otherwise), and equal records hash equal;
    - ``repr`` is ``Name(field=value, ...)`` with each value's repr;
    - pickling, since the fields live in the instance ``__dict__``;
    - no more memory per record than a plain object with the same
      attributes;
    - the subclass's methods and properties stay plain members of its class
      ``__dict__``.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    # A subclass's own __post_init__ replaces this marker.
    __post_init__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = names
        cls._defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        # Fields are set through object.__setattr__, bound once per record:
        # touching self.__dict__ instead would give each record a dict object
        # of its own, 64 B more than the values that share the class's keys.
        # any() only drains the map; every call returns None.
        any(map(_setattr.__get__(self), self._fields, args))
        if self.__post_init__ is not None:
            self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values, in order, from any mix of positions, keywords and
        defaults; raises TypeError as a def with these parameters would."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} positional arguments"
                f" but {len(args)} were given"
            )
        values = list(args)
        for name in names[len(args) :]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        return values

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
