"""Read-only value records, the base of the library's small data and result types.

A record names its fields in ``__slots__``.  Its ``__init__`` checks the
arguments and stores them in slot order with ``self._fill``, or, for a record
built once per vertex, by calling the setters in ``_setters``, which
takes half the time.  Fields are read-only.  Records of one type are equal
when their fields are, hash as the tuple of their fields and print as
``Name(field=value, ...)``, and copy and pickle rebuild them through
``__init__``, which therefore takes the fields in slot order.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _fill(self, *values: object) -> None:
        for put, value in zip(self._setters, values):
            put(self, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()
