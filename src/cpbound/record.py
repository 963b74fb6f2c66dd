"""Read-only value records, the base of the library's small data and result types.

A record names its fields in ``__slots__``, and one shared ``__init__``
takes them in slot order, by position or by name, and stores them through
the setters in ``_setters``.  A record defines its own ``__init__`` only to
check or default an argument, ending with ``super().__init__``, or when it
is built once per vertex, which calls the setters itself and takes half the
time.  Fields are read-only.  Records of one type are equal when their
fields are, hash as the tuple of their fields and print as
``Name(field=value, ...)``, and copy and pickle rebuild them through
``__init__`` from the fields in slot order.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *values: object, **named: object) -> None:
        names = self.__slots__
        if named or len(values) != len(names):
            if len(values) > len(names):
                raise TypeError(f"{type(self).__name__} takes the fields {names}, got {len(values)} values")
            given, rest = names[: len(values)], names[len(values) :]
            for problem, fields in (
                ("unknown", [f for f in named if f not in names]),
                ("given twice", [f for f in given if f in named]),
                ("missing", [f for f in rest if f not in named]),
            ):
                if fields:
                    raise TypeError(f"{type(self).__name__}: field(s) {problem}: {', '.join(map(repr, fields))}")
            values += tuple([named[f] for f in rest])
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
