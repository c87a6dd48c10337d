"""Frozen value records, in place of ``@dataclass(frozen=True)``.

A subclass of ``Record`` names its fields by annotating them in its
class body, after the fields of its base; a class attribute of a
field's name is that field's default.  A record compares equal only to
a record of the same class with equal fields, hashes as the tuple of
its fields, prints as ``Name(field=value, ...)`` and refuses to have
an attribute set or deleted.  The generic ``__init__`` takes the fields
positionally or by name; a hot type writes its own ``__init__`` and
stores each field with ``object.__setattr__``.

``to_jsonable`` is a record's report form: a dict of every field under
its name, with a nested record in its own report form, a tuple as a
list and ``None`` as null.  A class names only its exceptions, in two
unannotated class constants: ``_keys`` maps a field to the report key
it is written under, and the fields in ``_text`` are written with
``str`` (integers a double cannot hold, and ``Fraction`` values).

``dataclasses`` would give the same, but importing it loads ``inspect``
and ``ast``, and each frozen dataclass ``exec``s its generated methods
when its module is imported: several milliseconds of every cold
``permx`` command line.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _keys: dict[str, str] = {}
    _text: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}, "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        for field in fields:
            if field not in values:
                raise TypeError(f"{type(self).__name__}() missing argument {field!r}")
            _set(self, field, values[field])

    def to_jsonable(self) -> dict:
        keys, text = self._keys, self._text
        return {keys.get(f, f): str(v) if f in text else _jsonable(v)
                for f, v in zip(self._fields, self._values())}

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _jsonable(value):
    if isinstance(value, Record):
        return value.to_jsonable()
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value
