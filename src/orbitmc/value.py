"""Records with value semantics.  A subclass names its fields once, in
``__slots__`` (``_...`` slots are no fields); ``_defaults`` fills the last.
Fields are passed by position or by name.  A record equals one of its
class with the same field tuple, hashes as that tuple and prints as
``Name(field=value, ...)``.  A frozen record keeps the tuple in
``_values``; a class declared ``frozen=False`` is mutable."""


class Value:
    __slots__ = ("_values",)
    _fields = _defaults = ()
    _frozen = True

    def __init_subclass__(cls, frozen=True):
        own = (f for f in cls.__dict__.get("__slots__", ()) if not f.startswith("_"))
        cls._fields = fields = (*cls._fields, *own)
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)
        cls._pad = (_MISSING,) * (len(fields) - len(cls._defaults)) + cls._defaults
        if not frozen:
            cls._frozen, cls.__hash__, cls.__setattr__, cls.__delattr__ = False, None, _set, _del
            cls._values = property(lambda self: tuple(map(self.__getattribute__, fields)))
        elif "__init__" not in cls.__dict__ and cls.__init__ in _INITS:
            # short records get unrolled inits, and field-less ones compare and
            # hash without reading an attribute, which a method that many
            # classes share does slowly (timed with and without in BENCH_startup.json)
            cls.__init__ = _INITS[min(len(fields), 3)]
            if not fields:
                cls._values, cls.__eq__, cls.__hash__ = (), _same_class, _hash_of_nothing

    def __init__(self, *values, **named):
        if named or len(values) != len(self._fields):
            values = self._bind(values, named)
        if self._frozen:
            _keep(self, values)
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _bind(self, values, named):
        """The field tuple of a call with names, defaults or a wrong count."""
        fields, pad = self._fields, self._pad[len(values) :]
        values += tuple(map(named.pop, fields[len(values) :], pad)) if named else pad
        if named or len(values) != len(fields) or _MISSING in values:
            raise TypeError(f"{type(self).__qualname__}() takes the fields {fields}")
        return values

    def _replace(self, **changes):
        """A copy with some fields changed, as ``namedtuple._replace`` makes it."""
        values = tuple(map(changes.pop, self._fields, self._values))
        return type(self)(*values, **changes)  # a name that is no field raises here

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):  # copies and pickles build the record anew
        return type(self), self._values

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"


_MISSING = object()  # the pad of a field without a default
_keep, _set, _del = Value._values.__set__, object.__setattr__, object.__delattr__


def _same_class(self, other):
    return type(other) is type(self) or NotImplemented


def _hash_of_nothing(self, _hash=hash(())):
    return _hash


def _init1(self, *values, **named):
    if named or len(values) != 1:
        values = self._bind(values, named)
    _keep(self, values)
    self._setters[0](self, values[0])


def _init2(self, *values, **named):
    if named or len(values) != 2:
        values = self._bind(values, named)
    _keep(self, values)
    set_first, set_second = self._setters
    set_first(self, values[0])
    set_second(self, values[1])


_INITS = (object.__init__, _init1, _init2, Value.__init__)
