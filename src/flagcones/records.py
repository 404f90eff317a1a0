"""Frozen records: the package's value classes, without :mod:`dataclasses`.

``@record`` takes a class's fields from its annotations, in order, and adds
``__init__`` and ``__eq__``, compiled in one ``exec`` per class, a hash of the
hash fields, ``Name(field=value, ...)`` as repr, and read-only instances.  A
field with ``init=False`` is derived: ``__post_init__`` sets it through
``object.__setattr__``.  Equality compares the compare fields, and only between
instances of one class.  Importing :mod:`dataclasses` would pull in
:mod:`inspect` and cost more start-up than the rest of the package.
"""

from types import MappingProxyType

_MISSING = object()


class field:
    """A field's default and roles, given as its class attribute (like
    :class:`property`); ``hash`` follows ``compare`` unless it is set, and
    ``metadata`` is free for the field's users (the codec reads ``"json"``)."""

    __slots__ = ("name", "default", "init", "compare", "hash", "metadata")

    def __init__(self, *, default=_MISSING, init=True, compare=True, hash=None, metadata=None):
        self.name, self.default, self.init, self.compare = None, default, init, compare
        self.hash = compare if hash is None else hash
        self.metadata = MappingProxyType(metadata or {})


def fields(cls) -> tuple:
    """The fields of a record class or instance in order; ``()`` for anything else."""
    return getattr(cls, "__record_fields__", ())


def _hash(self):
    return hash(tuple([getattr(self, name) for name in self.__record_hashed__]))


def _repr(self):
    items = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self.__record_fields__)
    return f"{type(self).__qualname__}({items})"


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def record(cls):
    """``cls`` made a frozen record; see the module docstring."""
    specs, params, namespace = [], [], {"_set": object.__setattr__}
    for name in cls.__annotations__:
        spec = cls.__dict__.get(name, _MISSING)
        spec = spec if isinstance(spec, field) else field(default=spec)
        if name in cls.__dict__:  # a default lives in ``__init__``, not on the class
            delattr(cls, name)
        spec.name, namespace[f"_default_{name}"] = name, spec.default
        specs.append(spec)
        if spec.init:
            params.append(name if spec.default is _MISSING else f"{name}=_default_{name}")
    body = "".join(f"\n    _set(self, {f.name!r}, {f.name})" for f in specs if f.init)
    body += "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    mine = "".join(f"self.{f.name}, " for f in specs if f.compare)
    exec(
        f"def __init__(self, {', '.join(params)}):{body or ' pass'}\n"
        f"def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({mine.replace('self.', 'other.')})\n"
        "    return NotImplemented\n",
        namespace,
    )
    cls.__init__, cls.__eq__, cls.__hash__ = namespace["__init__"], namespace["__eq__"], _hash
    cls.__repr__, cls.__setattr__, cls.__delattr__ = _repr, _frozen, _frozen
    cls.__record_fields__ = tuple(specs)
    cls.__record_hashed__ = tuple([f.name for f in specs if f.hash])
    return cls
