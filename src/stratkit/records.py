"""Record classes: the __init__, ==, hash and repr of a dataclass,
made without generating source.

A record lists its fields as class annotations, in order, with optional
defaults; a class attribute without an annotation is not a field.
`@record` makes it frozen and hashable by its field tuple,
`@mutable_record` assignable and unhashable. A record equals only
records of its class with equal fields, and prints as
`Name(f=..., ...)`.

__init__, == and hash are the dataclass code, written once per arity
over the placeholder fields a, b, ...; each record gets a copy with the
placeholders renamed to its fields, so they cost what a dataclass's do.
"""

_set = object.__setattr__
_PLACEHOLDERS = "abcdefg"

# fmt: off
_INIT = (
    lambda self: None,
    lambda self, a: _set(self, "a", a),
    lambda self, a, b: _set(self, "a", a) or _set(self, "b", b),
    lambda self, a, b, c: _set(self, "a", a) or _set(self, "b", b) or _set(self, "c", c),
    lambda self, a, b, c, d: _set(self, "a", a) or _set(self, "b", b) or _set(self, "c", c)
    or _set(self, "d", d),
    lambda self, a, b, c, d, e: _set(self, "a", a) or _set(self, "b", b) or _set(self, "c", c)
    or _set(self, "d", d) or _set(self, "e", e),
    lambda self, a, b, c, d, e, f: _set(self, "a", a) or _set(self, "b", b) or _set(self, "c", c)
    or _set(self, "d", d) or _set(self, "e", e) or _set(self, "f", f),
    lambda self, a, b, c, d, e, f, g: _set(self, "a", a) or _set(self, "b", b)
    or _set(self, "c", c) or _set(self, "d", d) or _set(self, "e", e) or _set(self, "f", f)
    or _set(self, "g", g),
)
_EQ = (
    lambda s, o: True if o.__class__ is s.__class__ else NotImplemented,
    lambda s, o: (s.a,) == (o.a,) if o.__class__ is s.__class__ else NotImplemented,
    lambda s, o: (s.a, s.b) == (o.a, o.b) if o.__class__ is s.__class__ else NotImplemented,
    lambda s, o: (s.a, s.b, s.c) == (o.a, o.b, o.c)
    if o.__class__ is s.__class__ else NotImplemented,
    lambda s, o: (s.a, s.b, s.c, s.d) == (o.a, o.b, o.c, o.d)
    if o.__class__ is s.__class__ else NotImplemented,
    lambda s, o: (s.a, s.b, s.c, s.d, s.e) == (o.a, o.b, o.c, o.d, o.e)
    if o.__class__ is s.__class__ else NotImplemented,
    lambda s, o: (s.a, s.b, s.c, s.d, s.e, s.f) == (o.a, o.b, o.c, o.d, o.e, o.f)
    if o.__class__ is s.__class__ else NotImplemented,
    lambda s, o: (s.a, s.b, s.c, s.d, s.e, s.f, s.g) == (o.a, o.b, o.c, o.d, o.e, o.f, o.g)
    if o.__class__ is s.__class__ else NotImplemented,
)
_HASH = (
    lambda s: hash(()),
    lambda s: hash((s.a,)),
    lambda s: hash((s.a, s.b)),
    lambda s: hash((s.a, s.b, s.c)),
    lambda s: hash((s.a, s.b, s.c, s.d)),
    lambda s: hash((s.a, s.b, s.c, s.d, s.e)),
    lambda s: hash((s.a, s.b, s.c, s.d, s.e, s.f)),
    lambda s: hash((s.a, s.b, s.c, s.d, s.e, s.f, s.g)),
)
# fmt: on


def replace(obj, **changes):
    """A record like obj, with the fields named in changes changed."""
    fields = {name: getattr(obj, name) for name in obj.__match_args__}
    return obj.__class__(**{**fields, **changes})


def record(cls, frozen: bool = True):
    """cls as a record, frozen unless told otherwise."""
    names = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
    if len(names) > len(_PLACEHOLDERS):
        raise TypeError(f"a record has at most {len(_PLACEHOLDERS)} fields")
    defaults = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
    cls.__init__ = _specialise(_INIT, cls, "__init__")
    cls.__init__.__defaults__ = defaults
    cls.__eq__ = _specialise(_EQ, cls, "__eq__")
    cls.__hash__ = _specialise(_HASH, cls, "__hash__") if frozen else None
    cls.__repr__ = _repr
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def mutable_record(cls):
    """cls as a record whose fields can be assigned."""
    return record(cls, frozen=False)


def _specialise(templates, cls, method):
    """cls's copy of the template for its arity, placeholders renamed."""
    template = templates[len(cls.__match_args__)]
    rename = dict(zip(_PLACEHOLDERS, cls.__match_args__)).get
    code = template.__code__.replace(
        co_name=method,
        co_varnames=tuple(rename(n, n) for n in template.__code__.co_varnames),
        co_names=tuple(rename(n, n) for n in template.__code__.co_names),
        co_consts=tuple(rename(c, c) for c in template.__code__.co_consts),
    )
    fn = type(template)(code, template.__globals__, method)
    fn.__qualname__ = f"{cls.__qualname__}.{method}"
    return fn


def _repr(self):
    # a plain loop: one Python frame per level of a nested record
    fields = []
    for name in self.__match_args__:
        fields.append(f"{name}={getattr(self, name)!r}")
    return f"{self.__class__.__qualname__}({', '.join(fields)})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
