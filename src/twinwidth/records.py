"""Frozen value classes whose methods are shared closures: no source is generated per class.

>>> @record
... class Point:
...     x: int
...     y: int
>>> Point(1, y=2), Point(1, 2) == Point(1, 2), hash(Point(1, 2)) == hash((1, 2))
(Point(x=1, y=2), True, True)
"""

from operator import attrgetter


def _key_getter(names: tuple[str, ...]):
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


def _frozen(self, name: str, *value) -> None:
    raise AttributeError(f"cannot assign to or delete {name!r}: {type(self).__qualname__} is frozen")


def record(cls=None, /, *, uncompared: tuple[str, ...] = ()):
    """Make ``cls`` a frozen value class over its own annotated fields, in order.

    ``__init__`` takes the fields by position or keyword, then calls
    ``__post_init__`` if the class has one.  ``==`` holds only between
    instances of one class with equal compared fields (all but
    ``uncompared``), the hash is that of the tuple of compared fields, the
    repr is ``Name(field=value, ...)`` over every field, and assigning or
    deleting an attribute raises ``AttributeError``.  Instances keep their
    ``__dict__``, so ``cached_property`` works on them.
    """
    if cls is None:
        return lambda c: record(c, uncompared=uncompared)
    names = tuple(cls.__annotations__)
    key = _key_getter(tuple(n for n in names if n not in uncompared))
    post_init = getattr(cls, "__post_init__", None)
    qualname = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if kwargs:
            unexpected = kwargs.keys() - names[len(args):]
            if unexpected:
                raise TypeError(f"{qualname}() got unexpected or repeated arguments {sorted(unexpected)}")
            args += tuple(kwargs[n] for n in names[len(args):] if n in kwargs)
        if len(args) != len(names):
            raise TypeError(f"{qualname}() takes the fields ({', '.join(names)}), got {len(args)} of them")
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{qualname}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
