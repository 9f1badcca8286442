"""The package's plain record classes, without dataclasses: importing
dataclasses (and with it inspect) costs a cold command more than most of
the modules it runs. A record refuses assignment, and so, through refuse,
do the elements and the algebras: every value the package shares is
read-only by its type."""
from operator import attrgetter


def refuse(self, name, value=None):
    """__setattr__ and __delattr__ of a read-only class."""
    raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot be set or deleted")


def record(cls):
    """Class decorator: an __init__ over the annotated fields in order, by
    position or keyword, where a field given a value in the class body
    defaults to it; __init__ ends with __post_init__ when the class has one.
    Records of one class compare equal field by field, hash their fields and
    repr as Name(field=value, ...). A record refuses assignment; a
    functools.cached_property of one still fills on first read, as it
    writes the instance dict directly."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    fields = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            values = {**defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or kwargs.keys() & names[:len(args)]
                    or values.keys() != set(names)):
                raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
            args = [values[n] for n in names]
        self.__dict__.update(zip(names, args))
        if post_init:
            post_init(self)

    cls.__init__ = __init__
    cls.__eq__ = lambda self, other: (other is self or fields(self) == fields(other)
                                      if other.__class__ is self.__class__ else NotImplemented)
    cls.__repr__ = lambda self: (f"{cls.__qualname__}("
                                 + ", ".join(f"{n}={getattr(self, n)!r}" for n in names) + ")")
    cls.__hash__ = lambda self: hash(fields(self))
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls
