"""Frozen value records, the base of the package's value types.  The fields
are the class annotations, in order; a trailing one with a class-level value
is optional.  `==`, `hash`, `repr` go by field; no attribute can be set or deleted.
A parsing type defines `__init__` and passes the parsed values to `Record.__init__` once."""

from operator import attrgetter

_set = object.__setattr__   # field by field: a write to the instance dict ends compact storage


class Record:
    def __init_subclass__(cls):
        cls._fields = fields = tuple(vars(cls).get("__annotations__", ()))
        get = attrgetter(*fields)
        cls._values = get if len(fields) > 1 else staticmethod(lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        i = 0
        for name in fields:   # indexing args costs less per field than unpacking a zip
            _set(self, name, args[i])
            i += 1

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values of a call that names fields or leaves defaults out."""
        try:
            values = [*args, *(kwargs.pop(name) if name in kwargs else vars(cls)[name]
                               for name in cls._fields[len(args):])]
        except KeyError:   # a field with no value
            values = None
        if kwargs or values is None or len(values) != len(cls._fields):
            raise TypeError("%s() takes (%s)" % (cls.__name__, ", ".join(cls._fields)))
        return values

    def __eq__(self, other):
        return (self._values(self) == self._values(other)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__
