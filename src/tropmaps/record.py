"""Frozen value records, the base of the package's value types.  The fields
are the class annotations, in order, and a plain record takes one positional
value for each.  `==`, `hash`, `repr` go by field; no attribute can be set or deleted.
A parsing type defines `__init__` and passes the parsed values to `Record.__init__` once."""

from operator import attrgetter

_set = object.__setattr__   # field by field: a write to the instance dict ends compact storage


class Record:
    def __init_subclass__(cls):
        cls._fields = fields = tuple(vars(cls).get("__annotations__", ()))
        get = attrgetter(*fields)
        cls._values = get if len(fields) > 1 else staticmethod(lambda self: (get(self),))

    def __init__(self, *args):
        fields = self._fields
        if len(args) != len(fields):
            raise TypeError("%s() takes (%s)" % (type(self).__name__, ", ".join(fields)))
        i = 0
        for name in fields:   # indexing args costs less per field than unpacking a zip
            _set(self, name, args[i])
            i += 1

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
