"""Frozen value records, the base of the package's value types.  The fields
are the class annotations, in order, and a plain record takes one positional
value for each.  `==`, `hash`, `repr` go by field; no attribute can be set or deleted.
A parsing type defines `__init__` and passes the parsed values to `Record.__init__` once;
a value the package computed from parsed values is built by `_built`, without the parse."""

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

    @classmethod
    def _built(cls, *values):
        """The record of values that are each already what the parsing
        constructor would make of them; its checks and parses are skipped."""
        self = object.__new__(cls)
        Record.__init__(self, *values)
        return self

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


class derived:
    """A value derived from a record's fields on its first read and kept on
    the instance, not as a field: ==, hash and repr do not see it, and
    Record still refuses its assignment and deletion.  Unlike
    functools.cached_property it takes no lock: a value that two threads
    derive at once is derived twice, to equal results."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        _set(instance, self.name, value)   # no __set__ here, so it lands on the instance
        return value
