"""The shared base of the library's immutable value classes.

A value class names its fields once, in _fields in constructor order, and
gives its optional trailing fields' values in _defaults.  Unless it writes
its own __init__, to check or reduce its inputs, Frozen compiles one for it
at class creation: a plain def __init__(self, a, b, c=<default>) of
setfield calls, as fast as one written by hand.  setfield is
object.__setattr__, and so gets past the guard below.
"""

setfield = object.__setattr__


class Frozen:
    """A value given by its fields, named in _fields in constructor order.

    Two instances of one class are equal when their field tuples are, and
    hash as that tuple; repr shows the fields.  Assigning or deleting a field
    after __init__ raises AttributeError.
    """

    _fields = ()
    _defaults = ()

    def __init_subclass__(cls, **kwargs):
        """Compile cls.__init__ from _fields and _defaults, unless cls writes one."""
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__ or "__init__" in cls.__dict__:
            return
        names, defaults = cls._fields, cls._defaults
        first = len(names) - len(defaults)
        params = [*names[:first], *(f"{name}=_d{k}" for k, name in enumerate(names[first:]))]
        body = "".join(f"\n    setfield(self, {name!r}, {name})" for name in names)
        namespace = {"setfield": setfield, **{f"_d{k}": v for k, v in enumerate(defaults)}}
        exec(f"def __init__(self, {', '.join(params)}):{body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")
