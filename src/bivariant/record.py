"""The shared base of the library's immutable value classes.

Each value class lists its fields in _fields and sets them in its own
__init__ with setfield, which is object.__setattr__ and so gets past the
guard below.  The methods are written out once here, not generated for each
class at import time: generating them took about a third of the package's
import.
"""

setfield = object.__setattr__


class Frozen:
    """A value given by its fields, named in _fields in constructor order.

    Two instances of one class are equal when their field tuples are, and
    hash as that tuple; repr shows the fields.  Assigning or deleting a field
    after __init__ raises AttributeError.
    """

    _fields = ()

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
