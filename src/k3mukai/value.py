"""The shared base of the package's immutable value types."""


class Value:
    """Equality, hash and repr over `vars(self)`; assignment raises.  Each
    subclass's `__init__` ends with one `Value.__init__(self, name=value, ...)`
    call in its parameter order, so `Value.__init__` is the one field store;
    naming the base, not calling `super()`, makes no `super` object per
    value.  Unlike `dataclasses`, it generates no code at import time."""

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
