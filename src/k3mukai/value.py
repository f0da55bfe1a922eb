"""The shared base of the package's immutable value types."""


class Value:
    """Equality, hash and repr over `vars(self)`, where each subclass's `__init__`
    sets the fields in order through `object.__setattr__`; assignment raises.
    Unlike `dataclasses`, it generates no code at import time."""

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
