"""Exact Mukai-lattice arithmetic for K3 surfaces.

Integer-exact tools for the lattice side of moduli of sheaves on a K3:
Mukai vectors and their pairing, the Beauville-Bogomolov form on the
Hilbert scheme of points, isotropic-class search (the numerical fibration
criterion), the Mukai-dual surface's numeric data, and an equivalence
decision for integral binary quadratic forms by reduction.

The package republishes each module's `__all__`, and loads a module on the
first use of one of its names (PEP 562), so `import k3mukai` loads none.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each after the modules it imports: a lookup imports them in this order until
# one exports the name, so it loads little that the name's module would not.
_MODULES = ("mukai", "quadforms", "bb", "dual_surface", "checks")


def __getattr__(name: str):
    if name == "__all__":
        return [n for m in _MODULES for n in _import_module(f".{m}", __name__).__all__]
    for m in _MODULES:
        module = _import_module(f".{m}", __name__)
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
