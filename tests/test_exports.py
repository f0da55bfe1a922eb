"""Export integrity: each module's `__all__` names what it defines, and the
package re-exports only names its modules list in `__all__`."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import k3mukai

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(k3mukai.__path__) if info.name != "__main__"
)


def package_imports() -> dict[str, list[str]]:
    """module name -> names that `k3mukai/__init__.py` imports from it."""
    tree = ast.parse(Path(k3mukai.__file__).read_text())
    imports = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return imports


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"k3mukai.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_are_exported():
    imports = package_imports()
    assert set(imports) <= set(MODULES)
    for name, names in imports.items():
        exported = getattr(importlib.import_module(f"k3mukai.{name}"), "__all__", ())
        assert [attr for attr in names if attr not in exported] == [], name
    assert imports
