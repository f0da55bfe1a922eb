"""Export integrity: each module's `__all__` names what it defines, and the
package republishes exactly the `__all__` of the modules it imports."""

import ast
import importlib
import pkgutil
from pathlib import Path
from types import ModuleType

import pytest

import k3mukai

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(k3mukai.__path__) if info.name != "__main__"
)


def republished_modules() -> list[str]:
    """The modules that `k3mukai/__init__.py` imports, each as `from .<module> import *`;
    any other statement but the docstring and dunder assignments fails."""
    tree = ast.parse(Path(k3mukai.__file__).read_text())
    modules = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            assert (node.level, [alias.name for alias in node.names]) == (1, ["*"])
            modules.append(node.module)
        elif isinstance(node, ast.Assign):
            assert all(
                isinstance(target, ast.Name) and target.id.startswith("__")
                for target in node.targets
            )
        else:
            assert isinstance(node, ast.Expr) and node is tree.body[0], ast.dump(node)
    return modules


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"k3mukai.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_are_exported():
    modules = republished_modules()
    assert modules and set(modules) <= set(MODULES)
    exported = set()
    for name in modules:
        exported.update(importlib.import_module(f"k3mukai.{name}").__all__)
    public = {
        name for name, value in vars(k3mukai).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == exported
