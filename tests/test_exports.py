"""Export integrity: each module's `__all__` names what it defines, and the
package republishes exactly the `__all__` of the modules it names, loading
each on first use."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import k3mukai

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(k3mukai.__path__) if info.name != "__main__"
)


def republished_modules() -> list[str]:
    """The modules named by `_MODULES` in `k3mukai/__init__.py`.  Besides the
    docstring, that file may only import under private names, assign private
    names and define the PEP 562 hooks `__getattr__` and `__dir__`, so the
    package declares no public name of its own; any other statement fails."""
    tree = ast.parse(Path(k3mukai.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            assert all((alias.asname or "").startswith("_") for alias in node.names)
        elif isinstance(node, ast.Assign):
            assert all(
                isinstance(target, ast.Name) and target.id.startswith("_")
                for target in node.targets
            )
        elif isinstance(node, ast.FunctionDef):
            assert node.name in ("__getattr__", "__dir__")
        else:
            assert isinstance(node, ast.Expr) and node is tree.body[0], ast.dump(node)
    return list(k3mukai._MODULES)


def exports() -> dict[str, object]:
    """Each name in a republished module's `__all__`, with its module."""
    modules = [importlib.import_module(f"k3mukai.{m}") for m in republished_modules()]
    return {name: module for module in modules for name in module.__all__}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"k3mukai.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_are_exported():
    modules = republished_modules()
    assert modules and set(modules) <= set(MODULES)
    assert k3mukai.__all__ == list(exports())  # in module order, no duplicates


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from k3mukai import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(exports())


def test_each_export_is_its_module_attribute():
    for name, module in exports().items():
        assert getattr(k3mukai, name) is getattr(module, name)


def test_dir_lists_every_export():
    assert set(exports()) <= set(dir(k3mukai))


# a public name of a module the package does not republish, a module's
# unexported names, a name of cli (which the package never loads), and no name
@pytest.mark.parametrize(
    "name", ["kernel_of_functional", "Value", "_complete", "ledger_checks", "no_such_name"]
)
def test_unexported_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(k3mukai, name)
