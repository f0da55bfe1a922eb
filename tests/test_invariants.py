"""Two standing invariants of the library, read off its source: the
arithmetic is exact (no float literal, no `float(...)` call and no true
division anywhere in `src/k3mukai`), and the package has no runtime
dependency."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "k3mukai").glob("*.py"))


def inexact(tree) -> list[tuple[int, str]]:
    """(line, kind) of every float literal, `float(...)` call and true division."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "float() call"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
    return sorted(found)


def test_scan_finds_each_inexact_form():
    source = "a = 0.5\nb = float(a)\nc = a / 2\nc /= 3\nd = 2j\ne = a // 2\n"
    assert inexact(ast.parse(source)) == [
        (1, "float literal"),
        (2, "float() call"),
        (3, "true division"),
        (4, "true division"),
        (5, "float literal"),
    ]
    assert "mukai.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_is_exact(path):
    assert inexact(ast.parse(path.read_text(), filename=str(path))) == []


def test_no_runtime_dependencies():
    # the [project] table runs up to the next table header
    project = (ROOT / "pyproject.toml").read_text().split("\n[project]\n", 1)[1]
    project = project.split("\n[", 1)[0]
    assert re.findall(r"(?m)^dependencies\b.*$", project) == ["dependencies = []"]
