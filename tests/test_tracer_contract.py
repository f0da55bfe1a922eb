"""perfbench's tracer imports one k3mukai module per name in its LAYERS and
crashes on a missing one; every layer must stay importable from src/.  It
also wraps public functions by replacing module attributes, so the CLI must
reach its parser and handlers through them, and every function it reads a
metric from by name must still exist, or that metric silently reads 0."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
from collections import Counter
from pathlib import Path

import pytest

import k3mukai.checks
import k3mukai.cli as cli

REPO = Path(__file__).resolve().parent.parent
TRACING_PATH = REPO / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()

# names the tracer reads that need not resolve in src/, each with its reason
EXEMPT = {
    # wrapped on each parser that cli.build_parser returns, not on a module
    "cli.parse_args",
    # row_hermite is a test oracle now; hermite.row_hermite_calls reads 0
    # until the benchmark drops that metric
    "hermite.row_hermite",
}


def traced_names():
    """The tracer's observer keys and the calls[...]/total[...] names its
    layer_metrics reads."""
    tree = ast.parse(TRACING_PATH.read_text())
    metrics = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics")
    read = {node.slice.value for node in ast.walk(metrics)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id in ("calls", "total") and isinstance(node.slice, ast.Constant)}
    return sorted((set(tracing.Tracer()._observers) | read) - EXEMPT)


@pytest.mark.parametrize("layer", tracing.LAYERS)
def test_layer_module_imports_from_src(layer):
    module = importlib.import_module(f"k3mukai.{layer}")
    assert Path(module.__file__).resolve().parent == REPO / "src" / "k3mukai"


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_wrapped_in_src(name):
    # the tracer wraps a layer's public functions defined in that module, and
    # the methods in METHODS; a name it reads that is neither never records
    layer, *path = name.split(".")
    assert layer in tracing.LAYERS
    module = importlib.import_module(f"k3mukai.{layer}")
    if len(path) == 1:
        fn = getattr(module, path[0], None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__
        assert not path[0].startswith("_")
    else:
        cls_name, method = path
        assert (layer, cls_name, method) in tracing.METHODS
        assert method in vars(getattr(module, cls_name))


def count_calls(monkeypatch, calls: Counter, module, name: str) -> None:
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_main_calls_parser_and_handler_through_module_attributes(monkeypatch):
    # the tracer times parsing and each handler by replacing `build_parser`
    # and `cmd_*` on k3mukai.cli after import; a main that held on to the
    # original functions would bypass it, and its timings would read 0
    calls = Counter()
    count_calls(monkeypatch, calls, cli, "build_parser")
    count_calls(monkeypatch, calls, cli, "cmd_pair")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["pair", "--v", "2,1,2", "--u", "2,1,2", "--c2", "8"])
    assert code == 0 and "pairing" in out.getvalue()
    assert calls == {"build_parser": 1, "cmd_pair": 1}


def test_ledger_calls_checks_through_module_attributes(monkeypatch):
    # the tracer counts checks.calls by replacing each check function on
    # k3mukai.checks, where the ledger looks it up on each call; a ledger
    # holding the originals, say in a table built at import, would bypass it,
    # and checks.calls would read 0
    calls = Counter()
    count_calls(monkeypatch, calls, k3mukai.checks, "kernel_square")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify-paper", "--g", "3", "--n", "2"])
    # N = 1 .. 2g at each of the three lengths
    assert code == 0 and calls == {"kernel_square": 3 * 2 * 3}


def test_every_subcommand_has_a_handler():
    for name in cli._SUBCOMMANDS:
        assert callable(getattr(cli, "cmd_" + name.replace("-", "_")))
