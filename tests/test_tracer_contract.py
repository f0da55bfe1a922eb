"""perfbench's tracer imports one k3mukai module per name in its LAYERS and
crashes on a missing one; every layer must stay importable from src/.  It
also wraps public functions by replacing module attributes, so the CLI must
reach its parser and handlers through them."""

import contextlib
import importlib
import importlib.util
import io
from collections import Counter
from pathlib import Path

import pytest

import k3mukai.cli as cli

REPO = Path(__file__).resolve().parent.parent


def tracer_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer", tracer_layers())
def test_layer_module_imports_from_src(layer):
    module = importlib.import_module(f"k3mukai.{layer}")
    assert Path(module.__file__).resolve().parent == REPO / "src" / "k3mukai"


def count_calls(monkeypatch, calls: Counter, name: str) -> None:
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)


def test_main_calls_parser_and_handler_through_module_attributes(monkeypatch):
    # the tracer times parsing and each handler by replacing `build_parser`
    # and `cmd_*` on k3mukai.cli after import; a main that held on to the
    # original functions would bypass it, and its timings would read 0
    calls = Counter()
    count_calls(monkeypatch, calls, "build_parser")
    count_calls(monkeypatch, calls, "cmd_pair")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["pair", "--v", "2,1,2", "--u", "2,1,2", "--c2", "8"])
    assert code == 0 and "pairing" in out.getvalue()
    assert calls == {"build_parser": 1, "cmd_pair": 1}


def test_ledger_calls_checks_through_module_attributes(monkeypatch):
    # the tracer counts checks.calls by replacing each check function on
    # k3mukai.cli; a ledger holding the originals, say in a table built at
    # import, would bypass it, and checks.calls would read 0
    calls = Counter()
    count_calls(monkeypatch, calls, "kernel_square")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify-paper", "--g", "3", "--n", "2"])
    # N = 1 .. 2g at each of the three lengths
    assert code == 0 and calls == {"kernel_square": 3 * 2 * 3}


def test_every_subcommand_has_a_handler():
    for name in cli._SUBCOMMANDS:
        assert callable(getattr(cli, "cmd_" + name.replace("-", "_")))
