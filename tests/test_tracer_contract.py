"""perfbench's tracer imports one k3mukai module per name in its LAYERS and
crashes on a missing one; every layer must stay importable from src/."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
