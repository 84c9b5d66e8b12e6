"""The names perfbench's traced run hooks into must exist in the package.

``perfbench/tracing.py`` wraps methods by class attribute and reads spans by
function name; a rename in ``src/stgf`` would otherwise surface only in the
benchmark's own subprocess runs. The module is loaded from its file and
only read.
"""

import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # compiled from the source text, so no bytecode is written beside it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("layer, cls_name, method", tracing.METHODS)
def test_every_traced_method_is_defined_on_its_class(layer, cls_name, method):
    cls = getattr(importlib.import_module(f"stgf.{layer}"), cls_name)
    assert inspect.isfunction(cls.__dict__.get(method)), f"{cls_name}.{method}"


HOOKED_FUNCTIONS = sorted(
    {span.split("[")[0] for span in tracing.MODEL_BLOCKS.values()}
    | {"training.adam_step", "training.clip_gradients"}
)


@pytest.mark.parametrize("name", HOOKED_FUNCTIONS)
def test_every_hooked_function_is_public_in_its_module(name):
    layer, func = name.split(".")
    assert layer in tracing.LAYERS
    module = importlib.import_module(f"stgf.{layer}")
    obj = vars(module).get(func)
    assert not func.startswith("_")
    assert inspect.isfunction(obj) and obj.__module__ == f"stgf.{layer}", name
