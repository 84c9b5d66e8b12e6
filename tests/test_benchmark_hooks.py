"""The names perfbench's traced run hooks into must exist in the package.

``perfbench/tracing.py`` wraps methods by class attribute and reads spans by
function name; a rename in ``src/stgf`` would otherwise surface only in the
benchmark's own subprocess runs. The module is loaded from its file. One
test runs the single-window call perfbench makes on a training window, and
the last runs a forward pass under perfbench's tracer, for the same reason.
"""

import importlib
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

import stgf

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


def test_a_training_window_runs_through_the_single_window_call(tmp_path):
    # what perfbench/workloads.py's set-up and ``sample_tape`` run: one
    # window of a loaded dataset, with no index, through forward, loss
    # and backward
    stgf.generate_synthetic(tmp_path / "data", seed=4, n_nodes=4, n_slots=96)
    dataset = stgf.load_dataset(tmp_path / "data")
    fields = dataset.external_fields
    config = stgf.ModelConfig(
        n_nodes=dataset.n_nodes,
        n_channels=dataset.n_channels,
        external_cardinalities=tuple(len(f.categories) for f in fields if f.kind == "categorical"),
        external_continuous=sum(1 for f in fields if f.kind == "continuous"),
        gcn_dims=(4, 8), lstm_layers=2, lstm_hidden=8, embed_dim=2,
    )
    serve = stgf.TrainConfig()
    prepared = stgf.prepare_samples(dataset, config.window, serve.train_frac, serve.val_frac)
    params = stgf.init_params(config, np.random.default_rng(serve.seed))

    sample = prepared.train[0]
    local_norm = stgf.normalize_adjacency(stgf.build_local_adjacency(dataset.graph))
    tape = stgf.Tape()
    pred = stgf.model_forward(tape, params, sample.x, sample.external, local_norm, config)
    assert pred.value.shape == (dataset.n_nodes, 1)
    tape.backward(tape.mse_loss(pred, tape.constant(sample.y_norm)))
    for k in range(len(config.external_cardinalities)):
        assert np.any(tape.grad_for(params[f"ext_embed{k}"]))


def test_every_model_block_span_is_recorded_inside_the_forward_pass():
    # a block called around its module attribute would record no span, and
    # its per-block time would read 0
    config = stgf.ModelConfig(
        n_nodes=4, n_channels=3, gcn_dims=(4,), lstm_layers=2, lstm_hidden=5, embed_dim=2
    )
    params = stgf.init_params(config, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    window = rng.uniform(size=(config.window, config.n_nodes, config.n_channels))
    external = np.array([1.0, 2.0, 0.5])
    adjacency = np.full((config.n_nodes, config.n_nodes), 1.0 / config.n_nodes)

    tracer = tracing.Tracer(stgf.Tape)
    with tracing.instrument(tracer):
        stgf.model_forward(stgf.Tape(), params, window, external, adjacency, config)
    index = tracing.SpanIndex(tracer.spans)
    assert index.count("model.model_forward") == 1
    for block, span in tracing.MODEL_BLOCKS.items():
        assert index.count(span, "model.model_forward") >= 1, block
    assert index.count("model.lstm_cell", "model.model_forward") == config.lstm_layers
    # the wrappers are gone again
    assert not hasattr(stgf.model_forward, "__wrapped__")
