"""Model block tests, each checked against an independent transcription."""

import numpy as np
import pytest

from stgf.autodiff import Parameter, Tape
from stgf.errors import ShapeError, ValidationError
from stgf.gradcheck import grad_check
from stgf.model import (
    EXTERNAL_EMBED_WIDTH,
    HiddenState,
    ModelConfig,
    ModelParams,
    cgcn_forward,
    channel_fuse,
    external_encode,
    init_params,
    lstm_cell,
    model_forward,
    multiview_fuse,
)


def tiny_config(**overrides):
    base = dict(
        n_nodes=3,
        n_channels=2,
        window=2,
        gcn_dims=(2, 3),
        lstm_layers=1,
        lstm_hidden=4,
        embed_dim=2,
        external_cardinalities=(2,),
        external_continuous=1,
        external_hidden=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_inputs(config, seed=0):
    rng = np.random.default_rng(seed)
    window = rng.uniform(0.0, 1.0, size=(config.window, config.n_nodes, config.n_channels))
    external = np.zeros(config.external_dim)
    offset = 0
    for card in config.external_cardinalities:
        external[offset + int(rng.integers(card))] = 1.0
        offset += card
    external[offset:] = rng.uniform(0.0, 1.0, size=config.external_continuous)
    a = rng.uniform(0.1, 1.0, size=(config.n_nodes, config.n_nodes))
    local_norm = a / a.sum(axis=1, keepdims=True)
    return window, external, local_norm


# ----------------------------------------------------------------- config


def test_config_round_trips_through_dict():
    cfg = tiny_config(ablation="global-only")
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_ablation():
    with pytest.raises(ValidationError):
        tiny_config(ablation="bogus")


def test_config_rejects_empty_gcn_stack():
    with pytest.raises(ValidationError):
        tiny_config(gcn_dims=())


def test_external_dim_counts_categories_and_continuous():
    cfg = tiny_config(external_cardinalities=(3, 4), external_continuous=1)
    assert cfg.external_dim == 8


def test_first_gcn_layer_width_depends_on_channel_handling():
    assert tiny_config().gcn_layer_dims()[0] == (1, 2)
    assert tiny_config(ablation="no-channelwise").gcn_layer_dims()[0] == (2, 2)


# ------------------------------------------------------------- parameters


def test_init_params_respects_bounds_and_bias_conventions():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(3))
    assert np.all(params["lstm0_bf"].value == 1.0)
    assert np.all(params["lstm0_bi"].value == 0.0)
    assert np.all(params["head_b"].value == 0.0)
    w = params["gcn_local_w1"].value
    assert w.shape == (2, 3)
    assert np.all(np.abs(w) <= 1.0 / np.sqrt(2))
    table = params["ext_embed0"].value
    assert table.shape == (2, EXTERNAL_EMBED_WIDTH)


def test_init_params_variant_controls_which_stacks_exist():
    rng = np.random.default_rng(0)
    local = init_params(tiny_config(ablation="local-only"), rng)
    assert "gcn_local_w0" in local and "gcn_global_w0" not in local
    assert "fuse_global_w0" not in local
    assert "node_embedding" in local
    flat = init_params(tiny_config(ablation="no-channelwise"), np.random.default_rng(0))
    assert "fuse_local_w0" not in flat and "gcn_global_w0" in flat


def test_param_names_are_stable():
    cfg = tiny_config(lstm_layers=1, external_cardinalities=(2,))
    names = init_params(cfg, np.random.default_rng(1)).names()
    assert names == [
        "node_embedding",
        "gcn_local_w0",
        "gcn_local_w1",
        "gcn_global_w0",
        "gcn_global_w1",
        "fuse_local_w0",
        "fuse_local_w1",
        "fuse_global_w0",
        "fuse_global_w1",
        "lstm0_wf",
        "lstm0_bf",
        "lstm0_wi",
        "lstm0_bi",
        "lstm0_wc",
        "lstm0_bc",
        "lstm0_wo",
        "lstm0_bo",
        "ext_embed0",
        "ext_dense_w",
        "ext_dense_b",
        "head_w",
        "head_b",
    ]


def test_model_params_rejects_duplicate_names():
    params = ModelParams([Parameter("w", np.zeros((1, 1)))])
    with pytest.raises(ValidationError):
        params.add(Parameter("w", np.ones((1, 1))))


# ------------------------------------------------------------------- cgcn


def test_cgcn_matches_dense_algebra_oracle():
    cfg = tiny_config(window=1)
    rng = np.random.default_rng(7)
    adj = rng.uniform(0.0, 0.8, size=(3, 3))
    x = rng.uniform(-1.0, 1.0, size=(3, 2))
    params = init_params(cfg, np.random.default_rng(11))

    tape = Tape()
    got = cgcn_forward(tape, x, adj, params, "local", cfg).value

    want = np.zeros((3, 3))
    for i in range(2):
        h = x[:, i : i + 1]
        for l in range(2):
            h = np.maximum(adj @ h @ params[f"gcn_local_w{l}"].value, 0.0)
        want = want + params[f"fuse_local_w{i}"].value * h
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_cgcn_no_channelwise_runs_all_channels_at_once():
    cfg = tiny_config(window=1, ablation="no-channelwise")
    rng = np.random.default_rng(5)
    adj = rng.uniform(0.0, 0.8, size=(3, 3))
    x = rng.uniform(-1.0, 1.0, size=(3, 2))
    params = init_params(cfg, np.random.default_rng(13))

    got = cgcn_forward(Tape(), x, adj, params, "global", cfg).value
    h = x
    for l in range(2):
        h = np.maximum(adj @ h @ params[f"gcn_global_w{l}"].value, 0.0)
    assert np.array_equal(got, h)


def test_cgcn_rejects_wrong_channel_count():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(0))
    with pytest.raises(ShapeError, match="cgcn input"):
        cgcn_forward(Tape(), np.zeros((3, 5)), np.eye(3), params, "local", cfg)


def test_channel_fuse_scalar_hand_case():
    tape = Tape()
    weights = [tape.constant([[2.0]]), tape.constant([[3.0]])]
    feats = [tape.constant([[5.0]]), tape.constant([[7.0]])]
    assert channel_fuse(tape, feats, weights).value.item() == 31.0


def test_channel_fuse_requires_matching_lengths():
    tape = Tape()
    with pytest.raises(ShapeError):
        channel_fuse(tape, [tape.constant([[1.0]])], [])


# ------------------------------------------------------------------- lstm


def _lstm_reference(x, h_prev, c_prev, w):
    """Separate transcription of the cell used as the oracle."""
    z = np.concatenate([h_prev, x], axis=1)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    f = sig(z @ w["wf"] + w["bf"])
    i = sig(z @ w["wi"] + w["bi"])
    g = np.tanh(z @ w["wc"] + w["bc"])
    o = sig(z @ w["wo"] + w["bo"])
    c = f * c_prev + i * g
    return o * np.tanh(c), c


def test_lstm_cell_matches_reference_transcription():
    rng = np.random.default_rng(21)
    n, d_in, hidden = 4, 3, 5
    params = ModelParams()
    w = {}
    for gate in "fico":
        w[f"w{gate}"] = rng.normal(size=(hidden + d_in, hidden))
        w[f"b{gate}"] = rng.normal(size=(1, hidden))
        params.add(Parameter(f"lstm0_w{gate}", w[f"w{gate}"]))
        params.add(Parameter(f"lstm0_b{gate}", w[f"b{gate}"]))
    x = rng.normal(size=(n, d_in))
    h_prev = rng.normal(size=(n, hidden))
    c_prev = rng.normal(size=(n, hidden))

    tape = Tape()
    h, c = lstm_cell(
        tape, tape.constant(x), tape.constant(h_prev), tape.constant(c_prev), params, 0
    )
    h_want, c_want = _lstm_reference(x, h_prev, c_prev, w)
    assert np.allclose(h.value, h_want, rtol=0.0, atol=1e-12)
    assert np.allclose(c.value, c_want, rtol=0.0, atol=1e-12)


def test_lstm_cell_zero_weights_halve_the_memory():
    n, d_in, hidden = 2, 3, 4
    params = ModelParams()
    for gate in "fico":
        params.add(Parameter(f"lstm0_w{gate}", np.zeros((hidden + d_in, hidden))))
        params.add(Parameter(f"lstm0_b{gate}", np.zeros((1, hidden))))
    c_prev = np.arange(n * hidden, dtype=float).reshape(n, hidden)
    tape = Tape()
    h, c = lstm_cell(
        tape,
        tape.constant(np.ones((n, d_in))),
        tape.constant(np.zeros((n, hidden))),
        tape.constant(c_prev),
        params,
        0,
    )
    assert np.allclose(c.value, 0.5 * c_prev, rtol=0.0, atol=1e-15)
    assert np.allclose(h.value, 0.5 * np.tanh(0.5 * c_prev), rtol=0.0, atol=1e-15)


def test_lstm_hidden_state_is_strictly_bounded():
    rng = np.random.default_rng(2)
    hidden, d_in = 6, 6
    params = ModelParams()
    for gate in "fico":
        params.add(Parameter(f"lstm0_w{gate}", rng.normal(scale=5.0, size=(hidden + d_in, hidden))))
        params.add(Parameter(f"lstm0_b{gate}", rng.normal(scale=5.0, size=(1, hidden))))
    tape = Tape()
    h, _ = lstm_cell(
        tape,
        tape.constant(rng.normal(scale=10.0, size=(5, d_in))),
        tape.constant(rng.uniform(-0.99, 0.99, size=(5, hidden))),
        tape.constant(rng.normal(scale=0.5, size=(5, hidden))),
        params,
        0,
    )
    assert np.all(np.abs(h.value) < 1.0)


# -------------------------------------------------------------- externals


def test_external_encode_picks_the_right_embedding_row():
    cfg = tiny_config(external_cardinalities=(3,), external_continuous=1, external_hidden=5)
    params = ModelParams()
    table = np.arange(3 * EXTERNAL_EMBED_WIDTH, dtype=float).reshape(3, EXTERNAL_EMBED_WIDTH)
    params.add(Parameter("ext_embed0", table))
    params.add(Parameter("ext_dense_w", np.eye(EXTERNAL_EMBED_WIDTH + 1, 5)))
    params.add(Parameter("ext_dense_b", np.zeros((1, 5))))
    raw = np.array([0.0, 0.0, 1.0, 0.25])
    out = external_encode(Tape(), raw, params, cfg).value
    want = np.maximum(np.concatenate([table[2], [0.25]]) @ np.eye(5, 5), 0.0)[None, :]
    assert np.allclose(out, want, rtol=0.0, atol=1e-15)


def test_external_encode_rejects_bad_one_hot():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(0))
    bad = np.array([1.0, 1.0, 0.3])
    with pytest.raises(ValidationError, match="one-hot"):
        external_encode(Tape(), bad, params, cfg)


def test_external_encode_rejects_wrong_length():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(0))
    with pytest.raises(ShapeError, match="external vector"):
        external_encode(Tape(), np.zeros(cfg.external_dim + 2), params, cfg)


# ------------------------------------------------------------- full model


def test_multiview_fuse_adds_views():
    tape = Tape()
    a = tape.constant([[1.0, 2.0]])
    b = tape.constant([[10.0, 20.0]])
    assert np.array_equal(multiview_fuse(tape, a, b).value, [[11.0, 22.0]])
    assert multiview_fuse(tape, a, None, "local-only") is a
    assert multiview_fuse(tape, None, b, "global-only") is b
    with pytest.raises(ShapeError):
        multiview_fuse(tape, a, None, "full")


def test_zero_parameters_collapse_to_the_head_bias():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(0))
    for p in params:
        p.value[:] = 0.0
    params["head_b"].value[:] = 7.25
    window, external, local_norm = random_inputs(cfg, seed=4)
    out = model_forward(Tape(), params, window, external, local_norm, cfg)
    assert out.value.shape == (cfg.n_nodes, 1)
    assert np.allclose(out.value, 7.25, rtol=0.0, atol=1e-12)


def test_forward_is_deterministic_and_shaped():
    cfg = tiny_config(lstm_layers=2)
    params = init_params(cfg, np.random.default_rng(9))
    window, external, local_norm = random_inputs(cfg, seed=1)
    first = model_forward(Tape(), params, window, external, local_norm, cfg).value
    second = model_forward(Tape(), params, window, external, local_norm, cfg).value
    assert first.shape == (cfg.n_nodes, 1)
    assert np.array_equal(first, second)


def _forward_and_grads(cfg, params, window, external, local_norm, target):
    tape = Tape()
    out = model_forward(tape, params, window, external, local_norm, cfg)
    tape.backward(tape.mse_loss(out, tape.constant(target)))
    return out.value, {p.name: tape.grad_for(p) for p in params}


def test_local_only_output_and_gradients_ignore_the_node_embedding():
    cfg = tiny_config(ablation="local-only")
    params = init_params(cfg, np.random.default_rng(10))
    window, external, local_norm = random_inputs(cfg, seed=2)
    target = np.random.default_rng(40).uniform(size=(cfg.n_nodes, 1))
    before, grads_before = _forward_and_grads(
        cfg, params, window, external, local_norm, target
    )
    params["node_embedding"].value[:] = np.random.default_rng(99).normal(
        size=params["node_embedding"].value.shape
    )
    after, grads_after = _forward_and_grads(
        cfg, params, window, external, local_norm, target
    )
    assert np.array_equal(before, after)
    for name in grads_before:
        assert np.array_equal(grads_before[name], grads_after[name]), name
    assert not np.any(grads_before["node_embedding"])


def test_global_only_output_and_gradients_ignore_the_distance_graph():
    cfg = tiny_config(ablation="global-only")
    params = init_params(cfg, np.random.default_rng(12))
    window, external, local_norm = random_inputs(cfg, seed=3)
    target = np.random.default_rng(41).uniform(size=(cfg.n_nodes, 1))
    with_graph, grads_with = _forward_and_grads(
        cfg, params, window, external, local_norm, target
    )
    without, grads_without = _forward_and_grads(
        cfg, params, window, external, None, target
    )
    other, _ = _forward_and_grads(
        cfg, params, window, external, local_norm * 3.0, target
    )
    assert np.array_equal(with_graph, without)
    assert np.array_equal(with_graph, other)
    for name in grads_with:
        assert np.array_equal(grads_with[name], grads_without[name]), name


def test_single_channel_unit_fusion_matches_no_channelwise():
    cfg_full = tiny_config(n_channels=1)
    cfg_flat = tiny_config(n_channels=1, ablation="no-channelwise")
    full = init_params(cfg_full, np.random.default_rng(17))
    for view in ("local", "global"):
        full[f"fuse_{view}_w0"].value[:] = 1.0
    flat = ModelParams()
    for p in full:
        if not p.name.startswith("fuse_"):
            flat.add(Parameter(p.name, p.value.copy()))
    window, external, local_norm = random_inputs(cfg_full, seed=6)
    a = model_forward(Tape(), full, window, external, local_norm, cfg_full).value
    b = model_forward(Tape(), flat, window, external, local_norm, cfg_flat).value
    assert np.allclose(a, b, rtol=0.0, atol=1e-12)


def test_forward_rejects_wrong_window_shape():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(0))
    _, external, local_norm = random_inputs(cfg)
    with pytest.raises(ShapeError, match="model input window"):
        model_forward(Tape(), params, np.zeros((5, 3, 2)), external, local_norm, cfg)


def test_hidden_state_zeros_matches_layout():
    cfg = tiny_config(lstm_layers=3)
    state = HiddenState.zeros(Tape(), cfg)
    assert len(state.layers) == 3
    for h, c in state.layers:
        assert h.value.shape == (cfg.n_nodes, cfg.lstm_hidden)
        assert np.all(c.value == 0.0)


def test_full_model_gradients_match_finite_differences():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(23))
    window, external, local_norm = random_inputs(cfg, seed=8)
    target = np.random.default_rng(30).uniform(0.0, 1.0, size=(cfg.n_nodes, 1))

    def build(tape):
        out = model_forward(tape, params, window, external, local_norm, cfg)
        return tape.mse_loss(out, tape.constant(target))

    err = grad_check(build, list(params))
    assert err < 1e-4


def test_every_parameter_receives_gradient_on_random_data():
    # no dead branches: the embedding, every fusion weight, every gate,
    # and the external tables all see nonzero gradient from one sample.
    # At these toy widths a ReLU stack can go dark for unlucky inits (the
    # channel-wise first layer is a handful of scalars), so the seed is
    # pinned to an instance where every unit fires.
    cfg = tiny_config(gcn_dims=(4, 3))
    params = init_params(cfg, np.random.default_rng(1))
    window, external, local_norm = random_inputs(cfg, seed=8)
    target = np.random.default_rng(30).uniform(0.0, 1.0, size=(cfg.n_nodes, 1))

    tape = Tape()
    out = model_forward(tape, params, window, external, local_norm, cfg)
    tape.backward(tape.mse_loss(out, tape.constant(target)))

    quiet = [p.name for p in params if not np.any(tape.grad_for(p))]
    assert quiet == [], f"dead parameters: {quiet}"


# ------------------------------------------------------------------ batches

# the widths of acceptance criterion 4 on a 10-node, 3-channel network
CRITERION_4 = dict(
    n_nodes=10,
    n_channels=3,
    window=3,
    gcn_dims=(8, 16),
    lstm_layers=1,
    lstm_hidden=32,
    embed_dim=4,
    external_cardinalities=(3, 4),
    external_continuous=1,
    external_hidden=8,
)


def random_batch(config, n_batch, seed):
    samples = [random_inputs(config, seed=seed + k) for k in range(n_batch)]
    windows = np.stack([w for w, _, _ in samples])
    externals = np.stack([e for _, e, _ in samples])
    targets = np.random.default_rng(seed).uniform(size=(n_batch, config.n_nodes, 1))
    return windows, externals, samples[0][2], targets


@pytest.mark.parametrize(
    "overrides",
    [{}, {"lstm_layers": 2, "ablation": "no-channelwise"}],
    ids=["criterion-4", "two-layer-no-channelwise"],
)
def test_batch_agrees_with_batches_of_one(overrides):
    cfg = ModelConfig(**{**CRITERION_4, **overrides})
    params = init_params(cfg, np.random.default_rng(31))
    windows, externals, local_norm, targets = random_batch(cfg, 5, seed=50)

    tape = Tape()
    out = model_forward(tape, params, windows, externals, local_norm, cfg)
    assert out.value.shape == (5, cfg.n_nodes, 1)
    tape.backward(tape.mean(tape.mse_per_sample(out, tape.constant(targets))))

    want_grads = {p.name: np.zeros_like(p.value) for p in params}
    for b in range(5):
        one = Tape()
        pred = model_forward(one, params, windows[b], externals[b], local_norm, cfg)
        assert pred.value.shape == (cfg.n_nodes, 1)
        scale = np.max(np.abs(pred.value))
        assert np.max(np.abs(out.value[b] - pred.value)) <= 1e-12 * scale
        one.backward(one.mse_loss(pred, one.constant(targets[b])))
        for p in params:
            want_grads[p.name] += one.grad_for(p) / 5

    for p in params:
        got, want = tape.grad_for(p), want_grads[p.name]
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300), p.name


# each window's slots as rows of an 8-slot block: overlapping windows that
# share P - 1 slots, and a batch that repeats a window outright
SHARED_SLOT_BATCHES = {
    "overlapping": np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4], [5, 6, 7]]),
    "repeated": np.array([[0, 1, 2], [4, 5, 6], [0, 1, 2]]),
}


@pytest.mark.parametrize("index", SHARED_SLOT_BATCHES.values(), ids=SHARED_SLOT_BATCHES)
@pytest.mark.parametrize(
    "overrides",
    [{}, {"lstm_layers": 2, "ablation": "no-channelwise"}],
    ids=["criterion-4", "two-layer-no-channelwise"],
)
def test_shared_slots_agree_with_per_window_passes(overrides, index):
    cfg = ModelConfig(**{**CRITERION_4, **overrides})
    params = init_params(cfg, np.random.default_rng(33))
    slots = np.random.default_rng(70).uniform(size=(8, cfg.n_nodes, cfg.n_channels))
    _, externals, local_norm, targets = random_batch(cfg, len(index), seed=80)

    tape = Tape()
    out = model_forward(tape, params, slots, externals, local_norm, cfg, index)
    assert out.value.shape == (len(index), cfg.n_nodes, 1)
    tape.backward(tape.mean(tape.mse_per_sample(out, tape.constant(targets))))

    want_grads = {p.name: np.zeros_like(p.value) for p in params}
    for b, rows in enumerate(index):
        one = Tape()
        pred = model_forward(one, params, slots[rows], externals[b], local_norm, cfg)
        scale = np.max(np.abs(pred.value))
        assert np.max(np.abs(out.value[b] - pred.value)) <= 1e-12 * scale
        one.backward(one.mse_loss(pred, one.constant(targets[b])))
        for p in params:
            want_grads[p.name] += one.grad_for(p) / len(index)

    for p in params:
        got, want = tape.grad_for(p), want_grads[p.name]
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300), p.name


def test_forward_convolves_each_distinct_slot_once():
    cfg = ModelConfig(**CRITERION_4)
    params = init_params(cfg, np.random.default_rng(34))
    slots = np.random.default_rng(71).uniform(size=(8, cfg.n_nodes, cfg.n_channels))
    _, externals, local_norm, _ = random_batch(cfg, 4, seed=81)
    tape = Tape()
    model_forward(tape, params, slots, externals, local_norm, cfg, SHARED_SLOT_BATCHES["overlapping"])
    # the first layer of each view's stack sees the 8 slots, not 4 x 3 window slots
    first = [n for n in tape.nodes if n.op == "matmul" and n.value.shape[-2:] == (cfg.n_nodes, 1)]
    assert [n.value.shape[:2] for n in first] == [(cfg.n_channels, 8)] * 2


def test_forward_rejects_a_bad_slot_index():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(0))
    _, external, local_norm = random_inputs(cfg)
    slots = np.zeros((4, cfg.n_nodes, cfg.n_channels))
    externals = np.stack([external, external])
    with pytest.raises(ShapeError, match="model input index"):
        model_forward(Tape(), params, slots, externals, local_norm, cfg, np.zeros((2, 3), int))
    with pytest.raises(ShapeError, match="model input window"):
        model_forward(Tape(), params, slots[:, :, :1], externals, local_norm, cfg, np.zeros((2, 2), int))
    with pytest.raises(ShapeError, match="take"):
        model_forward(Tape(), params, slots, externals, local_norm, cfg, np.full((2, 2), 4))


def test_forward_rejects_covariates_of_another_batch_size():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(0))
    windows, externals, local_norm, _ = random_batch(cfg, 3, seed=1)
    with pytest.raises(ShapeError, match="covariates"):
        model_forward(Tape(), params, windows, externals[:2], local_norm, cfg)


def _retained_bytes(tape, params):
    """Bytes of the distinct buffers behind the tape's values, parameters excluded."""
    owners = {}
    for node in tape.nodes:
        array = node.value
        while array.base is not None:
            array = array.base
        owners[id(array)] = array
    for p in params:
        owners.pop(id(p.value), None)
    return sum(a.nbytes for a in owners.values())


def test_training_tape_retains_less_per_sample_than_a_per_sample_tape():
    # a criterion-4 sample on its own tape retained 312,856 value bytes
    cfg = ModelConfig(**CRITERION_4)
    params = init_params(cfg, np.random.default_rng(32))
    windows, externals, local_norm, targets = random_batch(cfg, 32, seed=60)
    tape = Tape()
    out = model_forward(tape, params, windows, externals, local_norm, cfg)
    tape.mean(tape.mse_per_sample(out, tape.constant(targets)))
    assert _retained_bytes(tape, params) / 32 < 312_856
