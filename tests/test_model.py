"""Model block tests, each checked against an independent transcription."""

import numpy as np
import pytest

from stgf.autodiff import Parameter, Tape
from stgf.errors import ShapeError, ValidationError
from stgf.gradcheck import grad_check
from stgf.model import (
    ABLATIONS,
    EXTERNAL_EMBED_WIDTH,
    ModelConfig,
    ModelParams,
    cgcn_forward,
    external_encode,
    init_params,
    lstm_cell,
    model_forward,
    multiview_fuse,
    param_layout,
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
    external = np.concatenate([
        [rng.integers(card) for card in config.external_cardinalities],
        rng.uniform(0.0, 1.0, size=config.external_continuous),
    ])
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


@pytest.mark.parametrize(
    "key, value",
    [
        ("window", 2.0),
        ("n_nodes", 4.5),
        ("lstm_hidden", True),
        ("gcn_dims", (4, 8.7)),
        ("gcn_dims", 5),
        ("external_cardinalities", (2, False)),
    ],
)
def test_config_refuses_non_integer_geometry(key, value):
    with pytest.raises(ValidationError, match=f"{key} must be "):
        tiny_config(**{key: value})


def test_config_keeps_integer_geometry_as_ints():
    cfg = tiny_config(gcn_dims=[np.int64(2), 3], window=np.int32(2))
    assert cfg.gcn_dims == (2, 3) and type(cfg.gcn_dims[0]) is int
    assert type(cfg.window) is int


def test_external_dim_counts_categories_and_continuous():
    cfg = tiny_config(external_cardinalities=(3, 4), external_continuous=1)
    assert cfg.external_dim == 3
    assert tiny_config(external_cardinalities=(5,), external_continuous=0).external_dim == 1


def test_a_config_without_covariate_inputs_is_refused():
    # it used to build, then fail in the covariate encoder's concatenation
    with pytest.raises(ValidationError, match="the model needs a covariate input"):
        tiny_config(external_cardinalities=(), external_continuous=0)


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


def reference_init(config, rng):
    """The per-tensor initializer the flat one replaced, as (name, value)."""

    def uniform(fan_in, shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    out = [("node_embedding", uniform(config.embed_dim, (config.n_nodes, config.embed_dim)))]
    for view in config.active_views:
        for l, (d_in, d_out) in enumerate(config.gcn_layer_dims()):
            out.append((f"gcn_{view}_w{l}", uniform(d_in, (d_in, d_out))))
    if config.channelwise:
        f = config.feature_dim
        for view in config.active_views:
            for i in range(config.n_channels):
                out.append((f"fuse_{view}_w{i}", uniform(f, (config.n_nodes, f))))
    for layer, d_in in enumerate(config.lstm_input_dims()):
        z = config.lstm_hidden + d_in
        for gate in "fico":
            out.append((f"lstm{layer}_w{gate}", uniform(z, (z, config.lstm_hidden))))
            out.append((f"lstm{layer}_b{gate}", np.full((1, config.lstm_hidden), float(gate == "f"))))
    for k, card in enumerate(config.external_cardinalities):
        out.append((f"ext_embed{k}", uniform(card, (card, EXTERNAL_EMBED_WIDTH))))
    enc_in = EXTERNAL_EMBED_WIDTH * len(config.external_cardinalities) + config.external_continuous
    out.append(("ext_dense_w", uniform(enc_in, (enc_in, config.external_hidden))))
    out.append(("ext_dense_b", np.zeros((1, config.external_hidden))))
    head_in = config.lstm_hidden + config.external_hidden
    out.append(("head_w", uniform(head_in, (head_in, 1))))
    out.append(("head_b", np.zeros((1, 1))))
    return out


@pytest.mark.parametrize("ablation", ["full", "local-only", "global-only", "no-channelwise"])
def test_init_params_draws_what_the_per_tensor_initializer_drew(ablation):
    cfg = tiny_config(ablation=ablation, lstm_layers=2, external_cardinalities=(2, 3))
    params = init_params(cfg, np.random.default_rng(4))
    want = reference_init(cfg, np.random.default_rng(4))
    assert params.layout() == [(name, value.shape) for name, value in want]
    assert params.layout() == param_layout(cfg)
    for p, (_, value) in zip(params, want):
        assert np.array_equal(p.value, value), p.name
        assert np.shares_memory(p.value, params.values)


def test_model_params_rejects_duplicate_names():
    with pytest.raises(ValidationError, match="duplicate parameter name 'w'"):
        ModelParams([Parameter("w", np.zeros((1, 1))), Parameter("w", np.ones((1, 1)))])


# ------------------------------------------------------------------- cgcn


def test_cgcn_matches_dense_algebra_oracle():
    cfg = tiny_config(window=1)
    rng = np.random.default_rng(7)
    adj = rng.uniform(0.0, 0.8, size=(3, 3))
    x = rng.uniform(-1.0, 1.0, size=(3, 2))
    params = init_params(cfg, np.random.default_rng(11))

    tape = Tape()
    got = cgcn_forward(tape, x, tape.constant(adj), params, "local", cfg).value

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

    tape = Tape()
    got = cgcn_forward(tape, x, tape.constant(adj), params, "global", cfg).value
    h = x
    for l in range(2):
        h = np.maximum(adj @ h @ params[f"gcn_global_w{l}"].value, 0.0)
    assert np.array_equal(got, h)


def test_cgcn_rejects_wrong_channel_count():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(0))
    tape = Tape()
    with pytest.raises(ShapeError, match="cgcn input"):
        cgcn_forward(tape, np.zeros((3, 5)), tape.constant(np.eye(3)), params, "local", cfg)


def test_channel_fuse_scalar_hand_case():
    tape = Tape()
    weights = [tape.constant([[2.0]]), tape.constant([[3.0]])]
    feats = tape.constant([[[5.0]], [[7.0]]])
    assert tape.weighted_sum(feats, weights).value.item() == 31.0


def test_channel_fuse_requires_matching_lengths():
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.weighted_sum(tape.constant([[[1.0]]]), [])


# ------------------------------------------------------------------- lstm


def _lstm_reference(x, h_prev, c_prev, w):
    """Separate transcription of one step, used as the oracle."""
    z = np.concatenate([h_prev, x], axis=-1)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    f = sig(z @ w["wf"] + w["bf"])
    i = sig(z @ w["wi"] + w["bi"])
    g = np.tanh(z @ w["wc"] + w["bc"])
    o = sig(z @ w["wo"] + w["bo"])
    c = f * c_prev + i * g
    return o * np.tanh(c), c


def _lstm_params(rng, layers, d_in, hidden, scale=1.0):
    params = []
    for layer in range(layers):
        z = hidden + (d_in if layer == 0 else hidden)
        for gate in "fico":
            params.append(Parameter(f"lstm{layer}_w{gate}", rng.normal(scale=scale, size=(z, hidden))))
            params.append(Parameter(f"lstm{layer}_b{gate}", rng.normal(scale=scale, size=(1, hidden))))
    return ModelParams(params)


def test_lstm_cell_matches_reference_transcription():
    # P = 3 steps of a batch of 2 windows over 4 nodes
    rng = np.random.default_rng(21)
    steps, d_in, hidden = 3, 3, 5
    params = _lstm_params(rng, 1, d_in, hidden)
    w = {name[len("lstm0_"):]: params[name].value for name in params.names()}
    x = rng.normal(size=(steps, 2, 4, d_in))

    tape = Tape()
    h = lstm_cell(tape, tape.constant(x), params, 0)
    assert h.value.shape == (steps, 2, 4, hidden)
    h_want = c_want = np.zeros((2, 4, hidden))
    for t in range(steps):
        h_want, c_want = _lstm_reference(x[t], h_want, c_want, w)
        assert np.allclose(h.value[t], h_want, rtol=0.0, atol=1e-12)


def test_lstm_cell_zero_weights_halve_the_memory():
    # every gate reads 0.5 and the candidate tanh(b_c), so the cell state
    # goes c_t = 0.5 c_{t-1} + 0.5 tanh(b_c) = (1 - 2^-(t+1)) tanh(b_c)
    steps, d_in, hidden = 4, 3, 4
    b_c = np.linspace(-2.0, 2.0, hidden).reshape(1, hidden)
    params = ModelParams(
        [Parameter(f"lstm0_w{gate}", np.zeros((hidden + d_in, hidden))) for gate in "fico"]
        + [Parameter(f"lstm0_b{gate}", b_c if gate == "c" else np.zeros((1, hidden))) for gate in "fico"]
    )
    tape = Tape()
    h = lstm_cell(tape, tape.constant(np.ones((steps, 2, d_in))), params, 0)
    for t in range(steps):
        c = (1.0 - 0.5 ** (t + 1)) * np.tanh(b_c)
        assert np.allclose(h.value[t], 0.5 * np.tanh(c), rtol=0.0, atol=1e-15)


def test_lstm_hidden_state_is_strictly_bounded():
    rng = np.random.default_rng(2)
    hidden, d_in = 6, 6
    params = _lstm_params(rng, 2, d_in, hidden, scale=5.0)
    tape = Tape()
    h = tape.constant(rng.normal(scale=10.0, size=(4, 5, d_in)))
    for layer in range(2):
        h = lstm_cell(tape, h, params, layer)
        assert np.all(np.abs(h.value) < 1.0)


def _times(tape, a, b):
    """The entrywise product a * b, as a one-entry weighted_sum."""
    return tape.weighted_sum(tape.reshape(b, (1, *b.value.shape)), [a])


def _composed_lstm(tape, sequence, params, layers):
    """The LSTM as it was built from small tape ops before it became one op
    per layer: zero initial states, then per step and per layer a gate-input
    concatenation, the four gate affines and the cell update, gate by gate
    (the composition read the four gates from one joined affine). The cell
    state's tanh is an affine through the identity."""
    acts = {"f": "sigmoid", "i": "sigmoid", "c": "tanh", "o": "sigmoid"}
    hidden = params["lstm0_bf"].value.shape[1]
    shape = sequence.value.shape[1:-1] + (hidden,)
    identity = tape.constant(np.eye(hidden))
    state = [(tape.constant(np.zeros(shape)), tape.constant(np.zeros(shape))) for _ in range(layers)]
    for step in range(sequence.value.shape[0]):
        x_in = tape.take(sequence, np.array(step))
        for layer, (h_prev, c_prev) in enumerate(state):
            z = tape.concat_cols(h_prev, x_in)
            f, i, candidate, o = (
                tape.affine(
                    z,
                    tape.param(params[f"lstm{layer}_w{gate}"]),
                    tape.param(params[f"lstm{layer}_b{gate}"]),
                    act=acts[gate],
                )
                for gate in "fico"
            )
            c = tape.add(_times(tape, f, c_prev), _times(tape, i, candidate))
            h = _times(tape, o, tape.affine(c, identity, act="tanh"))
            state[layer] = (h, c)
            x_in = h
    return state[-1][0]


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("steps, layers", [(1, 1), (3, 2), (5, 3)])
def test_lstm_cell_matches_the_composed_oracle_forward_and_backward(steps, layers):
    rng = np.random.default_rng(40 + steps)
    d_in, hidden = 4, 6
    params = _lstm_params(rng, layers, d_in, hidden)
    x = Parameter("x", rng.normal(size=(steps, 2, 3, d_in)))
    probe = rng.normal(size=(2, 3, hidden))

    def run(build):
        tape = Tape()
        top = build(tape, tape.param(x))
        tape.backward(tape.sum(_times(tape, top, tape.constant(probe))))
        return top.value, [tape.grad_for(p) for p in (x, *params)]

    def op(tape, seq):
        for layer in range(layers):
            seq = lstm_cell(tape, seq, params, layer)
        return tape.take(seq, np.array(steps - 1))

    got, got_grads = run(op)
    want, want_grads = run(lambda tape, seq: _composed_lstm(tape, seq, params, layers))
    assert _rel_err(got, want) <= 1e-12
    for name, g, w in zip(["x", *params.names()], got_grads, want_grads):
        # one step from a zero cell state leaves the forget gate no gradient
        assert np.any(w) or (steps == 1 and name.endswith("f")), name
        assert _rel_err(g, w) <= 1e-12, name


# -------------------------------------------------------------- externals


def test_external_encode_picks_the_right_embedding_row():
    cfg = tiny_config(external_cardinalities=(3,), external_continuous=1, external_hidden=5)
    table = np.arange(3 * EXTERNAL_EMBED_WIDTH, dtype=float).reshape(3, EXTERNAL_EMBED_WIDTH)
    params = ModelParams(
        [
            Parameter("ext_embed0", table),
            Parameter("ext_dense_w", np.eye(EXTERNAL_EMBED_WIDTH + 1, 5)),
            Parameter("ext_dense_b", np.zeros((1, 5))),
        ]
    )
    want = np.maximum(np.concatenate([table[2], [0.25]]) @ np.eye(5, 5), 0.0)[None, :]
    out = external_encode(Tape(), np.array([[2.0, 0.25]]), params, cfg).value
    assert np.allclose(out, want, rtol=0.0, atol=1e-15)


def test_external_encode_gather_equals_the_one_hot_product_bitwise():
    cfg = tiny_config(external_cardinalities=(3, 4), external_continuous=1)
    params = init_params(cfg, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    rows = np.column_stack([rng.integers(3, size=9), rng.integers(4, size=9), rng.uniform(size=9)])
    g = rng.normal(size=(9, cfg.external_hidden))

    tape = Tape()
    out = external_encode(tape, rows, params, cfg)
    tape.backward(tape.sum(_times(tape, out, tape.constant(g))))

    tables = [params[f"ext_embed{k}"].value for k in range(2)]
    hot = [np.eye(card)[rows[:, k].astype(int)] for k, card in enumerate((3, 4))]
    merged = np.concatenate([hot[0] @ tables[0], hot[1] @ tables[1], rows[:, 2:]], axis=1)
    pre = merged @ params["ext_dense_w"].value + params["ext_dense_b"].value
    assert np.array_equal(out.value, np.maximum(pre, 0.0))
    upstream = (g * (pre > 0.0)) @ params["ext_dense_w"].value.T
    w = EXTERNAL_EMBED_WIDTH
    for k in range(2):
        grad = hot[k].T @ upstream[:, k * w : (k + 1) * w]
        assert np.array_equal(tape.grad_for(params[f"ext_embed{k}"]), grad)


def test_external_encode_refuses_the_one_hot_layout():
    # a block of 2 for the categorical field, then the continuous value
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(0))
    with pytest.raises(ShapeError, match="external vector"):
        external_encode(Tape(), np.array([[0.0, 1.0, 0.3]]), params, cfg)


@pytest.mark.parametrize("code", [1.7, 0.5, np.nan, np.inf])
def test_external_encode_refuses_a_code_that_is_not_an_integer(code):
    # a fractional code must not embed like its integer part, nor a NaN
    # one reach the gather without naming its field
    cfg = tiny_config(external_cardinalities=(3, 4))
    params = init_params(cfg, np.random.default_rng(0))
    rows = np.array([[1.0, 2.0, 0.5], [2.0, code, 0.5]])
    with pytest.raises(ValidationError, match=rf"field 1 holds {code!r}, not an integer"):
        external_encode(Tape(), rows, params, cfg)


def test_external_encode_rejects_a_code_outside_the_table():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(0))
    for code in (2.0, -1.0):
        with pytest.raises(ValidationError, match=rf"field 0 holds {code!r}, .* in \[0, 2\)"):
            external_encode(Tape(), np.array([[code, 0.3]]), params, cfg)


def test_external_encode_rejects_wrong_length():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(0))
    for raw in (np.zeros((1, cfg.external_dim + 2)), np.zeros(cfg.external_dim)):
        with pytest.raises(ShapeError, match="external vector"):
            external_encode(Tape(), raw, params, cfg)


# ------------------------------------------------------------- full model


def test_multiview_fuse_adds_views():
    tape = Tape()
    a = tape.constant([[1.0, 2.0]])
    b = tape.constant([[10.0, 20.0]])
    assert np.array_equal(multiview_fuse(tape, [a, b]).value, [[11.0, 22.0]])
    assert multiview_fuse(tape, [b]) is b


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
    flat = ModelParams(
        [Parameter(p.name, p.value.copy()) for p in full if not p.name.startswith("fuse_")]
    )
    window, external, local_norm = random_inputs(cfg_full, seed=6)
    a = model_forward(Tape(), full, window, external, local_norm, cfg_full).value
    b = model_forward(Tape(), flat, window, external, local_norm, cfg_flat).value
    assert np.allclose(a, b, rtol=0.0, atol=1e-12)


def test_forward_rejects_wrong_window_shape():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(0))
    _, external, local_norm = random_inputs(cfg)
    # a window of another length, and a stack of windows without an index
    for window in (np.zeros((5, 3, 2)), np.zeros((cfg.window, cfg.window, 3, 2))):
        with pytest.raises(ShapeError, match="model input window"):
            model_forward(Tape(), params, window, external, local_norm, cfg)


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


def as_slots(windows):
    """B windows of P slots as a block of B * P slots and its B x P index."""
    n_batch, steps = windows.shape[:2]
    return windows.reshape(-1, *windows.shape[2:]), np.arange(n_batch * steps).reshape(n_batch, steps)


@pytest.mark.parametrize(
    "overrides",
    [{}, {"lstm_layers": 2, "ablation": "no-channelwise"}],
    ids=["criterion-4", "two-layer-no-channelwise"],
)
def test_batch_agrees_with_batches_of_one(overrides):
    cfg = ModelConfig(**{**CRITERION_4, **overrides})
    params = init_params(cfg, np.random.default_rng(31))
    windows, externals, local_norm, targets = random_batch(cfg, 5, seed=50)

    slots, index = as_slots(windows)
    tape = Tape()
    out = model_forward(tape, params, slots, externals, local_norm, cfg, index)
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
    slots, index = as_slots(windows)
    with pytest.raises(ShapeError, match="covariates"):
        model_forward(Tape(), params, slots, externals[:2], local_norm, cfg, index)


# Tape methods that record no node, the node op names that differ from
# their method's name, and the ops no training tape records: ``sum`` is the
# tests' scalar probe and ``mse_loss`` scores one window for perfbench and
# the demos
_NOT_OPS = {"backward", "grad_for", "accumulate_param_grads"}
_OP_NAMES = {"constant": "const", "affine": "affine_matmul"}
_UNUSED_BY_TRAINING = {"sum", "mse_loss"}


def test_every_tape_op_is_recorded_by_some_training_tape():
    recorded = set()
    for ablation in ABLATIONS:
        cfg = tiny_config(ablation=ablation)
        params = init_params(cfg, np.random.default_rng(36))
        windows, externals, local_norm, targets = random_batch(cfg, 3, seed=90)
        slots, index = as_slots(windows)
        tape = Tape()
        out = model_forward(tape, params, slots, externals, local_norm, cfg, index)
        tape.backward(tape.mean(tape.mse_per_sample(out, tape.constant(targets))))
        recorded.update(node.op for node in tape.nodes)
    ops = {
        _OP_NAMES.get(name, name)
        for name, member in vars(Tape).items()
        if callable(member) and not name.startswith("_") and name not in _NOT_OPS
    }
    assert not _UNUSED_BY_TRAINING & recorded, "an allowlisted op is recorded after all"
    assert ops - _UNUSED_BY_TRAINING - recorded == set()


def _retained_bytes(tape, params):
    """Bytes of the distinct buffers a tape keeps alive, the parameter vector
    excluded: its nodes' values and the arrays its vjp closures hold."""
    arrays = [node.value for node in tape.nodes]
    for node in tape.nodes:
        for cell in getattr(node._vjp, "__closure__", None) or ():
            held = cell.cell_contents
            items = held if isinstance(held, (list, tuple)) else [held]
            arrays.extend(a for a in items if isinstance(a, np.ndarray))

    def buffer(array):
        while isinstance(array.base, np.ndarray):
            array = array.base
        return array

    owners = {id(b): b for b in map(buffer, arrays)}
    owners.pop(id(buffer(params.values)), None)
    return sum(a.nbytes for a in owners.values())


def test_training_tape_retains_less_per_sample_than_a_per_sample_tape():
    # a criterion-4 sample on its own tape retained 312,856 value bytes
    cfg = ModelConfig(**CRITERION_4)
    params = init_params(cfg, np.random.default_rng(32))
    windows, externals, local_norm, targets = random_batch(cfg, 32, seed=60)
    slots, index = as_slots(windows)
    tape = Tape()
    out = model_forward(tape, params, slots, externals, local_norm, cfg, index)
    tape.mean(tape.mse_per_sample(out, tape.constant(targets)))
    assert _retained_bytes(tape, params) / 32 < 312_856
    # 116,743.25 bytes per window when the LSTM kept its gates row-major
    assert _retained_bytes(tape, params) <= 3_735_784


def _lstm_sequence(cfg, steps, rows):
    params = init_params(cfg, np.random.default_rng(37))
    x = np.random.default_rng(38).normal(size=(steps, rows, cfg.feature_dim))
    return params, x


def test_an_lstm_layer_keeps_exactly_its_gates_and_states():
    cfg = ModelConfig(**CRITERION_4)
    steps, rows, hidden = 3, 320, cfg.lstm_hidden
    params, x = _lstm_sequence(cfg, steps, rows)
    tape = Tape()
    lstm_cell(tape, tape.constant(x), params, 0)
    # 4 gates, h and c for every step, beside the input
    assert _retained_bytes(tape, params) == x.nbytes + steps * rows * 6 * hidden * 8


def test_a_forward_only_lstm_layer_holds_one_step_of_gates():
    import tracemalloc

    cfg = ModelConfig(**CRITERION_4)
    steps, rows, hidden = 3, 320, cfg.lstm_hidden
    params, x = _lstm_sequence(cfg, steps, rows)
    tape = Tape(record=False)
    sequence = tape.constant(x)
    tracemalloc.start()
    try:
        lstm_cell(tape, sequence, params, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = rows * hidden * 8
    # h for every step, one step's c and 4 gates and one rows x H buffer;
    # then NumPy's iterator buffer for the broadcast bias add, and a little
    # for the Python objects
    assert peak < (steps + 6) * block + np.getbufsize() * 8 + 16384


@pytest.mark.parametrize("window, n_batch", [(3, 8), (2, 1), (5, 32)])
def test_each_lstm_layer_is_one_node_on_a_batch_tape(window, n_batch):
    counts = {}
    for layers in (1, 2, 3):
        cfg = ModelConfig(**{**CRITERION_4, "window": window, "lstm_layers": layers})
        params = init_params(cfg, np.random.default_rng(35))
        slots = np.random.default_rng(72).uniform(size=(n_batch + window - 1, cfg.n_nodes, cfg.n_channels))
        _, externals, local_norm, _ = random_batch(cfg, n_batch, seed=82)
        index = np.arange(n_batch)[:, None] + np.arange(window)
        tape = Tape()
        model_forward(tape, params, slots, externals, local_norm, cfg, index)
        counts[layers] = len(tape.nodes)
        assert [n.op for n in tape.nodes].count("lstm_layer") == layers

        # the layer op plus its 8 parameter leaves, whatever P and B are
        alone = Tape()
        sequence = alone.constant(np.zeros((window, n_batch, cfg.n_nodes, cfg.feature_dim)))
        lstm_cell(alone, sequence, params, 0)
        assert len(alone.nodes) == 1 + 9
    # the forward pass made 99 nodes when each step was composed of small ops
    assert counts[1] <= 61
    assert counts[2] - counts[1] == counts[3] - counts[2] == 9
