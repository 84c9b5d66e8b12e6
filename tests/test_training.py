"""Optimizer, metrics, baseline and training-loop tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgf.autodiff import Parameter
from stgf.data import ExternalField, SignalDataset, make_windows, minmax_fit, prepare_samples
from stgf.errors import NumericalError, ValidationError
from stgf.graphs import GraphSpec
from stgf.model import ModelConfig, ModelParams, init_params
from stgf.synth import build_synthetic
import stgf.training
from stgf.training import (
    AdamState,
    Metrics,
    TrainConfig,
    adam_step,
    clip_gradients,
    compute_metrics,
    evaluate,
    _forecast,
    forecast_chunk,
    ha_baseline,
    mean_sample_mse,
    train,
)

SMALL_MODEL = dict(
    gcn_dims=(4,),
    lstm_layers=1,
    lstm_hidden=8,
    embed_dim=2,
    external_hidden=4,
    window=2,
)


def small_setup(n_slots=64, seed=0, **model_overrides):
    ds = build_synthetic(seed=seed, n_nodes=3, n_slots=n_slots)
    kwargs = dict(SMALL_MODEL)
    kwargs.update(model_overrides)
    cfg = ModelConfig(n_nodes=ds.n_nodes, n_channels=ds.n_channels, **kwargs)
    return ds, cfg


# -------------------------------------------------------------------- config


def test_train_config_round_trip():
    tc = TrainConfig(epochs=3, seed=9, learning_rate=0.01)
    assert TrainConfig.from_dict(tc.to_dict()) == tc


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValidationError):
        TrainConfig(beta1=1.0)
    TrainConfig(learning_rate=0.0)  # frozen optimizer is allowed


@pytest.mark.parametrize(
    "field, value",
    [
        ("clip_norm", math.nan),
        ("epsilon", math.inf),
        ("learning_rate", math.nan),
        ("train_frac", math.nan),
        ("learning_rate", "0.1"),
        ("epochs", 2.5),
        ("epochs", 2.0),
        ("batch_size", True),
        ("seed", 1.0),
        ("seed", -1),
    ],
)
def test_train_config_refuses_non_finite_and_non_integer_values(field, value):
    with pytest.raises(ValidationError, match=field):
        TrainConfig(**{field: value})


def test_train_config_keeps_integer_fields_as_ints():
    tc = TrainConfig(epochs=np.int64(3), batch_size=np.int32(4), seed=np.uint8(5))
    assert [type(v) for v in (tc.epochs, tc.batch_size, tc.seed)] == [int] * 3


# ----------------------------------------------------------------- optimizer


def one_param(value):
    params = ModelParams([Parameter("w", np.asarray(value, dtype=float))])
    return params, AdamState.for_params(params)


def test_adam_zero_gradient_is_a_fixed_point():
    params, state = one_param([[1.5, -2.0]])
    before = params["w"].value.copy()
    for _ in range(10):
        adam_step(params, np.zeros(2), state, TrainConfig())
    assert np.array_equal(params["w"].value, before)


def test_adam_first_step_magnitude_is_the_learning_rate():
    tc = TrainConfig(learning_rate=0.1)
    params, state = one_param([[3.0, -0.5]])
    adam_step(params, np.array([4.0, -2.0]), state, tc)
    delta = params["w"].value - np.array([[3.0, -0.5]])
    assert np.allclose(delta, [[-0.1, 0.1]], rtol=0.0, atol=1e-8)


def test_adam_converges_on_a_quadratic_bowl():
    tc = TrainConfig(learning_rate=0.1)
    params, state = one_param([1.0])
    for _ in range(200):
        grad = 2.0 * params.values
        adam_step(params, grad, state, tc)
    assert abs(params["w"].value[0]) < 1e-3


def test_adam_rejects_non_finite_gradient():
    params, state = one_param([1.0])
    with pytest.raises(NumericalError, match="'w'"):
        adam_step(params, np.array([np.nan]), state, TrainConfig())


def test_adam_is_deterministic_given_state():
    tc = TrainConfig(learning_rate=0.05)
    runs = []
    for _ in range(2):
        params, state = one_param([0.3, 0.7])
        for step in range(5):
            adam_step(params, np.array([0.1 * step, -0.2]), state, tc)
        runs.append(params["w"].value.copy())
    assert np.array_equal(runs[0], runs[1])


def test_clip_rescales_only_above_the_threshold():
    params = ModelParams([Parameter("a", np.array([3.0])), Parameter("b", np.array([4.0]))])
    grad = params.values.copy()
    norm = clip_gradients(params, grad, 2.5)
    assert norm == pytest.approx(5.0)
    assert grad[0] == pytest.approx(1.5)
    assert grad[1] == pytest.approx(2.0)

    grad = np.array([0.1, 0.1])
    norm = clip_gradients(params, grad, 2.5)
    assert norm == pytest.approx(math.sqrt(0.02))
    assert grad[0] == pytest.approx(0.1)


def test_clip_names_the_broken_parameter():
    params = ModelParams([Parameter("ok", np.array([1.0])), Parameter("bad", np.array([1.0]))])
    with pytest.raises(NumericalError, match="'bad'"):
        clip_gradients(params, np.array([1.0, np.inf]), 1.0)


@pytest.mark.parametrize(
    "grad, norm",
    [
        ([1e200, 3.0, -4.0], 1e200),
        ([1e160, 0.0, 1e160], 1e160 * math.sqrt(2.0)),
        ([1.5e308, -1.5e308, 0.0], math.inf),  # the norm itself is past the largest float
    ],
)
def test_clip_scales_a_finite_gradient_whose_squared_norm_overflows(grad, norm):
    # the sum of squares overflows; clipping by its root would zero the gradient
    params = ModelParams([Parameter("a", np.zeros(2)), Parameter("b", np.zeros(1))])
    grad = np.array(grad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert clip_gradients(params, grad, 2.5) == pytest.approx(norm, rel=1e-15)
    assert np.linalg.norm(grad) == pytest.approx(2.5, rel=1e-15)


# The per-tensor optimizer the flat-vector versions replaced, kept as the
# oracle: the flat versions must match it bitwise.


def reference_clip(grads: dict, max_norm: float) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def reference_adam(values: dict, grads: dict, m: dict, v: dict, t: int, config: TrainConfig):
    for name, value in values.items():
        g = grads[name]
        m[name] *= config.beta1
        m[name] += (1.0 - config.beta1) * g
        v[name] *= config.beta2
        v[name] += (1.0 - config.beta2) * g * g
        m_hat = m[name] / (1.0 - config.beta1**t)
        v_hat = v[name] / (1.0 - config.beta2**t)
        value -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)


MIXED_SHAPES = {"w": (5, 3), "b": (1, 3), "table": (4, 2), "head_b": (1, 1), "wide": (2, 17)}


def test_flat_optimizer_matches_the_per_tensor_reference_bitwise():
    rng = np.random.default_rng(8)
    tc = TrainConfig(learning_rate=0.01, clip_norm=1.5)
    params = ModelParams([Parameter(n, rng.normal(size=s)) for n, s in MIXED_SHAPES.items()])
    state = AdamState.for_params(params)
    values = {p.name: p.value.copy() for p in params}
    m = {n: np.zeros(s) for n, s in MIXED_SHAPES.items()}
    v = {n: np.zeros(s) for n, s in MIXED_SHAPES.items()}
    grad = np.zeros_like(params.values)
    norms = []
    for t in range(1, 8):
        # the norm grows with t past clip_norm, so early steps do not clip
        grads = {n: rng.normal(scale=0.05 * t, size=s) for n, s in MIXED_SHAPES.items()}
        for view, g in zip(params.split(grad), grads.values()):
            view[...] = g
        norms.append(clip_gradients(params, grad, tc.clip_norm))
        assert norms[-1] == reference_clip(grads, tc.clip_norm)
        adam_step(params, grad, state, tc)
        reference_adam(values, grads, m, v, t, tc)
        assert state.step == t
        for p, m_flat, v_flat in zip(params, params.split(state.m), params.split(state.v)):
            assert np.array_equal(p.value, values[p.name])
            assert np.array_equal(m_flat, m[p.name])
            assert np.array_equal(v_flat, v[p.name])
    assert min(norms) < tc.clip_norm < max(norms)


def test_parameter_values_are_views_of_the_vector():
    params = init_params(ModelConfig(n_nodes=3, **SMALL_MODEL), np.random.default_rng(0))
    offset = 0
    for p in params:
        assert np.shares_memory(p.value, params.values)
        assert np.array_equal(p.value.reshape(-1), params.values[offset : offset + p.value.size])
        offset += p.value.size
    assert offset == params.values.size == params.total_size()
    params.values[0] = 7.0
    assert params["node_embedding"].value[0, 0] == 7.0


def test_snapshot_does_not_move_when_training_continues():
    params, state = one_param([[0.5, -0.5, 2.0]])
    snapshot = params.copy()
    assert not np.shares_memory(snapshot.values, params.values)
    assert np.shares_memory(snapshot["w"].value, snapshot.values)
    adam_step(params, np.array([1.0, -1.0, 0.5]), state, TrainConfig(learning_rate=0.1))
    assert not np.array_equal(params["w"].value, snapshot["w"].value)
    assert np.array_equal(snapshot["w"].value, [[0.5, -0.5, 2.0]])


# ------------------------------------------------------------------- metrics


def test_metrics_equal_magnitude_errors():
    m = compute_metrics(np.array([0.0, 0.0]), np.array([3.0, -3.0]))
    assert m.mae == pytest.approx(3.0)
    assert m.rmse == pytest.approx(3.0)


def test_metrics_mixed_errors():
    m = compute_metrics(np.array([0.0, 0.0]), np.array([0.0, 4.0]))
    assert m.mae == pytest.approx(2.0)
    assert m.rmse == pytest.approx(math.sqrt(8.0))
    assert m.count == 2


def test_metrics_zero_for_perfect_predictions():
    y = np.arange(12.0).reshape(3, 4)
    m = compute_metrics(y, y.copy())
    assert m.rmse == 0.0 and m.mae == 0.0


def test_metrics_rmse_dominates_mae_on_random_errors():
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = rng.normal(size=(7, 3))
        p = y + rng.normal(size=(7, 3))
        m = compute_metrics(y, p)
        assert m.rmse >= m.mae >= 0.0


def test_metrics_accept_equal_magnitude_errors_that_round_rmse_below_mae():
    # sqrt(mean(e**2)) rounds one ulp below mean(|e|) for this vector
    m = compute_metrics(np.zeros(3), np.full(3, 3.4277099224034737))
    assert m.rmse == m.mae == pytest.approx(3.4277099224034737, rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    magnitude=st.floats(1e-6, 1e6),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=9),
)
def test_metrics_accept_every_equal_magnitude_error_vector(magnitude, signs):
    m = compute_metrics(np.zeros(len(signs)), magnitude * np.array(signs))
    assert m.rmse >= m.mae >= 0.0
    assert m.rmse == pytest.approx(m.mae, rel=1e-12)


def test_metrics_reject_shape_mismatch():
    with pytest.raises(ValidationError):
        compute_metrics(np.zeros(3), np.zeros(4))


def test_metrics_invariant_enforced_on_construction():
    with pytest.raises(ValidationError):
        Metrics(rmse=1.0, mae=2.0, count=5)


# ------------------------------------------------------------------ baseline


def flow_windows(flows, targets):
    """One-slot windows over a series whose slot t carries the node flows
    ``flows[t]``, picked by their target slots. The one covariate is zero;
    the historical average never reads it."""
    flows = np.asarray(flows, dtype=float)
    n_slots, n_nodes = flows.shape
    dataset = SignalDataset(
        signals=flows[:, :, None],
        graph=GraphSpec(n_nodes=n_nodes, edges=()),
        interval_minutes=1,
        channel_names=("flow",),
        node_ids=tuple(f"n{v}" for v in range(n_nodes)),
        external_fields=(ExternalField("zero", "continuous"),),
        externals=np.zeros((n_slots, 1)),
    )
    windows = make_windows(dataset, minmax_fit(dataset.signals), 1)
    # window k targets slot k + 1
    return windows[np.asarray(targets, dtype=np.int64) - 1]


def test_ha_is_exact_on_a_constant_series():
    flows = np.tile([5.0, 9.0], (50, 1))
    train_s, eval_s = flow_windows(flows, range(3, 40)), flow_windows(flows, range(40, 50))
    m = ha_baseline(train_s, eval_s, interval_minutes=60)
    assert m.rmse == 0.0 and m.mae == 0.0


def test_ha_recovers_a_daily_period():
    # 10-minute slots, 144 per day; value depends only on clock time
    period = 144
    slots = np.arange(3 + 3 * period)
    flows = (100.0 + 50.0 * np.sin(2 * np.pi * (slots % period) / period))[:, None]
    train_s = flow_windows(flows, range(3, 3 + 2 * period))
    eval_s = flow_windows(flows, range(3 + 2 * period, 3 + 3 * period))
    m = ha_baseline(train_s, eval_s, interval_minutes=10)
    assert m.rmse < 1e-9


def test_ha_falls_back_to_the_node_mean():
    # slot 3 is clock 180, never trained
    train_s = flow_windows([[0.0], [10.0], [30.0], [0.0]], [1, 2])
    eval_s = flow_windows([[0.0], [0.0], [0.0], [20.0]], [3])
    m = ha_baseline(train_s, eval_s, interval_minutes=60)
    assert m.mae == pytest.approx(0.0)
    eval_off = flow_windows([[0.0], [0.0], [0.0], [26.0]], [3])
    m = ha_baseline(train_s, eval_off, interval_minutes=60)
    assert m.mae == pytest.approx(6.0)


def _ha_by_loop(train_samples, eval_samples, interval_minutes):
    """Reference: a running total per clock time, one sample at a time."""
    sums, counts = {}, {}
    for s in train_samples:
        key = (s.target_slot * interval_minutes) % 1440
        sums[key] = sums.get(key, 0.0) + s.y
        counts[key] = counts.get(key, 0) + 1
    node_mean = np.mean([s.y for s in train_samples], axis=0)
    preds = []
    for s in eval_samples:
        key = (s.target_slot * interval_minutes) % 1440
        preds.append(sums[key] / counts[key] if key in sums else node_mean)
    return compute_metrics(np.stack([s.y for s in eval_samples]), np.stack(preds))


def test_ha_matches_the_per_sample_loop_bitwise():
    flows = np.random.default_rng(4).uniform(0.0, 500.0, size=(1200, 4))
    train_s, eval_s = flow_windows(flows, range(7, 700)), flow_windows(flows, range(650, 1200, 3))
    # 5 and 60 minutes sum several samples per clock time; at 7 minutes most
    # evaluation clock times were never trained and fall back to the node mean
    for interval in (5, 7, 60):
        assert ha_baseline(train_s, eval_s, interval) == _ha_by_loop(train_s, eval_s, interval)


def test_ha_rejects_empty_training_split():
    with pytest.raises(ValidationError):
        ha_baseline(flow_windows([[1.0], [1.0]], []), flow_windows([[1.0], [1.0]], [1]), 5)


# ------------------------------------------------------------- training loop


def test_train_records_one_entry_per_epoch():
    ds, cfg = small_setup()
    tc = TrainConfig(epochs=2, batch_size=16, seed=1)
    result = train(ds, cfg, tc)
    assert [r.epoch for r in result.curve] == [1, 2]
    assert all(math.isfinite(r.train_mse) and math.isfinite(r.val_mse) for r in result.curve)
    assert 1 <= result.best_epoch <= 2
    assert result.best_val_mse == min(r.val_mse for r in result.curve)


def test_train_is_reproducible():
    ds, cfg = small_setup()
    tc = TrainConfig(epochs=2, batch_size=16, seed=7)
    a = train(ds, cfg, tc)
    b = train(ds, cfg, tc)
    assert [(r.train_mse, r.val_mse) for r in a.curve] == [
        (r.train_mse, r.val_mse) for r in b.curve
    ]
    for pa, pb in zip(a.params, b.params):
        assert pa.name == pb.name
        assert np.array_equal(pa.value, pb.value)


def test_batched_training_is_bitwise_reproducible():
    # full batches and a short last batch, two LSTM layers
    ds, cfg = small_setup(n_slots=96, lstm_layers=2)
    tc = TrainConfig(epochs=2, batch_size=12, seed=11)
    a = train(ds, cfg, tc)
    b = train(ds, cfg, tc)
    assert len(a.prepared.train) % 12 != 0
    assert [(r.train_mse, r.val_mse) for r in a.curve] == [
        (r.train_mse, r.val_mse) for r in b.curve
    ]
    for pa, pb in zip(a.params, b.params):
        assert pa.value.tobytes() == pb.value.tobytes(), pa.name


def test_zero_learning_rate_freezes_the_curve():
    ds, cfg = small_setup()
    tc = TrainConfig(epochs=3, batch_size=16, seed=3, learning_rate=0.0)
    result = train(ds, cfg, tc)
    first = result.curve[0]
    for record in result.curve[1:]:
        assert record.train_mse == first.train_mse
        assert record.val_mse == first.val_mse


def test_train_aborts_on_exploding_values():
    ds, cfg = small_setup()
    tc = TrainConfig(epochs=3, batch_size=16, seed=0, learning_rate=1e154, clip_norm=1e300)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="epoch"):
        train(ds, cfg, tc)


def test_a_non_finite_validation_mse_raises_naming_the_epoch():
    # one batch per epoch: its loss is finite, and its step blows up the
    # parameters that validation then runs
    ds, cfg = small_setup()
    tc = TrainConfig(epochs=2, batch_size=100_000, seed=0, learning_rate=1e300)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericalError, match="non-finite validation MSE at epoch 1"
    ):
        train(ds, cfg, tc)


def test_train_rejects_mismatched_geometry():
    ds, cfg = small_setup()
    wrong = ModelConfig(n_nodes=ds.n_nodes + 1, n_channels=ds.n_channels, **SMALL_MODEL)
    with pytest.raises(ValidationError, match="nodes"):
        train(ds, wrong, TrainConfig(epochs=1))


def test_train_writes_best_checkpoint(tmp_path):
    from stgf.checkpoint import load_checkpoint

    ds, cfg = small_setup()
    tc = TrainConfig(epochs=2, batch_size=16, seed=5, checkpoint_dir=str(tmp_path / "ck"))
    result = train(ds, cfg, tc)
    loaded = load_checkpoint(tmp_path / "ck")
    assert loaded.model_config == cfg
    assert loaded.train_config["seed"] == 5
    for p, q in zip(result.params, loaded.params):
        assert p.name == q.name
        assert np.allclose(p.value, q.value, rtol=1e-6, atol=1e-6)


# ---------------------------------------------------------------- evaluation


def test_evaluate_rows_cover_every_sample_and_node():
    ds, cfg = small_setup()
    params = init_params(cfg, np.random.default_rng(0))
    prepared = prepare_samples(ds, cfg.window, 0.7, 0.1)
    metrics, table = evaluate(params, cfg, prepared.stats, ds, prepared.test)
    assert len(table) == len(prepared.test) * ds.n_nodes
    assert metrics.count == len(table)
    assert table.timestamp_minutes[0] == prepared.test[0].target_slot * ds.interval_minutes
    assert set(table.node_id) == set(ds.node_ids)
    err = table.y_pred - table.y_true
    assert metrics.mae == pytest.approx(np.mean(np.abs(err)))
    assert metrics.rmse == pytest.approx(np.sqrt(np.mean(err**2)))


def test_evaluate_rejects_wrong_model_geometry():
    ds, cfg = small_setup()
    prepared = prepare_samples(ds, cfg.window, 0.7, 0.1)
    wrong = ModelConfig(n_nodes=ds.n_nodes + 2, n_channels=ds.n_channels, **SMALL_MODEL)
    params = init_params(wrong, np.random.default_rng(0))
    with pytest.raises(ValidationError, match="nodes"):
        evaluate(params, wrong, prepared.stats, ds, prepared.test)


def test_evaluate_table_matches_per_window_forecasts():
    from stgf.autodiff import Tape
    from stgf.data import minmax_invert
    from stgf.graphs import build_local_adjacency, normalize_adjacency
    from stgf.model import model_forward

    ds, cfg = small_setup()
    params = init_params(cfg, np.random.default_rng(3))
    prepared = prepare_samples(ds, cfg.window, 0.7, 0.1)
    metrics, table = evaluate(params, cfg, prepared.stats, ds, prepared.test)

    local_norm = normalize_adjacency(build_local_adjacency(ds.graph))
    columns = (table.timestamp_minutes, table.node_id, table.y_true, table.y_pred)
    assert [len(c) for c in columns] == [len(table)] * 4 == [len(prepared.test) * ds.n_nodes] * 4
    for k, sample in enumerate(prepared.test):
        out = model_forward(Tape(), params, sample.x, sample.external, local_norm, cfg).value
        y_pred = minmax_invert(out, prepared.stats, channel=0)
        for v, node in enumerate(ds.node_ids):
            r = k * ds.n_nodes + v
            assert table.timestamp_minutes[r] == sample.target_slot * ds.interval_minutes
            assert table.node_id[r] == node
            assert table.y_true[r] == sample.y[v, 0]
            assert table.y_pred[r] == pytest.approx(float(y_pred[v, 0]), rel=1e-12)


def test_ha_reads_a_window_set_as_its_samples():
    ds, cfg = small_setup()
    prepared = prepare_samples(ds, cfg.window, 0.7, 0.1)
    got = ha_baseline(prepared.train, prepared.test, ds.interval_minutes)
    assert got == _ha_by_loop(prepared.train, prepared.test, ds.interval_minutes)


def test_mean_sample_mse_matches_manual_average():
    ds, cfg = small_setup()
    params = init_params(cfg, np.random.default_rng(2))
    prepared = prepare_samples(ds, cfg.window, 0.7, 0.1)
    from stgf.graphs import build_local_adjacency, normalize_adjacency
    from stgf.model import model_forward
    from stgf.autodiff import Tape

    local_norm = normalize_adjacency(build_local_adjacency(ds.graph))
    subset = prepared.val[:4]
    got = mean_sample_mse(params, cfg, subset, ds)
    want = 0.0
    for s in subset:
        tape = Tape()
        out = model_forward(tape, params, s.x, s.external, local_norm, cfg)
        want += float(np.mean((out.value - s.y_norm) ** 2))
    assert got == pytest.approx(want / len(subset), rel=1e-12)


def test_mean_sample_mse_equals_the_running_total_bitwise(monkeypatch):
    ds, cfg = small_setup(seed=5)
    params = init_params(cfg, np.random.default_rng(6))
    windows = prepare_samples(ds, cfg.window, 0.7, 0.1).train
    # a budget small enough that the windows run as several chunks, the last partial
    monkeypatch.setattr(stgf.training, "FORECAST_BYTES", 10 * 2**10)
    chunk = forecast_chunk(cfg)
    assert len(windows) > chunk and len(windows) % chunk
    # the oracle: a running total over the windows, one window at a time
    total = 0.0
    for d in _forecast(params, cfg, ds, windows) - windows.y_norm:
        total += (np.sum(d * d) / d.shape[0]).item()
    assert mean_sample_mse(params, cfg, windows, ds) == total / len(windows)


# ------------------------------------------------------------ forecast chunks

CRITERION_4_MODEL = dict(gcn_dims=(8, 16), lstm_layers=1, lstm_hidden=32, embed_dim=4)


def test_forecast_chunks_hold_32_paper_windows_and_a_whole_criterion_4_split(monkeypatch):
    assert forecast_chunk(ModelConfig(n_nodes=170)) == 32
    ds = build_synthetic(seed=7, n_nodes=10, n_slots=2016)
    cfg = ModelConfig(n_nodes=10, n_channels=ds.n_channels, window=3, **CRITERION_4_MODEL)
    test = prepare_samples(ds, cfg.window, 0.7, 0.1).test
    assert len(test) == 403
    calls = []

    def counted(tape, params, slots, external, *rest):
        calls.append(len(external))
        return model_forward(tape, params, slots, external, *rest)

    model_forward = stgf.training.model_forward
    monkeypatch.setattr(stgf.training, "model_forward", counted)
    _forecast(init_params(cfg, np.random.default_rng(0)), cfg, ds, test)
    assert calls == [403]


def test_forecast_chunks_from_a_smaller_budget_agree_with_one_chunk(monkeypatch):
    ds, cfg = small_setup(seed=4)
    params = init_params(cfg, np.random.default_rng(8))
    windows = prepare_samples(ds, cfg.window, 0.7, 0.1).train
    assert forecast_chunk(cfg) >= len(windows)
    whole = _forecast(params, cfg, ds, windows)
    for budget in (1, 5 * 2**10, 20 * 2**10):
        monkeypatch.setattr(stgf.training, "FORECAST_BYTES", budget)
        assert 1 <= forecast_chunk(cfg) < len(windows)
        chunked = _forecast(params, cfg, ds, windows)
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=0)
