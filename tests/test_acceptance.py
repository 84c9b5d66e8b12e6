"""Acceptance gate: one test per numbered criterion, pinned tolerances.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
pytest -s or in captured output). Tolerances and runtime budgets are stated
inline next to each assertion.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from stgf.autodiff import Parameter, Tape
from stgf.checkpoint import load_checkpoint, save_checkpoint
from stgf.cli import main
from stgf.data import (
    SignalDataset,
    load_dataset,
    minmax_apply,
    minmax_fit,
    minmax_invert,
    prepare_samples,
    save_dataset,
)
from stgf.gradcheck import grad_check
from stgf.graphs import (
    GraphSpec,
    adaptive_adjacency_values,
    build_local_adjacency,
    normalize_adjacency,
)
from stgf.model import (
    ABLATIONS,
    ModelConfig,
    ModelParams,
    init_params,
    model_forward,
)
from stgf.synth import _topology_edges, build_synthetic, generate_synthetic
from stgf.training import TrainConfig, evaluate, ha_baseline, train


@contextmanager
def report(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {label}", flush=True)
        raise
    print(f"criterion {number}: PASS  {label}", flush=True)


def valid_external(rng: np.random.Generator) -> np.ndarray:
    day_type = float(rng.integers(3))
    weather = float(rng.integers(4))
    return np.array([day_type, weather, float(rng.uniform())])


def random_graph_norm(n_nodes: int, rng: np.random.Generator, topology: str = "random"):
    edges = _topology_edges(topology, n_nodes, rng)
    spec = GraphSpec(n_nodes=n_nodes, edges=tuple(edges))
    return normalize_adjacency(build_local_adjacency(spec))


def test_criterion_1_gradient_soundness():
    with report(1, "full-model gradients match central finite differences"):
        rng = np.random.default_rng(20240611)
        config = ModelConfig(
            n_nodes=4,
            n_channels=2,
            window=2,
            gcn_dims=(3, 4),
            lstm_layers=1,
            lstm_hidden=5,
            embed_dim=3,
        )
        params = init_params(config, rng)
        local_norm = random_graph_norm(4, rng)
        window = rng.uniform(0.0, 1.0, size=(2, 4, 2))
        external = valid_external(rng)
        target = rng.uniform(0.0, 1.0, size=(4, 1))

        def build(tape: Tape):
            out = model_forward(tape, params, window, external, local_norm, config)
            return tape.mse_loss(out, tape.constant(target))

        started = time.monotonic()
        err = grad_check(build, list(params), step=1e-6)
        elapsed = time.monotonic() - started
        assert err < 1e-4, f"max relative error {err:.3e} >= 1e-4"
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s >= 60s"


def test_criterion_2_algebraic_oracles():
    with report(2, "hand-derived adjacency, row-sum and fusion values"):
        two = normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.max(np.abs(two - 0.5)) < 1e-12

        path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        s6 = 1.0 / np.sqrt(6.0)
        want = np.array(
            [[0.5, s6, 0.0], [s6, 1.0 / 3.0, s6], [0.0, s6, 0.5]]
        )
        assert np.max(np.abs(normalize_adjacency(path) - want)) < 1e-12

        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 6))
            embedding = rng.normal(scale=2.0, size=(n, d))
            rows = adaptive_adjacency_values(embedding).sum(axis=1)
            assert np.max(np.abs(rows - 1.0)) <= 1e-12

        tape = Tape()
        fused = tape.weighted_sum(
            tape.constant([[[5.0]], [[7.0]]]),
            [tape.constant([[2.0]]), tape.constant([[3.0]])],
        )
        assert fused.value[0, 0] == 31.0
        single = tape.weighted_sum(tape.constant([[[5.0]]]), [tape.constant([[2.0]])])
        assert single.value[0, 0] == 10.0


@pytest.mark.parametrize("n_nodes", [307, 170])
def test_criterion_3_shape_conformance(n_nodes):
    with report(3, f"{n_nodes}-node geometry yields a 1 x {n_nodes} x 1 forecast"):
        rng = np.random.default_rng(n_nodes)
        config = ModelConfig(n_nodes=n_nodes)  # full-size defaults elsewhere
        params = init_params(config, rng)
        local_norm = random_graph_norm(n_nodes, rng, topology="ring")
        window = rng.uniform(0.0, 1.0, size=(3, n_nodes, 3))
        external = valid_external(rng)

        started = time.monotonic()
        out = model_forward(Tape(), params, window, external, local_norm, config)
        elapsed = time.monotonic() - started
        assert out.value.shape == (n_nodes, 1)
        assert out.value.reshape(1, n_nodes, 1).shape == (1, n_nodes, 1)
        assert elapsed < 10.0, f"forward took {elapsed:.1f}s >= 10s"


def test_criterion_4_end_to_end_learning(tmp_path):
    with report(4, "training halves+ the loss and beats the seasonal baseline"):
        started = time.monotonic()
        generate_synthetic(tmp_path / "bench", seed=7, n_nodes=10, n_slots=2016,
                           topology="ring")
        dataset = load_dataset(tmp_path / "bench")
        # reduced widths keep the 50-epoch budget; epochs stay at 50
        model_config = ModelConfig(
            n_nodes=10,
            n_channels=3,
            window=3,
            gcn_dims=(8, 16),
            lstm_layers=1,
            lstm_hidden=32,
            embed_dim=4,
            external_hidden=8,
        )
        train_config = TrainConfig(epochs=50, batch_size=32, learning_rate=1e-3, seed=1)
        result = train(dataset, model_config, train_config)

        first = result.curve[0].train_mse
        last = result.curve[-1].train_mse
        assert last <= 0.10 * first, f"epoch-50 mse {last:.6f} > 10% of epoch-1 {first:.6f}"

        metrics, _ = evaluate(
            result.params, model_config, result.stats, dataset, result.prepared.test
        )
        ha = ha_baseline(result.prepared.train, result.prepared.test,
                         dataset.interval_minutes)
        assert metrics.rmse < ha.rmse, f"model rmse {metrics.rmse:.3f} >= ha {ha.rmse:.3f}"

        elapsed = time.monotonic() - started
        assert elapsed < 600.0, f"end-to-end run took {elapsed:.1f}s >= 600s"
        print(f"  epoch1 {first:.4f} -> epoch50 {last:.4f}; "
              f"model rmse {metrics.rmse:.2f} vs ha {ha.rmse:.2f}; {elapsed:.0f}s")


def test_criterion_5_ablation_harness():
    with report(5, "all four variants train; variant identities hold"):
        dataset = build_synthetic(seed=11, n_nodes=6, n_slots=288)
        table = {}
        local_result = None
        for ablation in ABLATIONS:
            config = ModelConfig(
                n_nodes=6,
                n_channels=3,
                window=2,
                gcn_dims=(4, 8),
                lstm_layers=1,
                lstm_hidden=16,
                embed_dim=3,
                external_hidden=4,
                ablation=ablation,
            )
            result = train(dataset, config,
                           TrainConfig(epochs=2, batch_size=16, seed=3))
            metrics, rows = evaluate(
                result.params, config, result.stats, dataset, result.prepared.test
            )
            table[ablation] = metrics
            if ablation == "local-only":
                local_result = (config, result, rows.y_pred.tolist())

        print(f"  {'variant':<16s}{'rmse':>10s}{'mae':>10s}")
        for ablation, metrics in table.items():
            print(f"  {ablation:<16s}{metrics.rmse:>10.3f}{metrics.mae:>10.3f}")
            assert np.isfinite(metrics.rmse) and np.isfinite(metrics.mae)

        # local-only never reads or updates the learned embedding
        config, result, preds_before = local_result
        fresh = init_params(config, np.random.default_rng(3))
        assert np.array_equal(
            result.params["node_embedding"].value, fresh["node_embedding"].value
        ), "training moved the unused embedding"
        result.params["node_embedding"].value[:] = 123.456
        _, rows_after = evaluate(
            result.params, config, result.stats, dataset, result.prepared.test
        )
        assert preds_before == rows_after.y_pred.tolist(), \
            "local-only predictions changed with the embedding"

        # single channel with unit fusion weights collapses the two variants
        flat_ds = SignalDataset(
            signals=dataset.signals[:, :, 0:1],
            graph=dataset.graph,
            interval_minutes=dataset.interval_minutes,
            channel_names=("flow",),
            node_ids=dataset.node_ids,
            external_fields=dataset.external_fields,
            externals=dataset.externals,
        )
        cfg_full = ModelConfig(
            n_nodes=6, n_channels=1, window=2, gcn_dims=(4, 8), lstm_layers=1,
            lstm_hidden=16, embed_dim=3, external_hidden=4, ablation="full",
        )
        cfg_flat = ModelConfig(
            n_nodes=6, n_channels=1, window=2, gcn_dims=(4, 8), lstm_layers=1,
            lstm_hidden=16, embed_dim=3, external_hidden=4, ablation="no-channelwise",
        )
        full_params = init_params(cfg_full, np.random.default_rng(21))
        for view in ("local", "global"):
            full_params[f"fuse_{view}_w0"].value[:] = 1.0
        flat_params = ModelParams(
            [Parameter(p.name, p.value.copy()) for p in full_params
             if not p.name.startswith("fuse_")]
        )
        prepared = prepare_samples(flat_ds, window=2)
        local_norm = normalize_adjacency(build_local_adjacency(flat_ds.graph))
        for sample in prepared.test[:5]:
            a = model_forward(Tape(), full_params, sample.x, sample.external,
                              local_norm, cfg_full).value
            b = model_forward(Tape(), flat_params, sample.x, sample.external,
                              local_norm, cfg_flat).value
            assert np.allclose(a, b, rtol=0.0, atol=1e-12)


def test_criterion_6_pipeline_integrity(tmp_path):
    with report(6, "no leakage, exact round trips, tiny checkpoint drift"):
        # leakage: future edits never move stats or training samples
        rng = np.random.default_rng(5)
        base = build_synthetic(seed=13, n_nodes=3, n_slots=80)
        for trial in range(100):
            window = int(rng.integers(1, 5))
            tf = float(rng.uniform(0.3, 0.7))
            vf = float(rng.uniform(0.1, 0.2))
            ds = SignalDataset(
                signals=base.signals.copy(),
                graph=base.graph,
                interval_minutes=base.interval_minutes,
                channel_names=base.channel_names,
                node_ids=base.node_ids,
                external_fields=base.external_fields,
                externals=base.externals,
            )
            before = prepare_samples(ds, window, tf, vf)
            boundary = window + len(before.train)
            ds.signals[boundary:] *= float(rng.uniform(2.0, 5.0))
            after = prepare_samples(ds, window, tf, vf)
            assert np.array_equal(before.stats.minimum, after.stats.minimum)
            assert np.array_equal(before.stats.maximum, after.stats.maximum)
            for a, b in zip(before.train, after.train):
                assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

        # normalization round trip at 1e-12 on the training range
        stats = minmax_fit(base.signals)
        back = minmax_invert(minmax_apply(base.signals, stats), stats)
        assert np.max(np.abs(back - base.signals)) < 1e-12

        # dataset container round trip is byte-exact
        save_dataset(base, tmp_path / "a")
        save_dataset(load_dataset(tmp_path / "a"), tmp_path / "b")
        for name in ("meta.json", "signals.bin", "edges.csv", "externals.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

        # checkpoint round trip moves raw-scale metrics by < 1e-3
        config = ModelConfig(
            n_nodes=3, n_channels=3, window=2, gcn_dims=(4,), lstm_layers=1,
            lstm_hidden=8, embed_dim=2, external_hidden=4,
        )
        params = init_params(config, np.random.default_rng(1))
        prepared = prepare_samples(base, window=2)
        direct, _ = evaluate(params, config, prepared.stats, base, prepared.test)
        save_checkpoint(params, config, TrainConfig().to_dict(), prepared.stats,
                        tmp_path / "ck")
        loaded = load_checkpoint(tmp_path / "ck")
        revived, _ = evaluate(loaded.params, loaded.model_config, loaded.stats,
                              base, prepared.test)
        assert abs(direct.rmse - revived.rmse) < 1e-3
        assert abs(direct.mae - revived.mae) < 1e-3


def test_criterion_7_reproducibility(tmp_path):
    with report(7, "identical seeds give identical loss curves and metrics"):
        data = tmp_path / "data"
        assert main(["synth", "--seed", "5", "--nodes", "3", "--slots", "96",
                     "--out", str(data)]) == 0
        overrides = [
            "--set", "model.gcn_dims=[4]",
            "--set", "model.lstm_layers=1",
            "--set", "model.lstm_hidden=8",
            "--set", "model.embed_dim=2",
            "--set", "model.external_hidden=4",
            "--set", "model.window=2",
            "--set", "train.epochs=3",
            "--set", "train.batch_size=16",
            "--set", "train.seed=9",
        ]
        for name in ("a", "b"):
            run = tmp_path / name
            assert main(["train", "--data", str(data), "--out", str(run),
                         *overrides]) == 0
            assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                         "--data", str(data), "--split", "test"]) == 0

        for artifact in ("loss_curve.csv", "metrics.json", "predictions.csv",
                         "config.json"):
            a = (tmp_path / "a" / artifact).read_bytes()
            b = (tmp_path / "b" / artifact).read_bytes()
            assert a == b, f"{artifact} differs between identical runs"
        curve = (tmp_path / "a" / "loss_curve.csv").read_text().splitlines()
        assert len(curve) == 1 + 3
        metrics = json.loads((tmp_path / "a" / "metrics.json").read_text())
        assert metrics["model"]["rmse"] >= metrics["model"]["mae"]
