"""End-to-end: train a small forecaster on synthetic data and compare it
against the time-of-day average baseline."""

import time

from stgf.model import ModelConfig
from stgf.synth import build_synthetic
from stgf.training import TrainConfig, evaluate, ha_baseline, train


def main():
    # a simulated week: the weekend dips are what the plain time-of-day
    # average gets wrong, so this is where the model earns its keep
    dataset = build_synthetic(seed=4, n_nodes=5, n_slots=2016, topology="grid")

    model_config = ModelConfig(
        n_nodes=5,
        n_channels=3,
        window=3,
        gcn_dims=(8, 16),
        lstm_layers=1,
        lstm_hidden=24,
        embed_dim=4,
        external_hidden=8,
    )
    train_config = TrainConfig(epochs=10, batch_size=32, learning_rate=1e-3, seed=0)

    started = time.monotonic()
    result = train(dataset, model_config, train_config,
                   log=lambda msg: print(f"  {msg}"))
    print(f"trained in {time.monotonic() - started:.1f}s, "
          f"best epoch {result.best_epoch}")

    metrics, rows = evaluate(result.params, model_config, result.stats,
                             dataset, result.prepared.test)
    ha = ha_baseline(result.prepared.train, result.prepared.test,
                     dataset.interval_minutes)
    print(f"\ntest rmse: model {metrics.rmse:8.3f}   baseline {ha.rmse:8.3f}")
    print(f"test mae:  model {metrics.mae:8.3f}   baseline {ha.mae:8.3f}")

    print("\na few predictions (raw scale):")
    for t, node, y_true, y_pred in zip(rows.timestamp_minutes[:5].tolist(), rows.node_id,
                                       rows.y_true[:5].tolist(), rows.y_pred[:5].tolist()):
        print(f"  t={t:>6d}min  node {node}: true {y_true:7.2f}  predicted {y_pred:7.2f}")


if __name__ == "__main__":
    main()
