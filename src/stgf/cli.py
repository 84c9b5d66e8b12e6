"""Command-line surface: synth, train, eval, predict, inspect.

Run configuration is a flat JSON object with dotted keys (``data.path``,
``model.gcn_dims``, ``train.epochs`` and so on). Precedence, lowest to
highest: built-in defaults, the --config file, dedicated flags such as
--ablation, then repeated --set key=value overrides. The effective merged
config is echoed into the run directory so a run can be reproduced from
its own artifacts.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

from .checkpoint import LoadedCheckpoint, load_checkpoint
from .data import SignalDataset, chronological_split, load_dataset, make_windows
from .errors import NumericalError, UsageError, ValidationError
from .model import ABLATIONS, ModelConfig
from .synth import TOPOLOGIES, channel_correlations, generate_synthetic
from .training import Metrics, TrainConfig, evaluate, ha_baseline, train

# model keys the dataset determines; everything else is configurable
_DERIVED_MODEL_FIELDS = {"n_nodes", "n_channels", "external_cardinalities", "external_continuous"}


def _default_config() -> dict:
    cfg: dict = {"data.path": None}
    for f in dataclasses.fields(ModelConfig):
        if f.name in _DERIVED_MODEL_FIELDS:
            continue
        value = f.default
        cfg[f"model.{f.name}"] = list(value) if isinstance(value, tuple) else value
    for f in dataclasses.fields(TrainConfig):
        if f.name == "checkpoint_dir":
            continue
        cfg[f"train.{f.name}"] = f.default
    return cfg


def _coerce(key: str, value):
    """Cast int and float keys to the type of their default; a bool is
    refused, and so is a float for an int key, rather than truncated."""
    kind = type(_default_config()[key])
    if kind not in (int, float):
        return value
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float)):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError):
        raise ValidationError(f"config key {key!r}: cannot interpret {value!r}") from None


def build_run_config(
    config_path: str | None, ablation: str | None, sets: list[str]
) -> dict:
    """Merge defaults, config file, flags and --set overrides; reject unknown keys."""
    cfg = _default_config()

    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise UsageError(f"{path}: config must be a JSON object of dotted keys")
        for key, value in loaded.items():
            if key not in cfg:
                raise UsageError(f"{path}: unknown config key {key!r}")
            cfg[key] = _coerce(key, value)

    if ablation is not None:
        cfg["model.ablation"] = ablation

    for entry in sets:
        key, sep, raw = entry.partition("=")
        if not sep or not key:
            raise UsageError(f"--set expects key=value, got {entry!r}")
        if key not in cfg:
            raise UsageError(f"--set: unknown config key {key!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cfg[key] = _coerce(key, value)
    return cfg


def _model_config_for(dataset: SignalDataset, cfg: dict) -> ModelConfig:
    fields = dataset.external_fields
    return ModelConfig(
        n_nodes=dataset.n_nodes,
        n_channels=dataset.n_channels,
        external_cardinalities=tuple(len(f.categories) for f in fields if f.kind == "categorical"),
        external_continuous=sum(1 for f in fields if f.kind == "continuous"),
        **{
            f.name: cfg[f"model.{f.name}"]
            for f in dataclasses.fields(ModelConfig)
            if f.name not in _DERIVED_MODEL_FIELDS
        },
    )


def _train_config_for(cfg: dict, checkpoint_dir: str | None) -> TrainConfig:
    kwargs = {
        f.name: cfg[f"train.{f.name}"]
        for f in dataclasses.fields(TrainConfig)
        if f.name != "checkpoint_dir"
    }
    return TrainConfig(checkpoint_dir=checkpoint_dir, **kwargs)


def _resolve_run_dir(out: str) -> Path:
    root = os.environ.get("STGF_RUN_DIR")
    path = Path(out)
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _split_for_eval(dataset: SignalDataset, ckpt: LoadedCheckpoint, which: str):
    # the splits are slices of target slots; only the rows the chosen
    # split's windows read are normalized, and the HA baseline reads none
    samples = make_windows(dataset, ckpt.stats, ckpt.model_config.window)
    train_s, val_s, test_s = chronological_split(
        samples,
        float(ckpt.train_config.get("train_frac", 0.7)),
        float(ckpt.train_config.get("val_frac", 0.1)),
    )
    chosen = {"train": train_s, "val": val_s, "test": test_s}[which]
    return train_s, chosen


def _print_metrics_table(out, rows: dict[str, Metrics], split: str, n_samples: int) -> None:
    print(f"split: {split}  samples: {n_samples}", file=out)
    print(f"{'':8s}{'rmse':>12s}{'mae':>12s}{'entries':>10s}", file=out)
    for name, m in rows.items():
        print(f"{name:<8s}{m.rmse:>12.4f}{m.mae:>12.4f}{m.count:>10d}", file=out)


# ----------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ValidationError(f"{out}: refusing to overwrite a non-empty directory without --force")
    dataset = generate_synthetic(
        out,
        seed=args.seed,
        n_nodes=args.nodes,
        n_slots=args.slots,
        topology=args.topology,
        interval_minutes=args.interval_minutes,
    )
    print(f"wrote {dataset.n_slots} slots x {dataset.n_nodes} nodes x "
          f"{dataset.n_channels} channels to {out}")
    for name, corr in channel_correlations(dataset).items():
        print(f"corr(flow, {name}) = {corr:+.3f}")
    return 0


def cmd_train(args) -> int:
    cfg = build_run_config(args.config, args.ablation, args.set or [])
    data_path = args.data or cfg["data.path"]
    if not data_path:
        raise UsageError("no dataset: pass --data or set data.path in the config")
    cfg["data.path"] = str(data_path)

    dataset = load_dataset(data_path)
    run_dir = _resolve_run_dir(args.out)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")

    model_config = _model_config_for(dataset, cfg)
    train_config = _train_config_for(cfg, str(run_dir / "checkpoint"))

    result = train(dataset, model_config, train_config, log=print)

    with open(run_dir / "loss_curve.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "train_mse", "val_mse"])
        for record in result.curve:
            writer.writerow([record.epoch, repr(record.train_mse), repr(record.val_mse)])

    print(f"best epoch {result.best_epoch} (val_mse {result.best_val_mse:.6f})")
    print(f"run artifacts in {run_dir}")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    train_s, chosen = _split_for_eval(dataset, ckpt, args.split)

    metrics, rows = evaluate(ckpt.params, ckpt.model_config, ckpt.stats, dataset, chosen)
    ha = ha_baseline(train_s, chosen, dataset.interval_minutes)

    out_dir = _resolve_run_dir(args.out) if args.out else Path(args.checkpoint).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.json").write_text(
        json.dumps(
            {"split": args.split, "model": metrics.to_dict(), "ha": ha.to_dict()},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    with open(out_dir / "predictions.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", "node_id", "y_true", "y_pred"])
        writer.writerows(
            zip(
                rows.timestamp_minutes.tolist(),
                rows.node_id,
                map(repr, rows.y_true.tolist()),
                map(repr, rows.y_pred.tolist()),
            )
        )

    _print_metrics_table(sys.stdout, {"model": metrics, "ha": ha}, args.split, len(chosen))
    print(f"wrote {out_dir / 'metrics.json'} and {out_dir / 'predictions.csv'}")
    return 0


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    window = ckpt.model_config.window
    interval = dataset.interval_minutes

    if args.at % interval != 0:
        raise ValidationError(
            f"timestamp {args.at} is not a slot boundary (interval {interval} minutes)"
        )
    slot = args.at // interval
    if not (window <= slot < dataset.n_slots):
        lo, hi = window * interval, (dataset.n_slots - 1) * interval
        raise ValidationError(
            f"timestamp {args.at} out of range: predictable slots cover [{lo}, {hi}] minutes"
        )

    k = slot - window
    one = make_windows(dataset, ckpt.stats, window)[k : k + 1]
    _, rows = evaluate(ckpt.params, ckpt.model_config, ckpt.stats, dataset, one)

    print(f"prediction for slot {slot} (minute {args.at})")
    print(f"{'node':<10s}{'y_pred':>12s}{'y_true':>12s}")
    for row in rows:
        print(f"{row.node_id:<10s}{row.y_pred:>12.3f}{row.y_true:>12.3f}")
    return 0


def cmd_inspect(args) -> int:
    if not args.data and not args.checkpoint:
        raise UsageError("inspect needs --data and/or --checkpoint")
    if args.data:
        dataset = load_dataset(args.data)
        print(f"dataset {args.data}")
        print(f"  slots {dataset.n_slots}, nodes {dataset.n_nodes}, "
              f"channels {dataset.n_channels}, interval {dataset.interval_minutes} min")
        print(f"  edges {len(dataset.graph.edges)} (undirected)")
        for c, name in enumerate(dataset.channel_names):
            col = dataset.signals[:, :, c]
            print(f"  channel {name}: min {col.min():.3f}, mean {col.mean():.3f}, "
                  f"max {col.max():.3f}")
        for f in dataset.external_fields:
            categories = f" [{', '.join(f.categories)}]" if f.categories else ""
            print(f"  external {f.name}: {f.kind}{categories}")
    if args.checkpoint:
        ckpt = load_checkpoint(args.checkpoint)
        print(f"checkpoint {args.checkpoint}")
        print(f"  format {ckpt.manifest['format']}")
        print(f"  variant {ckpt.model_config.ablation}, seed {ckpt.train_config.get('seed')}")
        print(f"  parameters {len(ckpt.params)} tensors, {ckpt.params.total_size()} values")
        print(f"  model {json.dumps(ckpt.model_config.to_dict(), sort_keys=True)}")
    return 0


# ------------------------------------------------------------------ parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stgf", description="Spatio-temporal graph forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--slots", type=int, default=2016)
    p.add_argument("--topology", choices=TOPOLOGIES, default="ring")
    p.add_argument("--interval-minutes", type=int, default=5)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true", help="overwrite a non-empty directory")

    p = sub.add_parser("train", help="train a model and write a run directory")
    p.add_argument("--config", help="JSON file of dotted config keys")
    p.add_argument("--data", help="dataset directory (overrides data.path)")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--ablation", choices=ABLATIONS)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")

    p = sub.add_parser("eval", help="evaluate a checkpoint against a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", help="directory for metrics.json/predictions.csv")

    p = sub.add_parser("predict", help="predict one slot's flow for every node")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--at", type=int, required=True, metavar="MINUTES",
                   help="target timestamp in minutes since slot 0")

    p = sub.add_parser("inspect", help="describe a dataset or checkpoint")
    p.add_argument("--data")
    p.add_argument("--checkpoint")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves it unchanged, so calls share it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up per call, so a wrapper set on a cmd_* attribute after the
        # parser was built still runs
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
