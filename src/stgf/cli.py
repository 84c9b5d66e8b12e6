"""Command-line surface: synth, train, eval, predict, inspect.

Run configuration is a flat JSON object with dotted keys (``data.path``,
``model.gcn_dims``, ``train.epochs`` and so on). Precedence, lowest to
highest: built-in defaults, the --config file, dedicated flags such as
--ablation, then repeated --set key=value overrides. The effective merged
config is echoed into the run directory so a run can be reproduced from
its own artifacts. Like every file a command writes, it is staged and
renamed by ``data.write_files``; eval's two files are one set.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import LoadedCheckpoint, load_checkpoint
from .data import MODEL_FIELDS, SignalDataset, check_fits, chronological_split, load_dataset
from .data import csv_bytes, json_bytes, make_windows, write_files
from .errors import NumericalError, UsageError, ValidationError, _json_number
from .model import ABLATIONS, ModelConfig
from .synth import TOPOLOGIES, channel_correlations, generate_synthetic
from .training import Metrics, TrainConfig, evaluate, ha_baseline, train


def _default_config() -> dict:
    cfg: dict = {"data.path": None}
    for f in dataclasses.fields(ModelConfig):
        if f.name in MODEL_FIELDS:  # the dataset fixes these
            continue
        value = f.default
        cfg[f"model.{f.name}"] = list(value) if isinstance(value, tuple) else value
    cfg.update((f"train.{k}", v) for k, v in TrainConfig().to_dict().items() if k != "checkpoint_dir")
    return cfg


def _coerce(key: str, value):
    """An int or float key's value, checked by the number rule; a float key
    takes an int as a float. The configs check each key's own bounds."""
    kind = type(_default_config()[key])
    if kind is float:
        return float(_json_number(f"config key {key}", value))
    if kind is int:
        return _json_number(f"config key {key}", value, least=0)
    return value


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
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError:
            raise UsageError(f"{path}: config file is not UTF-8 text") from None
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
    model_keys = {k.removeprefix("model."): v for k, v in cfg.items() if k.startswith("model.")}
    return ModelConfig(**dataset.model_fields(), **model_keys)


def _train_config_for(cfg: dict, checkpoint_dir: str | None) -> TrainConfig:
    kwargs = {k.removeprefix("train."): v for k, v in cfg.items() if k.startswith("train.")}
    return TrainConfig(checkpoint_dir=checkpoint_dir, **kwargs)


def _resolve_run_dir(out: str) -> Path:
    root = os.environ.get("STGF_RUN_DIR")
    path = Path(out)
    if root and not path.is_absolute():
        path = Path(root) / path
    return _refuse_non_directory(path)


def _refuse_non_directory(path: Path) -> Path:
    """``path`` unless it, or the nearest of its parents that exists, is
    something other than a directory."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ValidationError(f"{path}: --out cannot be a directory, {existing} is not one")
    return path


def _split_for_eval(dataset: SignalDataset, ckpt: LoadedCheckpoint, which: str):
    # the splits are slices of target slots; only the rows the chosen
    # split's windows read are normalized, and the HA baseline reads none
    samples = make_windows(dataset, ckpt.stats, ckpt.model_config.window)
    config = TrainConfig.from_dict(ckpt.train_config)
    train_s, val_s, test_s = chronological_split(samples, config.train_frac, config.val_frac)
    chosen = {"train": train_s, "val": val_s, "test": test_s}[which]
    return train_s, chosen


def _print_metrics_table(out, rows: dict[str, Metrics], split: str, n_samples: int) -> None:
    print(f"split: {split}  samples: {n_samples}", file=out)
    print(f"{'':8s}{'rmse':>12s}{'mae':>12s}{'entries':>10s}", file=out)
    for name, m in rows.items():
        print(f"{name:<8s}{m.rmse:>12.4f}{m.mae:>12.4f}{m.count:>10d}", file=out)


# ----------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    out = _refuse_non_directory(Path(args.out))
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

    run_dir = _resolve_run_dir(args.out)
    dataset = load_dataset(data_path)
    # a setting the configs refuse leaves no run directory behind
    model_config = _model_config_for(dataset, cfg)
    train_config = _train_config_for(cfg, str(run_dir / "checkpoint"))
    write_files(run_dir, {"config.json": json_bytes(cfg)})

    result = train(dataset, model_config, train_config, log=print)

    header = ["epoch", "train_mse", "val_mse"]
    curve = [np.array([getattr(r, k) for r in result.curve]) for k in header]
    write_files(run_dir, {"loss_curve.csv": csv_bytes(header, curve)})

    print(f"best epoch {result.best_epoch} (val_mse {result.best_val_mse:.6f})")
    print(f"run artifacts in {run_dir}")
    return 0


def cmd_eval(args) -> int:
    out_dir = _resolve_run_dir(args.out) if args.out else Path(args.checkpoint).parent
    ckpt = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    check_fits(ckpt.model_config, dataset, ckpt.dataset_signature)
    train_s, chosen = _split_for_eval(dataset, ckpt, args.split)

    metrics, rows = evaluate(ckpt.params, ckpt.model_config, ckpt.stats, dataset, chosen)
    ha = ha_baseline(train_s, chosen, dataset.interval_minutes)

    table = (rows.timestamp_minutes, rows.node_id, rows.y_true, rows.y_pred)
    write_files(out_dir, {
        "predictions.csv": csv_bytes(["timestamp", "node_id", "y_true", "y_pred"], table),
        "metrics.json": json_bytes({"split": args.split, "model": metrics.to_dict(), "ha": ha.to_dict()}),
    })

    _print_metrics_table(sys.stdout, {"model": metrics, "ha": ha}, args.split, len(chosen))
    print(f"wrote {out_dir / 'metrics.json'} and {out_dir / 'predictions.csv'}")
    return 0


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    check_fits(ckpt.model_config, dataset, ckpt.dataset_signature)
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
    for node, y_pred, y_true in zip(rows.node_id, rows.y_pred.tolist(), rows.y_true.tolist()):
        print(f"{node:<10s}{y_pred:>12.3f}{y_true:>12.3f}")
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
            print(f"  channel {name}: min {col.min():.3f}, mean {col.mean(dtype=float):.3f}, "
                  f"max {col.max():.3f}")
        for f in dataset.external_fields:
            categories = f" [{', '.join(f.categories)}]" if f.categories else ""
            print(f"  external {f.name}: {f.kind}{categories}")
    if args.checkpoint:
        ckpt = load_checkpoint(args.checkpoint)
        print(f"checkpoint {args.checkpoint}")
        print(f"  format {ckpt.manifest['format']}")
        print(f"  variant {ckpt.model_config.ablation}, seed {TrainConfig.from_dict(ckpt.train_config).seed}")
        print(f"  parameters {len(ckpt.params)} tensors, {ckpt.params.total_size()} values")
        print(f"  model {json.dumps(ckpt.model_config.to_dict(), sort_keys=True)}")
        signature = ckpt.dataset_signature
        if signature is None:
            print("  dataset signature: none recorded, so eval and predict cannot check the dataset")
        else:
            print(f"  dataset signature: {len(signature['node_ids'])} nodes, "
                  f"{len(signature['channel_names'])} channels, "
                  f"{len(signature['external_schema'])} covariate fields")
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
