"""Checkpoint directory: a JSON manifest plus a float32 parameter blob.

Layout:

    manifest.json  format tag, model config, training config (with seed),
                   normalization stats, and a parameter table of
                   name/shape/offset entries (offsets in float32 elements)
    params.bin     little-endian float32, parameters concatenated flat in
                   manifest order

Values quantize to single precision on save, so one round trip perturbs
each entry by at most one float32 ulp and a second save reproduces the
first byte for byte.

A save writes both files under temporary names in the checkpoint
directory and then renames them into place, ``params.bin`` first, so a
save interrupted while writing leaves the previous checkpoint as it was.
A load refuses a manifest of the wrong structure with a ``LoadError``
naming the manifest, before any value from it is used.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Parameter
from .data import NormStats
from .errors import LoadError
from .model import ModelConfig, ModelParams

CHECKPOINT_FORMAT = "stgf-checkpoint-v1"


@dataclass
class LoadedCheckpoint:
    params: ModelParams
    model_config: ModelConfig
    stats: NormStats
    train_config: dict
    manifest: dict


def save_checkpoint(
    params: ModelParams,
    model_config: ModelConfig,
    train_config: dict,
    stats: NormStats,
    path: str | Path,
) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)

    table = []
    offset = 0
    chunks = []
    for p in params:
        table.append({"name": p.name, "shape": list(p.value.shape), "offset": offset})
        offset += p.value.size
        chunks.append(p.value.reshape(-1))
    blob = np.concatenate(chunks).astype("<f4")

    manifest = {
        "format": CHECKPOINT_FORMAT,
        "model_config": model_config.to_dict(),
        "train_config": dict(train_config),
        "norm_stats": stats.to_dict(),
        "params": table,
        "total_size": int(offset),
    }
    staged = {
        "params.bin": blob.tobytes(),
        "manifest.json": (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(),
    }
    temps = [root / f".{name}.tmp" for name in staged]
    try:
        for temp, data in zip(temps, staged.values()):
            _write_file(temp, data)
        for temp, name in zip(temps, staged):
            os.replace(temp, root / name)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _write_file(path: Path, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def load_checkpoint(path: str | Path) -> LoadedCheckpoint:
    root = Path(path)
    manifest_path = root / "manifest.json"
    blob_path = root / "params.bin"
    if not manifest_path.is_file():
        raise LoadError(f"{manifest_path}: missing manifest")
    if not blob_path.is_file():
        raise LoadError(f"{blob_path}: missing parameter blob")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise LoadError(f"{manifest_path}: invalid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise LoadError(f"{manifest_path}: expected a JSON object, got {type(manifest).__name__}")

    tag = manifest.get("format")
    if tag != CHECKPOINT_FORMAT:
        raise LoadError(f"{manifest_path}: unknown format tag {tag!r}, expected {CHECKPOINT_FORMAT!r}")
    for key in ("model_config", "train_config", "norm_stats", "params", "total_size"):
        if key not in manifest:
            raise LoadError(f"{manifest_path}: missing key {key!r}")

    def section(key: str, build):
        try:
            return build(manifest[key])
        except (TypeError, ValueError, KeyError, AttributeError) as exc:
            raise LoadError(f"{manifest_path}: bad {key!r} ({type(exc).__name__}: {exc})") from None

    model_config = section("model_config", ModelConfig.from_dict)
    stats = section("norm_stats", NormStats.from_dict)
    if stats.n_channels != model_config.n_channels:
        raise LoadError(
            f"{manifest_path}: norm_stats cover {stats.n_channels} channels, "
            f"the model has {model_config.n_channels}"
        )
    train_config = section("train_config", _train_config)
    total = section("total_size", _count)

    payload = blob_path.read_bytes()
    if len(payload) != total * 4:
        raise LoadError(
            f"{blob_path}: expected {total * 4} bytes for {total} float32 values, got {len(payload)}"
        )
    flat = np.frombuffer(payload, dtype="<f4").astype(np.float64)

    params = ModelParams()
    cursor = 0
    for entry in section("params", list):
        try:
            name, offset = _object(entry)["name"], _count(entry["offset"])
            shape = tuple(_count(d) for d in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise LoadError(f"{manifest_path}: malformed parameter entry {entry} ({exc})") from None
        size = math.prod(shape)
        if not isinstance(name, str) or name in params:
            raise LoadError(f"{manifest_path}: parameter name {name!r} is not a new string")
        if offset != cursor or offset + size > total:
            raise LoadError(
                f"{manifest_path}: parameter {name!r} spans [{offset}, {offset + size}) "
                f"but the blob cursor is at {cursor} of {total}"
            )
        params.add(Parameter(name, flat[offset : offset + size].reshape(shape)))
        cursor += size
    if cursor != total:
        raise LoadError(f"{manifest_path}: parameter table covers {cursor} of {total} values")

    return LoadedCheckpoint(
        params=params,
        model_config=model_config,
        stats=stats,
        train_config=train_config,
        manifest=manifest,
    )


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return dict(value)


def _train_config(value) -> dict:
    config = _object(value)
    # eval splits the dataset by these
    for key in ("train_frac", "val_frac"):
        frac = config.get(key, 0.5)
        if isinstance(frac, bool) or not isinstance(frac, (int, float)) or not math.isfinite(frac):
            raise ValueError(f"{key} must be a finite number, got {frac!r}")
    return config


def _count(value) -> int:
    """A JSON integer >= 0 (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"expected a count, got {value!r}")
    return value
