"""Checkpoint directory: a JSON manifest plus a float32 parameter blob.

Layout:

    manifest.json  format tag, model config, training config (with seed),
                   normalization stats, and a parameter table of
                   name/shape/offset entries (offsets in float32 elements)
    params.bin     little-endian float32: the ``ModelParams`` vector, which
                   holds the parameters back to back in manifest order

Values quantize to single precision on save, so one round trip perturbs
each entry by at most one float32 ulp and a second save reproduces the
first byte for byte. A load converts the blob to float64 once and the
loaded parameters are views into that one vector.

A save writes both files under temporary names in the checkpoint
directory and then renames them into place, ``params.bin`` first, so a
save interrupted while writing leaves the previous checkpoint as it was.
A load refuses a manifest of the wrong structure with a ``LoadError``
naming the manifest, before any value from it is used; that includes a
parameter table whose names, shapes or order differ from the layout the
manifest's model config builds (``model.param_layout``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .data import NormStats
from .errors import LoadError
from .model import ModelConfig, ModelParams, param_layout

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

    manifest = {
        "format": CHECKPOINT_FORMAT,
        "model_config": model_config.to_dict(),
        "train_config": dict(train_config),
        "norm_stats": stats.to_dict(),
        "params": _table(params.layout()),
        "total_size": params.values.size,
    }
    staged = {
        "params.bin": params.values.astype("<f4"),
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


def _write_file(path: Path, data: bytes | np.ndarray) -> None:
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

    # the table must be the one a save of this model config writes
    layout = param_layout(model_config)
    for k, (have, want) in enumerate(zip_longest(section("params", list), _table(layout))):
        if have != want:
            expected = "no more parameters"
            if want is not None:
                expected = f"{want['name']!r} of shape {tuple(want['shape'])} at blob cursor {want['offset']}"
            raise LoadError(
                f"{manifest_path}: parameter {k} is {'missing' if have is None else have}, "
                f"the model config expects {expected}"
            )
    size = sum(math.prod(shape) for _, shape in layout)
    if manifest["total_size"] != size:
        raise LoadError(
            f"{manifest_path}: total_size is {manifest['total_size']!r}, the table covers {size}"
        )
    payload = blob_path.read_bytes()
    if len(payload) != size * 4:
        raise LoadError(
            f"{blob_path}: expected {size * 4} bytes for {size} float32 values, got {len(payload)}"
        )
    flat = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return LoadedCheckpoint(
        params=ModelParams.view(flat, layout),
        model_config=model_config,
        stats=stats,
        train_config=train_config,
        manifest=manifest,
    )


def _table(layout: list[tuple[str, tuple[int, ...]]]) -> list[dict]:
    """Manifest entries of a layout, with offsets in float32 elements."""
    offsets = np.cumsum([0, *(math.prod(shape) for _, shape in layout)]).tolist()
    return [
        {"name": name, "shape": list(shape), "offset": offset}
        for (name, shape), offset in zip(layout, offsets)
    ]


def _train_config(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    config = dict(value)
    # eval splits the dataset by these
    for key in ("train_frac", "val_frac"):
        frac = config.get(key, 0.5)
        if isinstance(frac, bool) or not isinstance(frac, (int, float)) or not math.isfinite(frac):
            raise ValueError(f"{key} must be a finite number, got {frac!r}")
    return config
