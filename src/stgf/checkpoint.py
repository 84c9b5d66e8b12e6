"""Checkpoint directory: a JSON manifest plus a float32 parameter blob.

Layout:

    manifest.json  format tag, model config, training config (with seed),
                   normalization stats, a parameter table of
                   name/shape/offset entries (offsets in float32 elements),
                   and optionally under ``dataset`` the covariate schema,
                   channel names and node ids of the dataset trained on, as
                   its meta.json writes them, plus ``edges_sha256``, the
                   hash of its canonical edge list, which manifests saved
                   before it was recorded lack (``data.dataset_signature``)
    params.bin     little-endian float32: the ``ModelParams`` vector, which
                   holds the parameters back to back in manifest order

Values quantize to single precision on save, so one round trip perturbs
each entry by at most one float32 ulp and a second save reproduces the
first byte for byte. A load converts the blob to float64 once and the
loaded parameters are views into that one vector.

A save writes both files as one ``data.write_files`` set, ``params.bin``
renamed first, so a save interrupted while writing leaves the previous
checkpoint as it was. The manifest is read and written as UTF-8.
A load refuses a manifest of the wrong structure with a ``LoadError``
naming the manifest, before any value from it is used; that includes a
parameter table whose names, shapes or order differ from the layout the
manifest's model config builds (``model.param_layout``), a training config
``TrainConfig`` refuses (it is kept as the dict stored), normalization
stats other than flat lists of finite numbers, and a ``dataset`` entry in
another form than a save writes. A blob holding a NaN or an infinity is
refused naming the first parameter that holds one.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .data import ExternalField, NormStats, json_bytes, write_files
from .errors import LoadError, _json_number
from .model import ModelConfig, ModelParams, TrainConfig, param_layout

CHECKPOINT_FORMAT = "stgf-checkpoint-v1"


@dataclass
class LoadedCheckpoint:
    params: ModelParams
    model_config: ModelConfig
    stats: NormStats
    train_config: dict
    manifest: dict
    # the dataset_signature a save recorded, None in manifests without one
    dataset_signature: dict | None = None


def save_checkpoint(
    params: ModelParams,
    model_config: ModelConfig,
    train_config: dict,
    stats: NormStats,
    path: str | Path,
    *,
    dataset_signature: dict | None = None,
) -> None:
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "model_config": model_config.to_dict(),
        "train_config": dict(train_config),
        "norm_stats": stats.to_dict(),
        "params": _table(params.layout()),
        "total_size": params.values.size,
    }
    if dataset_signature is not None:
        manifest["dataset"] = dataset_signature
    write_files(path, {"params.bin": params.values.astype("<f4"), "manifest.json": json_bytes(manifest)})


def load_checkpoint(path: str | Path) -> LoadedCheckpoint:
    root = Path(path)
    manifest_path = root / "manifest.json"
    blob_path = root / "params.bin"
    if not manifest_path.is_file():
        raise LoadError(f"{manifest_path}: missing manifest")
    if not blob_path.is_file():
        raise LoadError(f"{blob_path}: missing parameter blob")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
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
    section("train_config", TrainConfig.from_dict)
    signature = section("dataset", _dataset_signature) if "dataset" in manifest else None

    # the table must be the one a save of this model config writes
    layout = param_layout(model_config)
    table = _table(layout)
    for k, (have, want) in enumerate(zip_longest(section("params", list), table)):
        if have != want:
            expected = "no more parameters"
            if want is not None:
                expected = f"{want['name']!r} of shape {tuple(want['shape'])} at blob cursor {want['offset']}"
            raise LoadError(
                f"{manifest_path}: parameter {k} is {'missing' if have is None else have}, "
                f"the model config expects {expected}"
            )
    size = sum(math.prod(shape) for _, shape in layout)
    if section("total_size", lambda value: _json_number("total_size", value, least=0)) != size:
        raise LoadError(
            f"{manifest_path}: total_size is {manifest['total_size']!r}, the table covers {size}"
        )
    payload = blob_path.read_bytes()
    if len(payload) != size * 4:
        raise LoadError(
            f"{blob_path}: expected {size * 4} bytes for {size} float32 values, got {len(payload)}"
        )
    blob = np.frombuffer(payload, dtype="<f4")
    if not np.isfinite(blob).all():
        k = int(np.argmin(np.isfinite(blob)))
        entry = table[bisect.bisect_right([e["offset"] for e in table], k) - 1]
        raise LoadError(
            f"{blob_path}: parameter {entry['name']!r} holds the non-finite value {blob[k]} "
            f"at blob cursor {k}"
        )
    flat = blob.astype(np.float64)
    return LoadedCheckpoint(
        params=ModelParams.view(flat, layout),
        model_config=model_config,
        stats=stats,
        train_config=dict(manifest["train_config"]),
        manifest=manifest,
        dataset_signature=signature,
    )


def _table(layout: list[tuple[str, tuple[int, ...]]]) -> list[dict]:
    """Manifest entries of a layout, with offsets in float32 elements."""
    offsets = np.cumsum([0, *(math.prod(shape) for _, shape in layout)]).tolist()
    return [
        {"name": name, "shape": list(shape), "offset": offset}
        for (name, shape), offset in zip(layout, offsets)
    ]


def _dataset_signature(value) -> dict:
    fields = [ExternalField.from_dict(d) for d in value["external_schema"]]
    canonical = {
        "external_schema": [f.to_dict() for f in fields],
        "channel_names": [str(x) for x in value["channel_names"]],
        "node_ids": [str(x) for x in value["node_ids"]],
    }
    if "edges_sha256" in value:  # absent from manifests saved before it was recorded
        digest = value["edges_sha256"]
        if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)):
            raise ValueError(f"edges_sha256 must be 64 lowercase hex digits, got {digest!r}")
        canonical["edges_sha256"] = digest
    if value != canonical:
        raise ValueError(
            "expected the schema entries and string lists a dataset's meta.json holds, "
            "and optionally edges_sha256"
        )
    return value
