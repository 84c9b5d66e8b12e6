"""End-to-end command-line tests driving main() in process."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgf.checkpoint import load_checkpoint, save_checkpoint
from stgf.cli import build_run_config, main
from stgf.data import load_dataset, save_dataset
from stgf.errors import LoadError, ValidationError
from stgf.training import TrainConfig
from test_checkpoint import MALFORMED_MANIFESTS, MISFITTING_TABLES, fail_writing, rewrite_table

FAST_SET = [
    "--set", "model.gcn_dims=[4]",
    "--set", "model.lstm_layers=1",
    "--set", "model.lstm_hidden=8",
    "--set", "model.embed_dim=2",
    "--set", "model.external_hidden=4",
    "--set", "model.window=2",
    "--set", "train.epochs=2",
    "--set", "train.batch_size=16",
    "--set", "train.seed=1",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("datasets") / "toy"
    assert main(["synth", "--seed", "3", "--nodes", "3", "--slots", "64",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    path = tmp_path_factory.mktemp("runs") / "r1"
    code = main(["train", "--data", str(data_dir), "--out", str(path), *FAST_SET])
    assert code == 0
    return path


# ------------------------------------------------------------------- synth


def test_synth_reports_correlations(tmp_path, capsys):
    assert main(["synth", "--seed", "1", "--nodes", "3", "--slots", "64",
                 "--out", str(tmp_path / "d")]) == 0
    out = capsys.readouterr().out
    assert "corr(flow, speed)" in out
    assert "corr(flow, occupancy)" in out
    loaded = load_dataset(tmp_path / "d")
    assert loaded.n_slots == 64


def test_synth_same_flags_are_byte_identical(tmp_path):
    for name in ("a", "b"):
        assert main(["synth", "--seed", "9", "--nodes", "4", "--slots", "96",
                     "--topology", "grid", "--out", str(tmp_path / name)]) == 0
    for f in ("meta.json", "signals.bin", "edges.csv", "externals.csv"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_synth_refuses_non_empty_dir(tmp_path, capsys):
    target = tmp_path / "d"
    target.mkdir()
    (target / "junk.txt").write_text("hello")
    assert main(["synth", "--slots", "64", "--nodes", "3", "--out", str(target)]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["synth", "--slots", "64", "--nodes", "3", "--out", str(target),
                 "--force"]) == 0


def test_synth_rejects_tiny_slot_count(tmp_path, capsys):
    assert main(["synth", "--slots", "10", "--out", str(tmp_path / "d")]) == 2
    assert "64" in capsys.readouterr().err


# ------------------------------------------------------------------- usage


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_train_without_data_is_usage_error(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path / "r")]) == 1
    assert "data" in capsys.readouterr().err


def test_malformed_set_flag(tmp_path, data_dir, capsys):
    code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                 "--set", "no-equals-sign"])
    assert code == 1
    assert "key=value" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, data_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model.hidden_size": 7}))
    assert main(["train", "--config", str(cfg), "--data", str(data_dir),
                 "--out", str(tmp_path / "r")]) == 1


def test_unknown_set_key_rejected(tmp_path, data_dir):
    assert main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                 "--set", "model.bogus=1"]) == 1


def test_build_run_config_precedence(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"train.epochs": 9, "model.ablation": "full"}))
    cfg = build_run_config(str(cfg_file), "global-only", ["train.epochs=4"])
    assert cfg["train.epochs"] == 4
    assert cfg["model.ablation"] == "global-only"
    assert cfg["train.batch_size"] == 32  # untouched default


# ------------------------------------------------------------------- train


def test_train_writes_run_artifacts(run_dir):
    assert (run_dir / "config.json").is_file()
    assert (run_dir / "loss_curve.csv").is_file()
    assert (run_dir / "checkpoint" / "manifest.json").is_file()
    assert (run_dir / "checkpoint" / "params.bin").is_file()
    lines = (run_dir / "loss_curve.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_mse,val_mse"
    assert len(lines) == 1 + 2  # header + one row per epoch
    cfg = json.loads((run_dir / "config.json").read_text())
    assert cfg["train.epochs"] == 2
    assert cfg["model.gcn_dims"] == [4]
    assert cfg["data.path"]


def test_train_logs_progress(tmp_path, data_dir, capsys):
    assert main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                 *FAST_SET]) == 0
    out = capsys.readouterr().out
    assert "epoch   1" in out
    assert "best epoch" in out


def test_train_ablation_flag_reaches_the_checkpoint(tmp_path, data_dir):
    path = tmp_path / "r"
    assert main(["train", "--data", str(data_dir), "--out", str(path),
                 "--ablation", "local-only", *FAST_SET]) == 0
    ckpt = load_checkpoint(path / "checkpoint")
    assert ckpt.model_config.ablation == "local-only"
    cfg = json.loads((path / "config.json").read_text())
    assert cfg["model.ablation"] == "local-only"


def test_rerun_from_echoed_config_reproduces_the_run(tmp_path, data_dir):
    first = tmp_path / "first"
    assert main(["train", "--data", str(data_dir), "--out", str(first),
                 *FAST_SET]) == 0
    # the echoed config pins every key, so it alone must reproduce the run
    second = tmp_path / "second"
    assert main(["train", "--config", str(first / "config.json"),
                 "--out", str(second)]) == 0
    assert (first / "loss_curve.csv").read_bytes() == \
        (second / "loss_curve.csv").read_bytes()
    assert (first / "checkpoint" / "params.bin").read_bytes() == \
        (second / "checkpoint" / "params.bin").read_bytes()


def test_train_twice_gives_identical_loss_curves(tmp_path, data_dir):
    for name in ("a", "b"):
        assert main(["train", "--data", str(data_dir), "--out", str(tmp_path / name),
                     *FAST_SET]) == 0
    assert (tmp_path / "a" / "loss_curve.csv").read_bytes() == (
        tmp_path / "b" / "loss_curve.csv"
    ).read_bytes()


def test_run_dir_env_var_roots_relative_outputs(tmp_path, data_dir, monkeypatch):
    monkeypatch.setenv("STGF_RUN_DIR", str(tmp_path / "root"))
    assert main(["train", "--data", str(data_dir), "--out", "nested/run", *FAST_SET]) == 0
    assert (tmp_path / "root" / "nested" / "run" / "loss_curve.csv").is_file()


@pytest.mark.parametrize(
    "entry, message",
    [
        *(
            pytest.param(entry, f"{entry.split('.')[1].split('=')[0]} must be a finite number", id=entry)
            for entry in ("train.clip_norm=NaN", "train.epsilon=Infinity", "train.learning_rate=NaN")
        ),
        pytest.param("model.window=0", "window must be >= 1", id="model.window=0"),
    ],
)
def test_train_refuses_a_non_finite_setting_with_exit_2(tmp_path, data_dir, capsys, entry, message):
    code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                 *FAST_SET, "--set", entry])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r" / "loss_curve.csv").exists()
    # the configs are built before the run directory, so nothing is written
    assert not (tmp_path / "r" / "config.json").exists()


def test_a_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, data_dir, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"train.epochs": 1, "data.path": "caf\xe9"}')
    assert main(["train", "--config", str(cfg), "--data", str(data_dir),
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert str(cfg) in err and "UTF-8" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("below", [(), ("run",)], ids=["the-file", "below-the-file"])
@pytest.mark.parametrize("command", ["synth", "train", "eval"])
def test_an_out_path_that_is_a_file_exits_2_and_leaves_it(
    run_dir, data_dir, tmp_path, capsys, command, below
):
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    out = taken.joinpath(*below)
    argv = {
        "synth": ["synth", "--nodes", "3", "--slots", "64"],
        "train": ["train", "--data", str(data_dir), *FAST_SET],
        "eval": ["eval", "--checkpoint", str(run_dir / "checkpoint"), "--data", str(data_dir)],
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err
    assert taken.read_bytes() == b"not a directory\n"


def test_train_numerical_blowup_exits_3(tmp_path, data_dir, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                     *FAST_SET, "--set", "train.learning_rate=1e154",
                     "--set", "train.clip_norm=1e300"])
    assert code == 3
    assert "numerical" in capsys.readouterr().err


# -------------------------------------------------------------------- eval


def test_eval_writes_metrics_and_predictions(run_dir, data_dir, capsys):
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint"),
                 "--data", str(data_dir), "--split", "test"]) == 0
    out = capsys.readouterr().out
    assert "model" in out and "ha" in out

    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert set(metrics) == {"split", "model", "ha"}
    assert metrics["model"]["rmse"] >= metrics["model"]["mae"] >= 0

    dataset = load_dataset(data_dir)
    lines = (run_dir / "predictions.csv").read_text().splitlines()
    assert lines[0] == "timestamp,node_id,y_true,y_pred"
    n_test = metrics["model"]["count"] // dataset.n_nodes
    assert len(lines) == 1 + n_test * dataset.n_nodes


def test_eval_predictions_csv_holds_the_table_rows(run_dir, data_dir, tmp_path):
    from stgf.cli import _split_for_eval
    from stgf.training import evaluate

    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint"),
                 "--data", str(data_dir), "--out", str(out)]) == 0
    ckpt = load_checkpoint(run_dir / "checkpoint")
    dataset = load_dataset(data_dir)
    _, chosen = _split_for_eval(dataset, ckpt, "test")
    # the table of the same windows, written row by row
    _, table = evaluate(ckpt.params, ckpt.model_config, ckpt.stats, dataset, chosen)
    want = ["timestamp,node_id,y_true,y_pred"] + [
        f"{int(table.timestamp_minutes[k])},{table.node_id[k]},"
        f"{float(table.y_true[k])!r},{float(table.y_pred[k])!r}"
        for k in range(len(table))
    ]
    assert (out / "predictions.csv").read_text() == "\n".join(want) + "\n"


def test_a_node_id_holding_a_cr_or_an_lf_reads_back_from_predictions_csv(run_dir, data_dir, tmp_path):
    dataset = load_dataset(data_dir)
    node_ids = ("n\r0", "n\n1", "n\r\n2")
    save_dataset(dataclasses.replace(dataset, node_ids=node_ids), tmp_path / "data")
    # the same parameters, saved without the dataset signature that names node ids
    ckpt = load_checkpoint(run_dir / "checkpoint")
    save_checkpoint(ckpt.params, ckpt.model_config, ckpt.train_config, ckpt.stats,
                    tmp_path / "checkpoint")
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(tmp_path / "checkpoint"),
                 "--data", str(tmp_path / "data"), "--out", str(out)]) == 0
    with open(out / "predictions.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["timestamp", "node_id", "y_true", "y_pred"]
    assert {len(row) for row in rows} == {4}
    assert [row[1] for row in rows[1:]] == list(node_ids) * ((len(rows) - 1) // 3)


@pytest.mark.parametrize("failing", ["predictions.csv", "metrics.json"])
def test_an_eval_failing_on_either_file_leaves_both(run_dir, data_dir, tmp_path, monkeypatch, failing):
    out = tmp_path / "e"
    argv = ["eval", "--checkpoint", str(run_dir / "checkpoint"), "--data", str(data_dir),
            "--out", str(out)]
    assert main([*argv, "--split", "test"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    fail_writing(monkeypatch, failing)
    with pytest.raises(OSError, match="No space left"):
        main([*argv, "--split", "val"])
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_eval_geometry_mismatch_exits_2(run_dir, tmp_path, capsys):
    assert main(["synth", "--seed", "2", "--nodes", "5", "--slots", "64",
                 "--out", str(tmp_path / "other")]) == 0
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint"),
                 "--data", str(tmp_path / "other")])
    assert code == 2
    err = capsys.readouterr().err
    assert "3" in err and "5" in err


@pytest.fixture
def two_channel_dir(tmp_path, data_dir):
    """The toy dataset with its last channel dropped."""
    full = load_dataset(data_dir)
    path = tmp_path / "two-channel"
    save_dataset(
        dataclasses.replace(
            full, signals=full.signals[:, :, :2], channel_names=full.channel_names[:2]
        ),
        path,
    )
    return path


def test_eval_channel_mismatch_exits_2(run_dir, two_channel_dir, capsys):
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint"),
                 "--data", str(two_channel_dir)])
    assert code == 2
    assert "model expects n_channels 3, dataset has 2" in capsys.readouterr().err


def test_eval_missing_checkpoint_exits_2(tmp_path, data_dir):
    assert main(["eval", "--checkpoint", str(tmp_path / "nope"),
                 "--data", str(data_dir)]) == 2


# ------------------------------------------------------------------ predict


def test_predict_prints_one_row_per_node(run_dir, data_dir, capsys):
    dataset = load_dataset(data_dir)
    at = 10 * dataset.interval_minutes
    assert main(["predict", "--checkpoint", str(run_dir / "checkpoint"),
                 "--data", str(data_dir), "--at", str(at)]) == 0
    out = capsys.readouterr().out
    for node in dataset.node_ids:
        assert node in out
    assert "y_pred" in out and "y_true" in out


def test_predict_rejects_out_of_range_timestamp(run_dir, data_dir, capsys):
    assert main(["predict", "--checkpoint", str(run_dir / "checkpoint"),
                 "--data", str(data_dir), "--at", "1000000"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_predict_rejects_non_boundary_timestamp(run_dir, data_dir):
    assert main(["predict", "--checkpoint", str(run_dir / "checkpoint"),
                 "--data", str(data_dir), "--at", "52"]) == 2


def test_predict_geometry_mismatch_exits_2(run_dir, tmp_path, capsys):
    assert main(["synth", "--seed", "2", "--nodes", "4", "--slots", "64",
                 "--out", str(tmp_path / "other")]) == 0
    code = main(["predict", "--checkpoint", str(run_dir / "checkpoint"),
                 "--data", str(tmp_path / "other"), "--at", "50"])
    assert code == 2
    assert "model expects n_nodes 3, dataset has 4" in capsys.readouterr().err


@pytest.mark.parametrize("edit", MALFORMED_MANIFESTS.values(), ids=MALFORMED_MANIFESTS)
def test_predict_with_a_malformed_manifest_exits_2(run_dir, data_dir, tmp_path, capsys, edit):
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(run_dir / "checkpoint", ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    (ckpt / "manifest.json").write_text(json.dumps(edit(manifest)))
    code = main(["predict", "--checkpoint", str(ckpt), "--data", str(data_dir), "--at", "50"])
    assert code == 2
    assert "manifest.json" in capsys.readouterr().err


def _checkpoint_command(command, ckpt, data_dir):
    if command == "inspect":
        return ["inspect", "--checkpoint", str(ckpt)]
    at = ["--at", "50"] if command == "predict" else []
    return [command, "--checkpoint", str(ckpt), "--data", str(data_dir), *at]


@pytest.mark.parametrize("command", ["eval", "predict", "inspect"])
def test_an_integer_past_the_digit_limit_in_the_manifest_exits_2(
    run_dir, data_dir, tmp_path, capsys, command
):
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(run_dir / "checkpoint", ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    text = json.dumps(manifest).replace(
        f'"total_size": {manifest["total_size"]}', '"total_size": ' + "1" * 5001
    )
    (ckpt / "manifest.json").write_text(text)
    assert main(_checkpoint_command(command, ckpt, data_dir)) == 2
    err = capsys.readouterr().err
    assert f"{ckpt / 'manifest.json'}: invalid JSON (Exceeds the limit" in err


NON_FINITE_CHECKPOINTS = {
    # a NaN parameter used to be served, and the metrics check then failed
    # naming no file
    "nan-parameter": ("params.bin", "parameter 'lstm0_wi' holds the non-finite value nan"),
    "nan-minimum": ("manifest.json", "bad 'norm_stats'"),
    "infinite-maximum": ("manifest.json", "bad 'norm_stats'"),
}


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("case", sorted(NON_FINITE_CHECKPOINTS))
def test_a_non_finite_checkpoint_value_exits_2_naming_its_file(
    run_dir, data_dir, tmp_path, capsys, command, case
):
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(run_dir / "checkpoint", ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    if case == "nan-parameter":
        offset = next(e["offset"] for e in manifest["params"] if e["name"] == "lstm0_wi")
        blob = np.fromfile(ckpt / "params.bin", dtype="<f4")
        blob[offset + 3] = np.nan
        blob.tofile(ckpt / "params.bin")
    else:
        key, value = ("minimum", np.nan) if case == "nan-minimum" else ("maximum", np.inf)
        manifest["norm_stats"][key][1] = value
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
    assert main(_checkpoint_command(command, ckpt, data_dir)) == 2
    name, message = NON_FINITE_CHECKPOINTS[case]
    err = capsys.readouterr().err
    assert f"error: {ckpt / name}: {message}" in err


@pytest.mark.parametrize("case", MISFITTING_TABLES.values(), ids=MISFITTING_TABLES)
def test_predict_with_a_table_that_does_not_fit_its_config_exits_2(
    run_dir, data_dir, tmp_path, capsys, case
):
    edit_entries, edit_config, _ = case
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(run_dir / "checkpoint", ckpt)
    rewrite_table(ckpt, edit_entries, edit_config)
    code = main(["predict", "--checkpoint", str(ckpt), "--data", str(data_dir), "--at", "50"])
    assert code == 2
    err = capsys.readouterr().err
    assert "manifest.json" in err and "the model config expects" in err


@pytest.mark.parametrize("key, value", [("window", 2.0), ("n_nodes", 4.5), ("gcn_dims", [4.7])])
def test_predict_with_non_integer_geometry_exits_2(run_dir, data_dir, tmp_path, capsys, key, value):
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(run_dir / "checkpoint", ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["model_config"][key] = value
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    code = main(["predict", "--checkpoint", str(ckpt), "--data", str(data_dir), "--at", "50"])
    assert code == 2
    assert f"{key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    ["model.window=2.5", "model.window=2.0", "model.gcn_dims=[4,8.7]", "model.lstm_hidden=true",
     "train.epochs=1.5"],
)
def test_set_refuses_a_non_integer_for_an_integer_key(tmp_path, data_dir, capsys, entry):
    code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                 *FAST_SET, "--set", entry])
    assert code == 2
    assert not (tmp_path / "r" / "checkpoint").exists()
    assert entry.split("=")[0].split(".")[1] in capsys.readouterr().err


@pytest.mark.parametrize("entry", ['train.epochs="5"', 'train.learning_rate="0.1"'])
def test_a_quoted_number_is_refused_naming_its_key(tmp_path, data_dir, capsys, entry):
    # _coerce cast the string to the key's type
    key, raw = entry.split("=")
    kind = "an integer" if key == "train.epochs" else "a finite number"
    message = f"config key {key} must be {kind}, got {json.loads(raw)!r}"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: json.loads(raw)}), encoding="utf-8")
    for flags in (["--set", entry], ["--config", str(cfg)]):
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"), *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()


def test_set_refuses_an_integer_past_the_float_range_for_a_float_key():
    # float() of it raised OverflowError, which ended `stgf train` in a traceback
    with pytest.raises(ValidationError, match="train.learning_rate must be a finite number"):
        build_run_config(None, None, ["train.learning_rate=" + "9" * 400])


def test_set_refuses_a_bool_for_a_float_key():
    with pytest.raises(ValidationError, match="train.learning_rate"):
        build_run_config(None, None, ["train.learning_rate=true"])
    assert build_run_config(None, None, ["train.learning_rate=1"])["train.learning_rate"] == 1.0


def test_predict_channel_mismatch_exits_2(run_dir, two_channel_dir, capsys):
    code = main(["predict", "--checkpoint", str(run_dir / "checkpoint"),
                 "--data", str(two_channel_dir), "--at", "50"])
    assert code == 2
    assert "model expects n_channels 3, dataset has 2" in capsys.readouterr().err


def _edited_meta_copy(data_dir, path, key, edit):
    """A copy of the dataset directory whose meta.json holds ``edit`` of ``key``."""
    shutil.copytree(data_dir, path)
    meta = json.loads((path / "meta.json").read_text())
    meta[key] = edit(meta[key])
    (path / "meta.json").write_text(json.dumps(meta))


def _served(ckpt, data, out, capsys):
    """stdout, metrics.json and predictions.csv of eval and predict."""
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]) == 0
    assert main(["predict", "--checkpoint", str(ckpt), "--data", str(data), "--at", "50"]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    return stdout, [(out / name).read_bytes() for name in ("metrics.json", "predictions.csv")]


def _reordered_copy(data_dir, path, order):
    """A copy of the dataset directory holding the covariate fields ``order``
    picks, in that order."""
    _edited_meta_copy(data_dir, path, "external_schema", lambda schema: [schema[k] for k in order])
    rows = [row.split(",") for row in (path / "externals.csv").read_text().splitlines()]
    (path / "externals.csv").write_text("".join(",".join(r[k] for k in order) + "\n" for r in rows))


# covariate fields the default-schema checkpoint cannot read
MISMATCHED_SCHEMAS = {
    "weather-first": ((1, 0, 2), "model expects external_cardinalities (3, 4), dataset has (4, 3)"),
    # the continuous field first is served, but the categorical fields are
    # swapped behind it, and that is still caught
    "temperature-first": ((2, 1, 0), "model expects external_cardinalities (3, 4), dataset has (4, 3)"),
    "no-temperature": ((0, 1), "model expects external_continuous 1, dataset has 0"),
}


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("schema", sorted(MISMATCHED_SCHEMAS))
def test_covariate_layout_mismatch_exits_2(run_dir, data_dir, tmp_path, capsys, command, schema):
    order, message = MISMATCHED_SCHEMAS[schema]
    _reordered_copy(data_dir, tmp_path / "reordered", order)
    argv = [command, "--checkpoint", str(run_dir / "checkpoint"),
            "--data", str(tmp_path / "reordered")]
    if command == "predict":
        argv += ["--at", "50"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


# the categorical fields keep their order, so the model reads the same codes
CONTINUOUS_FIRST = {"temperature-first": (2, 0, 1), "temperature-between": (0, 2, 1)}


@pytest.mark.parametrize("schema", sorted(CONTINUOUS_FIRST))
def test_a_continuous_field_first_evaluates_and_predicts_like_the_original(
    run_dir, data_dir, tmp_path, capsys, schema
):
    _reordered_copy(data_dir, tmp_path / "reordered", CONTINUOUS_FIRST[schema])
    want = _served(run_dir / "checkpoint", data_dir, tmp_path / "a", capsys)
    assert _served(run_dir / "checkpoint", tmp_path / "reordered", tmp_path / "b", capsys) == want


def test_a_continuous_field_first_trains_like_the_original(run_dir, data_dir, tmp_path):
    _reordered_copy(data_dir, tmp_path / "reordered", (2, 0, 1))
    out = tmp_path / "r"
    assert main(["train", "--data", str(tmp_path / "reordered"), "--out", str(out),
                 *FAST_SET]) == 0
    for name in ("loss_curve.csv", "checkpoint/params.bin"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


def _day_types_reordered(schema):
    return [{**schema[0], "categories": ["weekend", "weekday", "holiday"]}, *schema[1:]]


# meta.json edits that keep the shapes the model reads but not what they mean
RELABELLED = {
    "day-type-categories-reordered": (
        "external_schema",
        _day_types_reordered,
        'dataset\'s external_schema entry 0 is {"categories": ["weekend", "weekday", "holiday"], '
        '"kind": "categorical", "name": "day_type"}, the model was trained on '
        '{"categories": ["weekday", "weekend", "holiday"], "kind": "categorical", "name": "day_type"}',
    ),
    "channel-names-swapped": (
        "channel_names",
        lambda names: [names[1], names[0], *names[2:]],
        'dataset\'s channel_names entry 0 is "speed", the model was trained on "flow"',
    ),
    "node-ids-reordered": (
        "node_ids",
        lambda ids: ids[::-1],
        'dataset\'s node_ids entry 0 is "n002", the model was trained on "n000"',
    ),
}


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("case", sorted(RELABELLED))
def test_a_relabelled_dataset_exits_2_naming_the_first_difference(
    run_dir, data_dir, tmp_path, capsys, command, case
):
    key, edit, message = RELABELLED[case]
    _edited_meta_copy(data_dir, tmp_path / "relabelled", key, edit)
    argv = _checkpoint_command(command, run_dir / "checkpoint", tmp_path / "relabelled")
    assert main(argv) == 2
    assert f"error: {message}\n" in capsys.readouterr().err


def _rewired_copy(data_dir, path):
    """A copy of the dataset directory whose road graph lacks its first edge."""
    shutil.copytree(data_dir, path)
    header, _, *rest = (path / "edges.csv").read_text().splitlines(keepends=True)
    (path / "edges.csv").write_text("".join([header, *rest]))
    return path


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_a_rewired_road_graph_exits_2_naming_the_edges(run_dir, data_dir, tmp_path, capsys, command):
    rewired = _rewired_copy(data_dir, tmp_path / "rewired")
    assert main(_checkpoint_command(command, run_dir / "checkpoint", rewired)) == 2
    err = capsys.readouterr().err
    assert "error: dataset's edges differ from the road graph the model was trained on" in err


def test_a_manifest_without_the_edge_hash_serves_as_before(run_dir, data_dir, tmp_path, capsys):
    ckpt = _checkpoint_copy(
        run_dir, tmp_path / "checkpoint", lambda m: m["dataset"].pop("edges_sha256")
    )
    want = _served(run_dir / "checkpoint", data_dir, tmp_path / "a", capsys)
    assert _served(ckpt, data_dir, tmp_path / "b", capsys) == want
    # nothing to compare the road graph with, so the rewired copy is served
    _served(ckpt, _rewired_copy(data_dir, tmp_path / "rewired"), tmp_path / "c", capsys)


def _checkpoint_copy(run_dir, path, edit):
    """A copy of the run's checkpoint whose manifest holds ``edit`` of it."""
    shutil.copytree(run_dir / "checkpoint", path)
    manifest = json.loads((path / "manifest.json").read_text())
    edit(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest))
    return path


def test_a_manifest_without_the_dataset_signature_serves_as_before(
    run_dir, data_dir, tmp_path, capsys
):
    ckpt = _checkpoint_copy(run_dir, tmp_path / "checkpoint", lambda m: m.pop("dataset"))
    assert load_checkpoint(ckpt).dataset_signature is None
    _edited_meta_copy(data_dir, tmp_path / "relabelled", "external_schema", _day_types_reordered)
    want = _served(run_dir / "checkpoint", data_dir, tmp_path / "a", capsys)
    assert _served(ckpt, data_dir, tmp_path / "b", capsys) == want
    # nothing to compare the categories with, so the relabelled copy is served
    _served(ckpt, tmp_path / "relabelled", tmp_path / "c", capsys)


def test_a_manifest_without_split_fractions_evaluates_the_default_split(
    run_dir, data_dir, tmp_path, capsys
):
    def drop_fractions(manifest):
        config = manifest["train_config"]
        assert (config.pop("train_frac"), config.pop("val_frac")) == (
            TrainConfig.train_frac, TrainConfig.val_frac
        )

    ckpt = _checkpoint_copy(run_dir, tmp_path / "checkpoint", drop_fractions)
    want = _served(run_dir / "checkpoint", data_dir, tmp_path / "a", capsys)
    assert _served(ckpt, data_dir, tmp_path / "b", capsys) == want


def test_an_interval_that_does_not_divide_a_day_loads_and_evaluates(
    run_dir, data_dir, tmp_path, capsys
):
    path = tmp_path / "seven"
    _edited_meta_copy(data_dir, path, "interval_minutes", lambda _: 7)
    assert main(["inspect", "--data", str(path)]) == 0
    assert "interval 7 min" in capsys.readouterr().out
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint"), "--data", str(path),
                 "--out", str(tmp_path / "e")]) == 0
    assert main(["predict", "--checkpoint", str(run_dir / "checkpoint"), "--data", str(path),
                 "--at", "350"]) == 0
    assert "prediction for slot 50 (minute 350)" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
def test_a_non_finite_covariate_exits_2_naming_the_line(run_dir, data_dir, tmp_path, capsys, value):
    path = tmp_path / "bad"
    shutil.copytree(data_dir, path)
    lines = (path / "externals.csv").read_text().splitlines()
    lines[11] = ",".join(lines[11].split(",")[:2] + [value])
    (path / "externals.csv").write_text("\n".join(lines) + "\n")
    want = f"line 12: external field 'temperature': {value!r} is not a finite number"
    for argv in (["inspect", "--data", str(path)],
                 ["predict", "--checkpoint", str(run_dir / "checkpoint"),
                  "--data", str(path), "--at", "50"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "externals.csv" in err and want in err


# (file, bytes written over the middle of it, text the error must hold)
UNREADABLE_FILES = {
    "meta-not-utf8": ("meta.json", b"\xff", "invalid JSON ('utf-8' codec can't decode byte 0xff"),
    "edges-not-utf8": ("edges.csv", b"\xff", "cannot read as UTF-8 CSV ('utf-8' codec can't decode"),
    "externals-not-utf8": (
        "externals.csv", b"\xc3(", "cannot read as UTF-8 CSV ('utf-8' codec can't decode"
    ),
    "edges-field-over-limit": (
        "edges.csv", b"9" * (csv.field_size_limit() + 1), "cannot read as UTF-8 CSV (field larger"
    ),
    "externals-field-over-limit": (
        "externals.csv", b"a" * (csv.field_size_limit() + 1), "cannot read as UTF-8 CSV (field larger"
    ),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
def test_an_unreadable_dataset_file_exits_2_naming_it(run_dir, data_dir, tmp_path, capsys, case):
    name, token, want = UNREADABLE_FILES[case]
    path = tmp_path / "bad"
    shutil.copytree(data_dir, path)
    data = (path / name).read_bytes()
    middle = len(data) // 2
    (path / name).write_bytes(data[:middle] + token + data[middle + 1 :])
    for argv in (["inspect", "--data", str(path)],
                 ["predict", "--checkpoint", str(run_dir / "checkpoint"),
                  "--data", str(path), "--at", "50"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {path / name}: {want}" in err


# meta.json edits that loaded at 64 slots of 3 nodes and 3 channels: slot
# minutes that wrap past int64, and strings read as lists of characters;
# and a schema of no covariate fields, which was blamed on externals.csv
META_EDITS = {
    "interval-past-int64": ("interval_minutes", 10**18),
    "channel-names-string": ("channel_names", "fso"),
    "node-ids-string": ("node_ids", "abc"),
    "external-schema-empty": ("external_schema", []),
    "channel-names-short": ("channel_names", ["flow", "speed"]),
    "node-ids-repeated": ("node_ids", ["n0", "n0", "n1"]),
}


@pytest.mark.parametrize("command", ["inspect", "eval", "predict"])
@pytest.mark.parametrize("case", sorted(META_EDITS))
def test_metadata_the_series_cannot_hold_exits_2_naming_meta_json(
    run_dir, data_dir, tmp_path, capsys, command, case
):
    key, value = META_EDITS[case]
    path = tmp_path / "bad"
    _edited_meta_copy(data_dir, path, key, lambda _: value)
    argv = (["inspect", "--data", str(path)] if command == "inspect"
            else _checkpoint_command(command, run_dir / "checkpoint", path))
    if command == "eval":
        argv += ["--out", str(tmp_path / "e")]
    assert main(argv) == 2
    assert f"error: {path / 'meta.json'}: bad metadata (" in capsys.readouterr().err


def _damaged(data: bytes, kind: str, where: float, mask: int) -> bytes:
    """``data`` cut at ``where`` of its length, or with the byte there
    XORed with ``mask``."""
    at = min(int(where * len(data)), len(data) - 1)
    if kind == "cut":
        return data[:at]
    return data[:at] + bytes([data[at] ^ mask]) + data[at + 1 :]


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(["checkpoint/params.bin", "checkpoint/manifest.json", "data/signals.bin"]),
    kind=st.sampled_from(["cut", "flip"]),
    where=st.floats(0.0, 1.0),
    mask=st.integers(1, 255),
)
def test_a_damaged_checkpoint_or_series_loads_or_exits_2(run_dir, data_dir, name, kind, where, mask):
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, data = Path(tmp) / "checkpoint", Path(tmp) / "data"
        shutil.copytree(run_dir / "checkpoint", ckpt)
        shutil.copytree(data_dir, data)
        original = (Path(tmp) / name).read_bytes()
        damaged = _damaged(original, kind, where, mask)
        (Path(tmp) / name).write_bytes(damaged)
        try:
            load_dataset(data) if name.startswith("data/") else load_checkpoint(ckpt)
            refusal = None
        except LoadError as exc:
            refusal = f"error: {exc}"
        # a cut is refused, unless it took only the manifest's last newline
        if kind == "cut" and original[len(damaged) :] != b"\n":
            assert refusal is not None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["predict", "--checkpoint", str(ckpt), "--data", str(data), "--at", "50"])
        if refusal is None:
            assert code in (0, 2, 3), err.getvalue()
        else:
            assert code == 2 and refusal in err.getvalue()


# ------------------------------------------------------------- one process


def _env_with_src() -> dict:
    """The environment for a fresh ``python -m stgf.cli`` of this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_repeated_calls_in_one_process_match_fresh_processes(run_dir, data_dir, tmp_path, capsys):
    ckpt = str(run_dir / "checkpoint")
    calls = [
        ["predict", "--checkpoint"],
        ["predict", "--checkpoint", ckpt, "--data", str(data_dir), "--at", "50"],
        ["eval", "--checkpoint", ckpt, "--data", str(data_dir), "--out", str(tmp_path / "e")],
    ]
    env = _env_with_src()
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "stgf.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert fresh.returncode == 0 and "wrote" in fresh.stdout


def test_every_command_runs_without_the_locale_encoding(tmp_path):
    """Under ``-X warn_default_encoding`` a text file opened without an
    explicit encoding warns; here the warning is an error."""
    env = _env_with_src()
    data, run = tmp_path / "data", tmp_path / "run"
    ckpt = ["--checkpoint", str(run / "checkpoint"), "--data", str(data)]
    calls = [
        ["synth", "--seed", "3", "--nodes", "3", "--slots", "64", "--out", str(data)],
        ["train", "--data", str(data), "--out", str(run), *FAST_SET],
        ["eval", *ckpt],
        ["predict", *ckpt, "--at", "300"],
        ["inspect", *ckpt],
    ]
    for argv in calls:
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "stgf.cli", *argv],
            capture_output=True, encoding="utf-8", env=env, timeout=120,
        )
        assert done.returncode == 0, f"{argv[0]} exited {done.returncode}: {done.stderr}"


# ------------------------------------------------------------------ inspect


def test_inspect_dataset_and_checkpoint(run_dir, data_dir, capsys):
    assert main(["inspect", "--data", str(data_dir),
                 "--checkpoint", str(run_dir / "checkpoint")]) == 0
    out = capsys.readouterr().out
    assert "slots 64" in out
    assert "channel flow" in out
    assert "stgf-checkpoint-v1" in out
    assert "parameters" in out
    assert "  external day_type: categorical [weekday, weekend, holiday]\n" in out
    assert "  external temperature: continuous\n" in out
    assert "externals (" not in out
    assert "  dataset signature: 3 nodes, 3 channels, 3 covariate fields\n" in out


def test_inspect_says_when_a_checkpoint_has_no_dataset_signature(run_dir, tmp_path, capsys):
    ckpt = _checkpoint_copy(run_dir, tmp_path / "checkpoint", lambda m: m.pop("dataset"))
    assert main(["inspect", "--checkpoint", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "  dataset signature: none recorded, so eval and predict cannot check the dataset\n" in out


def test_inspect_prints_the_seed_a_manifest_without_one_loads_with(run_dir, tmp_path, capsys):
    ckpt = _checkpoint_copy(run_dir, tmp_path / "checkpoint", lambda m: m["train_config"].pop("seed"))
    assert main(["inspect", "--checkpoint", str(ckpt)]) == 0
    assert "  variant full, seed 0\n" in capsys.readouterr().out


def test_inspect_needs_an_argument(capsys):
    assert main(["inspect"]) == 1
