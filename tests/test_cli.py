"""End-to-end command-line tests driving main() in process."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stgf.checkpoint import load_checkpoint
from stgf.cli import build_run_config, main
from stgf.data import load_dataset, save_dataset
from stgf.errors import ValidationError
from test_checkpoint import MALFORMED_MANIFESTS, MISFITTING_TABLES, rewrite_table

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
    "entry", ["train.clip_norm=NaN", "train.epsilon=Infinity", "train.learning_rate=NaN"]
)
def test_train_refuses_a_non_finite_setting_with_exit_2(tmp_path, data_dir, capsys, entry):
    code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                 *FAST_SET, "--set", entry])
    assert code == 2
    field = entry.split(".")[1].split("=")[0]
    assert f"{field} must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "r" / "loss_curve.csv").exists()


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
    _, rows = evaluate(ckpt.params, ckpt.model_config, ckpt.stats, dataset, chosen)
    want = ["timestamp,node_id,y_true,y_pred"] + [
        f"{r.timestamp_minutes},{r.node_id},{r.y_true!r},{r.y_pred!r}" for r in rows
    ]
    assert (out / "predictions.csv").read_text() == "\n".join(want) + "\n"


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
    assert "model expects 3 channels, dataset has 2" in capsys.readouterr().err


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
    assert "model expects 3 nodes, dataset has 4" in capsys.readouterr().err


@pytest.mark.parametrize("edit", MALFORMED_MANIFESTS.values(), ids=MALFORMED_MANIFESTS)
def test_predict_with_a_malformed_manifest_exits_2(run_dir, data_dir, tmp_path, capsys, edit):
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(run_dir / "checkpoint", ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    (ckpt / "manifest.json").write_text(json.dumps(edit(manifest)))
    code = main(["predict", "--checkpoint", str(ckpt), "--data", str(data_dir), "--at", "50"])
    assert code == 2
    assert "manifest.json" in capsys.readouterr().err


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


def test_set_refuses_a_bool_for_a_float_key():
    with pytest.raises(ValidationError, match="train.learning_rate"):
        build_run_config(None, None, ["train.learning_rate=true"])
    assert build_run_config(None, None, ["train.learning_rate=1"])["train.learning_rate"] == 1.0


def test_predict_channel_mismatch_exits_2(run_dir, two_channel_dir, capsys):
    code = main(["predict", "--checkpoint", str(run_dir / "checkpoint"),
                 "--data", str(two_channel_dir), "--at", "50"])
    assert code == 2
    assert "model expects 3 channels, dataset has 2" in capsys.readouterr().err


def _reordered_copy(data_dir, path, order):
    """A copy of the dataset directory holding the covariate fields ``order``
    picks, in that order."""
    shutil.copytree(data_dir, path)
    meta = json.loads((path / "meta.json").read_text())
    meta["external_schema"] = [meta["external_schema"][k] for k in order]
    (path / "meta.json").write_text(json.dumps(meta))
    rows = [row.split(",") for row in (path / "externals.csv").read_text().splitlines()]
    (path / "externals.csv").write_text("".join(",".join(r[k] for k in order) + "\n" for r in rows))


# covariate fields the default-schema checkpoint cannot read
MISMATCHED_SCHEMAS = {
    "weather-first": (
        (1, 0, 2),
        "model expects categorical covariate 0 to have 3 categories, "
        "dataset's ('weather') has 4",
    ),
    # the continuous field first is served, but the categorical fields are
    # swapped behind it, and that is still caught
    "temperature-first": (
        (2, 1, 0),
        "model expects categorical covariate 0 to have 3 categories, "
        "dataset's ('weather') has 4",
    ),
    "no-temperature": (
        (0, 1),
        "model expects 2 categorical and 1 continuous covariates, dataset has 2 and 0",
    ),
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
    ckpt = str(run_dir / "checkpoint")
    outputs = []
    for data in (data_dir, tmp_path / "reordered"):
        out = tmp_path / f"eval-{data.name}"
        assert main(["eval", "--checkpoint", ckpt, "--data", str(data), "--out", str(out)]) == 0
        assert main(["predict", "--checkpoint", ckpt, "--data", str(data), "--at", "50"]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        files = [(out / name).read_bytes() for name in ("metrics.json", "predictions.csv")]
        outputs.append((stdout, files))
    assert outputs[0] == outputs[1]


def test_a_continuous_field_first_trains_like_the_original(run_dir, data_dir, tmp_path):
    _reordered_copy(data_dir, tmp_path / "reordered", (2, 0, 1))
    out = tmp_path / "r"
    assert main(["train", "--data", str(tmp_path / "reordered"), "--out", str(out),
                 *FAST_SET]) == 0
    for name in ("loss_curve.csv", "checkpoint/params.bin"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


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


# ------------------------------------------------------------- one process


def test_repeated_calls_in_one_process_match_fresh_processes(run_dir, data_dir, tmp_path, capsys):
    ckpt = str(run_dir / "checkpoint")
    calls = [
        ["predict", "--checkpoint"],
        ["predict", "--checkpoint", ckpt, "--data", str(data_dir), "--at", "50"],
        ["eval", "--checkpoint", ckpt, "--data", str(data_dir), "--out", str(tmp_path / "e")],
    ]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "stgf.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert fresh.returncode == 0 and "wrote" in fresh.stdout


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


def test_inspect_needs_an_argument(capsys):
    assert main(["inspect"]) == 1
