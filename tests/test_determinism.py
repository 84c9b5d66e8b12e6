"""Determinism as a standing test: two short flows write the same bytes on
every run, and the bytes recorded in their golden files.

Each flow is ``stgf synth``, ``stgf train``, ``stgf eval`` on the test
split and one ``stgf predict``. The criterion-4 flow
(``golden/criterion4_flow.json``) trains 3 epochs at the criterion-4
widths on a 10-node ring of 2016 slots. The paper flow
(``golden/paper_flow.json``) trains 1 epoch at batch 2 with the paper's
default model (``gcn_dims`` 16/32/64, a 2 x 256 LSTM) on a 20-node grid of
64 slots, so the two-layer, H = 256 LSTM backward is held to its bytes too.
A golden file holds the SHA-256 of every artifact whose bytes name no path
(the four dataset files, ``params.bin``, ``loss_curve.csv``,
``metrics.json`` and ``predictions.csv``), of each command's stdout with
the run's root directory replaced by ``<root>``, and of one training
batch's gradient at the saved parameters. It also records the
numeric environment that wrote them: the NumPy version, the BLAS build and
the CPU architecture. Another environment may round differently, so there
the test skips only the golden comparison, naming the difference; two runs
in fresh directories must still agree byte for byte. The criterion-4 flow
also writes the same bytes at one and at two OpenBLAS threads, each run in
a fresh process started with that thread count and with Python's
``EncodingWarning`` raised as an error, so a text file the package opens
without ``encoding="utf-8"`` fails the test. The paper flow also runs with
the byte budget lowered so that each training batch runs as two tapes and
each forecast split as several chunks; that path has no golden file, and
two runs must agree byte for byte.

After a change meant to change these bytes, rewrite both golden files with

    PYTHONPATH=src python tests/test_determinism.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stgf import (
    Tape,
    build_local_adjacency,
    load_checkpoint,
    load_dataset,
    model_forward,
    normalize_adjacency,
    prepare_samples,
)
from stgf.cli import main
from stgf.model import ModelConfig
import stgf.training
from stgf.training import forecast_chunk, tape_bytes, tape_windows

GOLDEN_DIR = Path(__file__).parent / "golden"

CRITERION_4 = [
    "--set", "model.window=3",
    "--set", "model.gcn_dims=[8, 16]",
    "--set", "model.lstm_layers=1",
    "--set", "model.lstm_hidden=32",
    "--set", "model.embed_dim=4",
    "--set", "model.external_hidden=8",
    "--set", "train.epochs=3",
    "--set", "train.batch_size=32",
    "--set", "train.learning_rate=0.001",
    "--set", "train.seed=1",
]

ARTIFACTS = (
    "data/meta.json",
    "data/signals.bin",
    "data/edges.csv",
    "data/externals.csv",
    "run/checkpoint/params.bin",
    "run/loss_curve.csv",
    "run/metrics.json",
    "run/predictions.csv",
)
GRADIENT = "gradient at the checkpoint"


def numeric_environment() -> dict:
    """What decides how floating point rounds: NumPy, its BLAS, the CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # a NumPy without the dict form, or no BLAS entry
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name, "machine": platform.machine()}


# the paper's default model; only the run is short
PAPER = [
    "--set", "train.epochs=1",
    "--set", "train.batch_size=2",
    "--set", "train.seed=1",
]

# name -> (synth arguments, train arguments, slots); the golden file is
# golden/<name>_flow.json
FLOWS = {
    "criterion4": (["--seed", "7", "--nodes", "10", "--topology", "ring"], CRITERION_4, 2016),
    "paper": (["--seed", "3", "--nodes", "20", "--topology", "grid"], PAPER, 64),
}


def flow_digests(root: Path, flow: str = "criterion4") -> dict:
    """Run a flow under ``root``; the SHA-256 of each artifact and stdout."""
    synth, train, slots = FLOWS[flow]
    data, run = root / "data", root / "run"
    commands = {
        "synth": ["synth", *synth, "--slots", str(slots), "--out", str(data)],
        "train": ["train", "--data", str(data), "--out", str(run), *train],
        "eval": ["eval", "--checkpoint", str(run / "checkpoint"), "--data", str(data),
                 "--split", "test"],
        # the last slot, which the test split holds
        "predict": ["predict", "--checkpoint", str(run / "checkpoint"), "--data", str(data),
                    "--at", str((slots - 1) * 5)],
    }
    digests = {}
    for name, argv in commands.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, f"{name} exited {code}"
        text = out.getvalue().replace(str(root), "<root>")
        digests[f"{name} stdout"] = hashlib.sha256(text.encode()).hexdigest()
    for artifact in ARTIFACTS:
        digests[artifact] = hashlib.sha256((root / artifact).read_bytes()).hexdigest()
    digests[GRADIENT] = hashlib.sha256(checkpoint_gradient(data, run).tobytes()).hexdigest()
    return digests


def checkpoint_gradient(data: Path, run: Path) -> np.ndarray:
    """The flat gradient of the mean training loss of the first training
    batch at the saved parameters. Adam's first steps are nearly blind to a
    gradient's scale, so a backward that rounds one ulp differently may
    leave ``params.bin`` unchanged; this digest holds the backward itself."""
    ckpt = load_checkpoint(run / "checkpoint")
    dataset = load_dataset(data)
    config = ckpt.train_config
    prepared = prepare_samples(
        dataset, ckpt.model_config.window, config["train_frac"], config["val_frac"]
    )
    windows = prepared.train[np.arange(config["batch_size"])]
    slots, index, external = windows.inputs()
    local_norm = normalize_adjacency(build_local_adjacency(dataset.graph))
    tape = Tape()
    pred = model_forward(tape, ckpt.params, slots, external, local_norm, ckpt.model_config, index)
    tape.backward(tape.mean(tape.mse_per_sample(pred, tape.constant(windows.y_norm))))
    grad = np.zeros_like(ckpt.params.values)
    tape.accumulate_param_grads(ckpt.params, ckpt.params.split(grad))
    return grad


def check_golden(tmp_path: Path, flow: str) -> None:
    first = flow_digests(tmp_path / "a", flow)
    second = flow_digests(tmp_path / "b", flow)
    assert first == second, "two runs of the same flow wrote different bytes"

    golden = json.loads((GOLDEN_DIR / f"{flow}_flow.json").read_text(encoding="utf-8"))
    here = numeric_environment()
    differs = {k: (v, here.get(k)) for k, v in golden["environment"].items() if here.get(k) != v}
    if differs:
        pytest.skip(f"golden digests were recorded in another numeric environment: {differs}")
    changed = [k for k in golden["digests"] if first.get(k) != golden["digests"][k]]
    assert first == golden["digests"], f"bytes differ from the golden file: {changed}"


def test_the_criterion_4_flow_writes_the_golden_bytes(tmp_path):
    check_golden(tmp_path, "criterion4")


def test_the_paper_flow_writes_the_golden_bytes(tmp_path):
    check_golden(tmp_path, "paper")


def test_the_paper_flow_with_split_batches_and_chunks_writes_the_same_bytes_twice(
    tmp_path, monkeypatch
):
    # a budget of one window: each batch of 2 runs as two tapes, and eval's
    # 13 test windows as chunks of 4. No golden file: the golden files hold
    # the one-tape, one-chunk path
    config = ModelConfig(n_nodes=20)
    monkeypatch.setattr(stgf.training, "PASS_BYTES", tape_bytes(config))
    assert tape_windows(config) == 1 and forecast_chunk(config) == 4
    first = flow_digests(tmp_path / "a", "paper")
    assert first == flow_digests(tmp_path / "b", "paper")


def test_one_and_two_blas_threads_write_the_same_bytes(tmp_path):
    # BLAS reads its thread count once, when NumPy loads, so each count
    # needs its own process; the two run side by side, and a text file
    # opened in the locale's encoding fails them
    tests = Path(__file__).parent
    script = (
        "import json, sys; from pathlib import Path; from test_determinism import flow_digests; "
        "print(json.dumps(flow_digests(Path(sys.argv[1]))))"
    )
    pythonpath = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                               os.environ.get("PYTHONPATH")]))
    runs = {
        threads: subprocess.Popen(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", script, str(tmp_path / threads)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": pythonpath},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for threads in ("1", "2")
    }
    digests = {}
    try:
        for threads, run in runs.items():
            out, err = run.communicate(timeout=300)
            assert run.returncode == 0, err
            digests[threads] = json.loads(out)
    finally:
        for run in runs.values():
            run.kill()  # does nothing to a process that has exited
    assert sorted(digests["1"]) == sorted([*ARTIFACTS, GRADIENT, *(f"{c} stdout" for c in
                                           ("synth", "train", "eval", "predict"))])
    changed = [k for k in digests["1"] if digests["1"][k] != digests["2"][k]]
    assert changed == [], f"1 and 2 BLAS threads wrote different bytes: {changed}"


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in FLOWS:
        with tempfile.TemporaryDirectory() as scratch:
            record = {"environment": numeric_environment(),
                      "digests": flow_digests(Path(scratch), name)}
        golden = GOLDEN_DIR / f"{name}_flow.json"
        golden.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {golden}", file=sys.stderr)
