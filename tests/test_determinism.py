"""Determinism as a standing test: a short criterion-4 flow writes the same
bytes on every run, and the bytes recorded in ``golden/criterion4_flow.json``.

The flow is ``stgf synth`` (10-node ring, 2016 slots), 3 epochs of
``stgf train`` at the criterion-4 widths, ``stgf eval`` on the test split
and one ``stgf predict``. The golden file holds the SHA-256 of every
artifact whose bytes name no path (the four dataset files, ``params.bin``,
``loss_curve.csv``, ``metrics.json`` and ``predictions.csv``) and of each
command's stdout with the run's root directory replaced by ``<root>``. It
also records the numeric environment that wrote them: the NumPy version,
the BLAS build and the CPU architecture. Another environment may round
differently, so there the test skips only the golden comparison, naming
the difference; two runs in fresh directories must still agree byte for
byte. The flow also writes the same bytes at one and at two OpenBLAS
threads, each run in a fresh process started with that thread count and
with Python's ``EncodingWarning`` raised as an error, so a text file the
package opens without ``encoding="utf-8"`` fails the test.

After a change meant to change these bytes, rewrite the golden file with

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

from stgf.cli import main

GOLDEN = Path(__file__).parent / "golden" / "criterion4_flow.json"

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


def numeric_environment() -> dict:
    """What decides how floating point rounds: NumPy, its BLAS, the CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # a NumPy without the dict form, or no BLAS entry
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name, "machine": platform.machine()}


def flow_digests(root: Path) -> dict:
    """Run the flow under ``root``; the SHA-256 of each artifact and stdout."""
    data, run = root / "data", root / "run"
    commands = {
        "synth": ["synth", "--seed", "7", "--nodes", "10", "--slots", "2016",
                  "--topology", "ring", "--out", str(data)],
        "train": ["train", "--data", str(data), "--out", str(run), *CRITERION_4],
        "eval": ["eval", "--checkpoint", str(run / "checkpoint"), "--data", str(data),
                 "--split", "test"],
        # the last slot, which the test split holds
        "predict": ["predict", "--checkpoint", str(run / "checkpoint"), "--data", str(data),
                    "--at", str(2015 * 5)],
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
    return digests


def test_the_criterion_4_flow_writes_the_golden_bytes(tmp_path):
    first = flow_digests(tmp_path / "a")
    second = flow_digests(tmp_path / "b")
    assert first == second, "two runs of the same flow wrote different bytes"

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = numeric_environment()
    differs = {k: (v, here.get(k)) for k, v in golden["environment"].items() if here.get(k) != v}
    if differs:
        pytest.skip(f"golden digests were recorded in another numeric environment: {differs}")
    changed = [k for k in golden["digests"] if first.get(k) != golden["digests"][k]]
    assert first == golden["digests"], f"bytes differ from the golden file: {changed}"


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
    assert sorted(digests["1"]) == sorted([*ARTIFACTS, *(f"{c} stdout" for c in
                                           ("synth", "train", "eval", "predict"))])
    changed = [k for k in digests["1"] if digests["1"][k] != digests["2"][k]]
    assert changed == [], f"1 and 2 BLAS threads wrote different bytes: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        record = {"environment": numeric_environment(), "digests": flow_digests(Path(scratch))}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
