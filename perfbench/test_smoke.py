"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import stgf  # noqa: E402
from tracing import SpanIndex, tape_counts  # noqa: E402
from workloads import check_predict_rows  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_emits_every_metric_and_runs_the_checks(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--smoke",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    declared = BENCH["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
        assert any(line.split()[:1] == [name] and line.endswith(units[name]) for line in lines)

    checks = json.loads(next(line for line in lines if line.startswith("checks "))[7:])
    assert checks["finite_losses"] >= 1
    assert checks["train_repeatable"] >= 1
    assert checks["eval_rows"] >= 1
    assert checks["eval_repeatable"] >= 1
    assert checks["predict_rows"] >= 1
    if trace:
        assert checks["traced_val_mse_equal"] == 1


def test_predict_check_finds_the_first_mismatch():
    table = {(600, "n000"): (10.0, 12.3456), (600, "n001"): (11.0, 13.0)}
    out = (
        "prediction for slot 120 (minute 600)\n"
        "node y_pred y_true\n"
        "n000 12.346 10.000\n"
        "n001 13.000 11.000\n"
    )
    assert check_predict_rows(out, table, 600, 2) is None
    assert "n001" in check_predict_rows(out.replace("13.000", "13.001"), table, 600, 2)
    assert "3 nodes" in check_predict_rows(out, table, 600, 3)
    assert "no row" in check_predict_rows(out, table, 900, 2)


def test_tape_counts_read_the_finished_tape():
    tape = stgf.Tape()
    tape.matmul(tape.constant(np.ones((2, 3))), tape.constant(np.ones((3, 4))))
    counts = tape_counts(tape, [], SpanIndex([]))
    assert counts["autodiff.nodes_per_sample"] == 3
    assert counts["autodiff.matmul_mflop_per_sample"] == 2 * 2 * 3 * 4 / 1e6
    assert counts["autodiff.leaf_copy_bytes_per_sample"] == (6 + 12) * 8
    assert counts["autodiff.grad_bytes_per_sample"] == (6 + 12 + 8) * 8

    # nodes without a grad buffer count 0 grad bytes
    bare = SimpleNamespace(
        nodes=[SimpleNamespace(op=n.op, input_ids=n.input_ids, value=n.value) for n in tape.nodes]
    )
    assert tape_counts(bare, [], SpanIndex([]))["autodiff.grad_bytes_per_sample"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    proc = run_bench(tmp_path, "--workload", "train-small", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
