"""The benchmark's workloads: inputs, set-up, timed units and output checks.

Every workload runs the same two kinds of unit on its own input shape, so
every end-to-end metric is measured on every workload; what differs is the
shape and how the run's seconds are shared between the units:

- a train unit is one ``stgf.train()`` call with checkpointing on;
- a serve round is one in-process ``stgf eval --split test`` followed by
  ``stgf predict`` calls, all against the checkpoint that set-up wrote.

Units are short and many, and a timing metric reads the slow end of their
distribution (the 95th percentile of call times). A shared host alternates
between a fast and a slow state, up to 2x apart, in spells of seconds to
minutes, and the share of fast time changes from run to run. A total over
the run, a median or a fastest call reads that share; a high percentile of
many short calls reads the slow state whenever it holds for a twentieth of
the run (see README.md).

All stgf calls go through module attributes (``stgf.train``,
``stgf.cli.main``), which is where the traced run hooks in.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import stgf
import stgf.cli

# criterion-4 model widths
SMALL_MODEL = {"gcn_dims": (8, 16), "lstm_layers": 1, "lstm_hidden": 32, "embed_dim": 4}
SMOKE_MODEL = {"gcn_dims": (4, 8), "lstm_layers": 2, "lstm_hidden": 8, "embed_dim": 2}

SETUP_REPEATS = 21


@dataclass(frozen=True)
class Workload:
    """One input shape plus the mix of training and serving calls run on it."""

    n_nodes: int
    n_slots: int
    topology: str
    model: dict  # ModelConfig fields besides the dataset geometry
    train: dict  # TrainConfig fields of each train() call
    train_share: float  # share of the run's seconds given to train units
    predicts_per_eval: int
    # train/val fractions the serve checkpoint records; eval and predict
    # serve the test windows that remain
    serve_split: tuple[float, float] = (0.7, 0.1)
    predict_slots: int = 5  # distinct test slots predict cycles through


# 96 train and 60 validation windows of 2013: a train() call takes under a
# second and makes three full batches, so two step gaps; the best
# validation MSE (early in training) varies by 4% between seeds, where a 10%
# train split makes it vary by 20%
SMALL_TRAIN = {"epochs": 1, "train_frac": 0.048, "val_frac": 0.03}
# about 100 test windows, so an eval call takes a few tenths of a second
SMALL_SERVE_SPLIT = (0.9, 0.05)
# 4 train and 3 validation windows of 61: a call takes under a second and
# the best validation MSE varies by 3% between seeds; batch 2 gives two Adam
# steps
PAPER_TRAIN = {"epochs": 1, "batch_size": 2, "train_frac": 0.07, "val_frac": 0.05}

WORKLOADS = {
    # criterion-4 shapes: 0.46 MFLOP of matmul per sample, so the time goes to
    # per-node interpreter overhead in the tape. Half the run is serve rounds,
    # the forward-only CLI path where data, checkpoint and cli do the work.
    "train-small": Workload(10, 2016, "ring", SMALL_MODEL, SMALL_TRAIN, 0.5, 5, SMALL_SERVE_SPLIT),
    # paper-default model on a PEMS08-sized grid: BLAS and grad-buffer
    # allocation dominate
    "train-paper": Workload(170, 64, "grid", {}, PAPER_TRAIN, 0.55, 4, predict_slots=4),
}


def smoke(workload: Workload) -> Workload:
    """The same workload at a size that runs in a second or two."""
    return replace(
        workload,
        n_nodes=min(workload.n_nodes, 6),
        n_slots=64,
        model=SMOKE_MODEL,
        predicts_per_eval=3,
        predict_slots=3,
    )


@dataclass
class Ledger:
    """Operations attempted and failed, and how often each check held."""

    attempted: int = 0
    failed: int = 0
    passed: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def model_config_for(dataset, model: dict):
    """ModelConfig for a dataset's geometry plus the workload's widths."""
    fields = dataset.external_fields
    return stgf.ModelConfig(
        n_nodes=dataset.n_nodes,
        n_channels=dataset.n_channels,
        external_cardinalities=tuple(len(f.categories) for f in fields if f.kind == "categorical"),
        external_continuous=sum(1 for f in fields if f.kind == "continuous"),
        **model,
    )


def read_predictions(path: Path) -> dict[tuple[int, str], tuple[float, float]]:
    """``predictions.csv`` as (timestamp, node id) -> (y_true, y_pred)."""
    with open(path, newline="") as fh:
        rows = csv.DictReader(fh)
        return {
            (int(r["timestamp"]), r["node_id"]): (float(r["y_true"]), float(r["y_pred"]))
            for r in rows
        }


def check_predict_rows(
    stdout: str, table: dict[tuple[int, str], tuple[float, float]], at: int, n_nodes: int
) -> str | None:
    """Compare ``stgf predict`` output with eval's rows for the same slot.

    Returns a description of the first mismatch, or None when every node's
    printed prediction and truth equal the CSV values at 3 decimals.
    """
    rows = stdout.splitlines()[2:]
    if len(rows) != n_nodes:
        return f"predict --at {at}: {len(rows)} rows for {n_nodes} nodes"
    for row in rows:
        node, y_pred, y_true = row.split()
        expected = table.get((at, node))
        if expected is None:
            return f"predict --at {at}: node {node} has no row in predictions.csv"
        if (y_pred, y_true) != (f"{expected[1]:.3f}", f"{expected[0]:.3f}"):
            return f"predict --at {at}: node {node} printed {y_pred}/{y_true}, csv has {expected}"
    return None


def rate_p5(runs: list[tuple]) -> float:
    """5th percentile of windows per second over (seconds, windows, ...)
    records: the rate 19 calls in 20 reach."""
    if not runs:
        return 0.0
    return float(np.percentile([r[1] / r[0] for r in runs], 5))


class Session:
    """One workload's inputs and measurements, under one directory."""

    def __init__(self, workload: Workload, seed: int, root: Path, ledger: Ledger) -> None:
        self.workload = workload
        self.seed = seed
        self.root = root
        self.ledger = ledger
        self.train_runs: list[tuple[float, int, float]] = []  # seconds, windows, best val
        self.eval_runs: list[tuple[float, int]] = []  # seconds, windows
        self.predict_ms: dict[int, list[float]] = {}  # per slot, every call
        self._slots: list[int] = []
        self._table: dict | None = None  # the first eval's predictions.csv

    # ------------------------------------------------------------------ set-up

    def setup(self) -> float:
        """Generate, save and load the dataset, window it, initialise params
        and write the checkpoint serve rounds read. Returns its seconds."""
        shutil.rmtree(self.root, ignore_errors=True)
        w = self.workload
        start = time.perf_counter()
        stgf.generate_synthetic(
            self.root / "data", seed=self.seed, n_nodes=w.n_nodes, n_slots=w.n_slots,
            topology=w.topology,
        )
        self.dataset = stgf.load_dataset(self.root / "data")
        self.model_config = model_config_for(self.dataset, w.model)
        train_frac, val_frac = w.serve_split
        serve = stgf.TrainConfig(train_frac=train_frac, val_frac=val_frac)
        self.prepared = stgf.prepare_samples(
            self.dataset, self.model_config.window, serve.train_frac, serve.val_frac
        )
        self.params = stgf.init_params(self.model_config, np.random.default_rng(serve.seed))
        stgf.save_checkpoint(
            self.params, self.model_config, serve.to_dict(), self.prepared.stats,
            self.root / "checkpoint",
        )
        return time.perf_counter() - start

    # ------------------------------------------------------------------ units

    def run(self, seconds: float, setups: int) -> list[float]:
        """Interleave train units and serve rounds for ``seconds``, with
        ``setups`` set-ups spread evenly over the run. Returns their times.

        Of the units whose median duration still fits, the next is the one
        furthest below its share of the time spent so far. So every metric
        samples the whole run rather than one stretch of it, and the
        machine's slow and fast spells weigh on all of them alike. Each unit
        runs at least once.
        """
        share = {
            self.train_once: self.workload.train_share,
            self.serve_round: 1.0 - self.workload.train_share,
        }
        spent = dict.fromkeys(share, 0.0)
        durations: dict = {unit: [] for unit in share}
        setup_s: list[float] = []
        start = time.perf_counter()
        while True:
            due = 1 + (setups - 1) * min((time.perf_counter() - start) / seconds, 1.0)
            while len(setup_s) < min(due, setups):
                setup_s.append(self.setup())
            left = seconds - (time.perf_counter() - start)
            ready = [
                u for u in share if not durations[u] or statistics.median(durations[u]) <= left
            ]
            if not ready:
                break
            unit = min(ready, key=lambda u: spent[u] / share[u])
            began = time.perf_counter()
            unit()
            durations[unit].append(time.perf_counter() - began)
            spent[unit] += durations[unit][-1]
        while len(setup_s) < setups:
            setup_s.append(self.setup())
        return setup_s

    def train_once(self) -> None:
        config = stgf.TrainConfig(
            **self.workload.train, checkpoint_dir=str(self.root / "train-checkpoint")
        )
        self.ledger.attempted += 1
        start = time.perf_counter()
        try:
            result = stgf.train(self.dataset, self.model_config, config)
        except stgf.StgfError as exc:
            self.ledger.fail(f"train raised {exc!r}")
            return
        seconds = time.perf_counter() - start
        losses = [v for r in result.curve for v in (r.train_mse, r.val_mse)]
        if not all(math.isfinite(v) for v in losses):
            self.ledger.fail(f"train returned non-finite losses {losses}")
            return
        self.ledger.passed["finite_losses"] += 1
        if self.train_runs and result.best_val_mse != self.train_runs[0][2]:
            self.ledger.fail(
                f"train returned val_mse {result.best_val_mse!r}, "
                f"the run's first call {self.train_runs[0][2]!r}"
            )
            return
        self.ledger.passed["train_repeatable"] += 1
        windows = len(result.prepared.train) * config.epochs
        self.train_runs.append((seconds, windows, result.best_val_mse))

    def _cli(self, *argv: str) -> tuple[int, str, str, float]:
        """One in-process CLI call: exit code, stdout, stderr, seconds."""
        out, err = io.StringIO(), io.StringIO()
        self.ledger.attempted += 1
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = stgf.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - start

    def serve_round(self) -> None:
        data, ckpt = str(self.root / "data"), str(self.root / "checkpoint")
        out_dir = self.root / "eval"
        code, _, err, seconds = self._cli(
            "eval", "--checkpoint", ckpt, "--data", data, "--split", "test", "--out", str(out_dir)
        )
        if code != 0:
            self.ledger.fail(f"eval exited {code}: {err.strip()}")
            return
        table = read_predictions(out_dir / "predictions.csv")
        n_nodes = self.dataset.n_nodes
        expected = len(self.prepared.test) * n_nodes
        if len(table) != expected:
            self.ledger.fail(f"eval wrote {len(table)} prediction rows, expected {expected}")
            return
        self.ledger.passed["eval_rows"] += 1
        if self._table is None:
            self._table = table
        elif table != self._table:
            self.ledger.fail("eval wrote other predictions than the run's first eval")
            return
        self.ledger.passed["eval_repeatable"] += 1
        self.eval_runs.append((seconds, len(self.prepared.test)))

        for _ in range(self.workload.predicts_per_eval):
            at = self._next_slot(table)
            latencies = self.predict_ms.setdefault(at, [])
            code, out, err, seconds = self._cli(
                "predict", "--checkpoint", ckpt, "--data", data, "--at", str(at)
            )
            problem = (
                f"predict --at {at} exited {code}: {err.strip()}"
                if code
                else check_predict_rows(out, table, at, n_nodes)
            )
            if problem:
                self.ledger.fail(problem)
                # a failed call misses every latency limit
                latencies.append(math.inf)
            else:
                self.ledger.passed["predict_rows"] += n_nodes
                latencies.append(seconds * 1e3)

    def _next_slot(self, table) -> int:
        """``predict_slots`` test-split timestamps, chosen and ordered by the
        seed, each used once per cycle."""
        if not self._slots:
            stamps = sorted({at for at, _ in table})
            chosen = np.random.default_rng(self.seed).permutation(stamps)
            self._slots = [int(at) for at in chosen[: self.workload.predict_slots]]
        return self._slots.pop()

    # ---------------------------------------------------------------- results

    def end_to_end(self, setup_s: list[float]) -> dict[str, float]:
        # A slot's predict latency is the 95th percentile of its calls,
        # spread over the run, and p50 and p90 are taken over the slots. A
        # slot with a failed call stays at inf, which "higher" never
        # interpolates away.
        slots = [
            float(np.percentile(calls, 95)) if math.inf not in calls else math.inf
            for calls in self.predict_ms.values()
        ] or [math.inf]
        return {
            "setup_s": statistics.median(setup_s),
            "train_samples_per_s": rate_p5(self.train_runs),
            "val_mse": self.train_runs[0][2] if self.train_runs else math.inf,
            "eval_samples_per_s": rate_p5(self.eval_runs),
            "predict_ms_p50": float(np.percentile(slots, 50, method="higher")),
            "predict_ms_p90": float(np.percentile(slots, 90, method="higher")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def sample_tape(self):
        """One training sample's finished tape: forward, loss and backward."""
        sample = self.prepared.train[0]
        local_norm = stgf.normalize_adjacency(stgf.build_local_adjacency(self.dataset.graph))
        tape = stgf.Tape()
        pred = stgf.model_forward(
            tape, self.params, sample.x, sample.external, local_norm, self.model_config
        )
        tape.backward(tape.mse_loss(pred, tape.constant(sample.y_norm)))
        return tape
