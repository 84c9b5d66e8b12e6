"""Optimization loop, optimizer, metrics, and the historical-average baseline.

Training iterates seeded-shuffled mini-batches of windows. A split is a
``WindowSet``: target slots over the dataset's series, so a batch is an
integer array of windows, and ``WindowSet.inputs`` turns it into the
distinct normalized slots those windows read plus each window's index into
them. One byte budget, ``PASS_BYTES``, bounds every pass. A mini-batch of B
windows runs forward on tapes of at most ``tape_windows`` windows each
(one tape when the batch fits), and each tape yields its vector of
per-sample losses; its backward seeds every loss with 1/B, so the tapes'
gradients add up to the gradient of the mean per-sample loss, and batch
size 1 recovers plain per-slot updates. The optimizer works on whole
vectors laid out like ``ModelParams.values``: each tape adds its parameter
gradients into one flat gradient vector, which is then clipped and takes
one Adam step with moment vectors ``m`` and ``v``; the best-epoch snapshot
is one copy of the parameter vector. The LSTM's gates and cell states come
from one ``Workspace`` that each tape of an epoch reuses after the previous
tape's backward; it is released before the validation pass. Evaluation runs
forward only on tapes that record nothing, in chunks of ``forecast_chunk``
windows, so a criterion-4 split is one pass while a paper-default pass holds
4 windows; it builds its metrics and prediction table from arrays. Losses
are computed on normalized targets; reported evaluation metrics are always
on the raw flow scale. Training and evaluation first refuse, with
``data.check_fits``, a dataset whose fixed model fields differ from the
model config's.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tape, Workspace, scatter_add
from .checkpoint import save_checkpoint
from .data import (
    MINUTES_PER_DAY,
    NormStats,
    PreparedData,
    SignalDataset,
    WindowSet,
    check_fits,
    dataset_signature,
    minmax_invert,
    prepare_samples,
)
from .errors import NumericalError, ValidationError
from .graphs import build_local_adjacency, normalize_adjacency
from .model import ModelConfig, ModelParams, TrainConfig, init_params, model_forward


@dataclass
class Metrics:
    """Raw-scale error summary over every (sample, node) entry."""

    rmse: float
    mae: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError("metrics need at least one prediction")
        if not (self.rmse >= self.mae >= 0.0):
            raise ValidationError(f"rmse {self.rmse} must be >= mae {self.mae} >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


def compute_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> Metrics:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ValidationError(f"metric shapes differ: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValidationError("metrics need at least one prediction")
    err = (y_pred - y_true).reshape(-1)
    mae = float(np.mean(np.abs(err)))
    # the true rmse is never below mae; equal-magnitude errors can round it
    # one ulp under
    rmse = max(float(np.sqrt(np.mean(err**2))), mae)
    return Metrics(rmse=rmse, mae=mae, count=int(err.size))


# -------------------------------------------------------------- optimization


@dataclass
class AdamState:
    """First/second moment vectors, laid out like ``ModelParams.values``."""

    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(step=0, m=np.zeros_like(params.values), v=np.zeros_like(params.values))


def _check_finite(params: ModelParams, grad: np.ndarray, where: str = "") -> None:
    if not np.all(np.isfinite(grad)):
        bad = next(p for p, g in zip(params, params.split(grad)) if not np.all(np.isfinite(g)))
        raise NumericalError(f"non-finite gradient for parameter {bad.name!r}{where}")


# entries per block of an Adam update: 256 KB per float64 temporary
ADAM_BLOCK = 32768


def adam_step(params: ModelParams, grad: np.ndarray, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected adaptive-moment update of every parameter, in
    place, from the flat gradient vector ``grad``, one block of
    ``ADAM_BLOCK`` entries at a time so that the temporaries stay cached."""
    state.step += 1
    t = state.step
    _check_finite(params, grad, f" at step {t}")
    for lo in range(0, grad.size, ADAM_BLOCK):
        block = slice(lo, lo + ADAM_BLOCK)
        g, m, v = grad[block], state.m[block], state.v[block]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * g * g
        m_hat = m / (1.0 - config.beta1**t)
        v_hat = v / (1.0 - config.beta2**t)
        params.values[block] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)


def clip_gradients(params: ModelParams, grad: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient vector in place so its norm is at most max_norm.

    The squared norm is summed one parameter's segment at a time, in table
    order, as over separate tensors; one sum over the whole vector would
    round differently. A finite gradient whose squared norm overflows is
    divided by its largest magnitude first, then measured and clipped.
    Returns the pre-clip norm.
    """
    _check_finite(params, grad)
    total = 0.0
    with np.errstate(over="ignore"):
        for g in params.split(grad):
            total += float(np.sum(g * g))
    if math.isinf(total):
        largest = float(np.max(np.abs(grad)))
        grad /= largest
        scaled = math.sqrt(float(np.sum(grad * grad)))
        grad *= max_norm / scaled
        return largest * scaled
    norm = math.sqrt(total)
    if norm > max_norm:
        grad *= max_norm / norm
    return norm


# ------------------------------------------------------------- training loop


@dataclass
class EpochRecord:
    epoch: int
    train_mse: float
    val_mse: float


@dataclass
class TrainResult:
    params: ModelParams
    curve: list[EpochRecord]
    best_epoch: int
    best_val_mse: float
    stats: NormStats
    prepared: PreparedData


# bytes one pass may hold, a recorded training tape or a forward-only chunk:
# one window of the paper default on 170 nodes keeps about 17.0 MB on a tape,
# so such a tape holds one window; at criterion-4 widths (about 101 KB) a
# 32-window batch is one tape
PASS_BYTES = 16 * 2**20


def forecast_chunk(model_config: ModelConfig) -> int:
    """Windows per forward-only pass: ``PASS_BYTES`` over a window's
    widest float64 rows, its P x N LSTM rows at the four-gate width, or its
    convolution rows at every channel's width if those are wider. A chunk
    holds 4 windows of the paper default on 170 nodes (such a pass peaks
    near 18 MB under tracemalloc), or about 550 at criterion-4 widths."""
    c = model_config
    width = max(4 * c.lstm_hidden, c.n_channels * max(c.gcn_dims))
    return max(1, PASS_BYTES // (8 * c.window * c.n_nodes * width))


def tape_bytes(model_config: ModelConfig) -> int:
    """The float64 bytes one window keeps on a recorded tape until its
    backward: per slot and node, every LSTM layer's four gates, cell state
    and hidden state, and each view's convolution stack (every layer's
    input and output for every channel, then the fused features)."""
    c = model_config
    copies = c.n_channels if c.channelwise else 1
    stack = copies * sum(d_in + d_out for d_in, d_out in c.gcn_layer_dims()) + c.feature_dim
    width = c.lstm_layers * 6 * c.lstm_hidden + len(c.active_views) * stack
    return 8 * c.window * c.n_nodes * width


def tape_windows(model_config: ModelConfig) -> int:
    """Windows per recorded training tape: ``PASS_BYTES`` over ``tape_bytes``."""
    return max(1, PASS_BYTES // tape_bytes(model_config))


def _local_view(model_config: ModelConfig, dataset: SignalDataset) -> np.ndarray:
    """Check that the dataset fits the model; return its normalized distance view."""
    check_fits(model_config, dataset)
    return normalize_adjacency(build_local_adjacency(dataset.graph))


def _forecast(
    params: ModelParams,
    model_config: ModelConfig,
    dataset: SignalDataset,
    windows: WindowSet,
) -> np.ndarray:
    """Normalized B x N x 1 forecasts for a window set on the dataset's graph.

    Forward only: windows run in chunks of ``forecast_chunk`` windows on
    tapes that record nothing, so no intermediate outlives its use.
    """
    local_norm = _local_view(model_config, dataset)
    if not len(windows):
        raise ValidationError("cannot evaluate on an empty sample list")
    chunk = forecast_chunk(model_config)
    preds = []
    for start in range(0, len(windows), chunk):
        slots, index, external = windows[start : start + chunk].inputs()
        out = model_forward(
            Tape(record=False), params, slots, external, local_norm, model_config, index
        )
        preds.append(out.value)
    return np.concatenate(preds)


def mean_sample_mse(
    params: ModelParams,
    model_config: ModelConfig,
    windows: WindowSet,
    dataset: SignalDataset,
) -> float:
    """Mean over windows of the per-window normalized MSE (the training loss)."""
    diff = _forecast(params, model_config, dataset, windows) - windows.y_norm
    per_window = (diff * diff).reshape(len(diff), -1).sum(axis=1) / diff.shape[1]
    # cumsum adds in window order, like a running total, so the figure does
    # not depend on how windows are chunked
    return np.cumsum(per_window)[-1].item() / len(windows)


def train(
    dataset: SignalDataset,
    model_config: ModelConfig,
    train_config: TrainConfig,
    log=None,
) -> TrainResult:
    """Run the full loop and return the best-validation parameter snapshot.

    Deterministic given (seed, configs, dataset): initialization and every
    epoch's batch order come from one seeded generator, and each batch's
    summation order is fixed by its shapes. A non-finite training loss or
    validation MSE raises ``NumericalError`` naming the epoch, so epoch 1
    always takes the first snapshot.
    """
    local_norm = _local_view(model_config, dataset)
    prepared = prepare_samples(
        dataset, model_config.window, train_config.train_frac, train_config.val_frac
    )

    rng = np.random.default_rng(train_config.seed)
    params = init_params(model_config, rng)
    state = AdamState.for_params(params)
    grad = np.zeros_like(params.values)

    curve: list[EpochRecord] = []
    best_val = math.inf
    best_epoch = 0

    grads = params.split(grad)
    per_tape = tape_windows(model_config)
    workspace = Workspace()

    n_train = len(prepared.train)
    for epoch in range(1, train_config.epochs + 1):
        order = rng.permutation(n_train)
        # indexed by sample so the epoch mean does not depend on shuffle order
        epoch_losses = np.zeros(n_train)
        for batch_index, start in enumerate(range(0, n_train, train_config.batch_size)):
            batch = order[start : start + train_config.batch_size]
            grad[...] = 0.0
            for lo in range(0, len(batch), per_tape):
                part = batch[lo : lo + per_tape]
                windows = prepared.train[part]
                slots, index, external = windows.inputs()
                tape = Tape(workspace=workspace)
                pred = model_forward(tape, params, slots, external, local_norm, model_config, index)
                losses = tape.mse_per_sample(pred, tape.constant(windows.y_norm))
                if not np.all(np.isfinite(losses.value)):
                    raise NumericalError(
                        f"non-finite training loss at epoch {epoch}, batch {batch_index}"
                    )
                epoch_losses[part] = losses.value
                tape.backward(losses, 1.0 / len(batch))
                tape.accumulate_param_grads(params, grads)
                del tape  # its values, before the next tape and the validation pass
            clip_gradients(params, grad, train_config.clip_norm)
            adam_step(params, grad, state, train_config)
        workspace.release()

        train_mse = float(epoch_losses.mean())
        val_mse = mean_sample_mse(params, model_config, prepared.val, dataset)
        if not math.isfinite(val_mse):
            raise NumericalError(f"non-finite validation MSE at epoch {epoch}")
        curve.append(EpochRecord(epoch=epoch, train_mse=train_mse, val_mse=val_mse))
        if log is not None:
            log(f"epoch {epoch:3d}  train_mse {train_mse:.6f}  val_mse {val_mse:.6f}")
        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            best_params = params.copy()
            if train_config.checkpoint_dir is not None:
                save_checkpoint(
                    best_params,
                    model_config,
                    train_config.to_dict(),
                    prepared.stats,
                    train_config.checkpoint_dir,
                    dataset_signature=dataset_signature(dataset),
                )

    return TrainResult(
        params=best_params,
        curve=curve,
        best_epoch=best_epoch,
        best_val_mse=best_val,
        stats=prepared.stats,
        prepared=prepared,
    )


# --------------------------------------------------------------- evaluation


@dataclass(eq=False)
class PredictionTable:
    """One row per (sample, node), sample-major, held as columns."""

    timestamp_minutes: np.ndarray
    node_id: list[str]
    y_true: np.ndarray
    y_pred: np.ndarray

    def __len__(self) -> int:
        return len(self.y_true)


def evaluate(
    params: ModelParams,
    model_config: ModelConfig,
    stats: NormStats,
    dataset: SignalDataset,
    windows: WindowSet,
) -> tuple[Metrics, PredictionTable]:
    """Raw-scale metrics plus one table row per (sample, node).

    Predictions come out of the model normalized and are mapped back to
    flow units with the training stats before the error summary.
    """
    y_pred = minmax_invert(_forecast(params, model_config, dataset, windows), stats, channel=0)
    y_true = windows.y
    timestamps = windows.target_slots * dataset.interval_minutes
    table = PredictionTable(
        timestamp_minutes=np.repeat(timestamps, dataset.n_nodes),
        node_id=list(dataset.node_ids) * len(windows),
        y_true=y_true.reshape(-1),
        y_pred=y_pred.reshape(-1),
    )
    return compute_metrics(y_true, y_pred), table


def ha_baseline(train_windows: WindowSet, eval_windows: WindowSet, interval_minutes: int) -> Metrics:
    """Historical average: per-node mean flow at the same clock time.

    The prediction for node v at time-of-day s is the mean of the training
    targets observed at (v, s); clock times never seen in training fall
    back to the node's overall training mean. Only target slots and raw
    targets are read, so the windows are never normalized.
    """
    if not len(train_windows):
        raise ValidationError("historical average needs a nonempty training split")
    if not len(eval_windows):
        raise ValidationError("cannot evaluate on an empty sample list")

    def clocks(windows: WindowSet) -> np.ndarray:
        return (windows.target_slots * interval_minutes) % MINUTES_PER_DAY

    train_y = train_windows.y
    keys, key_of = np.unique(clocks(train_windows), return_inverse=True)
    # scatter_add adds in sample order, so each clock's sum is formed in the
    # same order as a running total over the samples
    sums = scatter_add(key_of, train_y, len(keys))
    means = sums / np.bincount(key_of)[:, None, None]
    node_mean = np.mean(train_y, axis=0)

    eval_keys = clocks(eval_windows)
    at = np.minimum(np.searchsorted(keys, eval_keys), len(keys) - 1)
    seen = (keys[at] == eval_keys)[:, None, None]
    preds = np.where(seen, means[at], node_mean)
    return compute_metrics(eval_windows.y, preds)
