"""Dataset container, on-disk STGF directory format, normalization, windows.

An STGF directory holds one multi-channel sensor-network series:

    meta.json      T, N, C, interval_minutes, channel_names, node_ids,
                   external_schema
    signals.bin    little-endian float32, row-major [T][N][C]
    edges.csv      header ``src,dst,distance``; one undirected edge per row
    externals.csv  header per external_schema; one row per time slot,
                   category names for categorical fields, decimals otherwise

Slot t starts at minute t * interval_minutes, with slot 0 at midnight of
day 0. Categorical covariates are stored as names on disk and as category
codes in memory: the external matrix is T x F, each categorical field's
code column first, then each continuous field's values, each group in
schema order. The codec works one field's column at a time: ``encode``
turns its T strings into T codes or values, ``decode`` turns them back.

Windows are not objects in memory. A ``WindowSet`` is an integer array of
target slots over the dataset's raw series: window k reads slots [t - P, t)
and targets slot t. Splits, batches and forecast chunks are sub-arrays of
those targets, and the model reads a batch as the block of distinct slots
its windows cover plus a B x P index into that block. Signals are
normalized where read: each call normalizes only the rows it returns.
``WindowSample`` is the one window that indexing a set returns.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import LoadError, ValidationError
from .graphs import GraphSpec

META_KEYS = ("T", "N", "C", "interval_minutes", "channel_names", "node_ids", "external_schema")
MINUTES_PER_DAY = 1440


@dataclass(frozen=True)
class ExternalField:
    """One column group of the covariate table."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("categorical", "continuous"):
            raise ValidationError(f"external field {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "categorical":
            if len(self.categories) < 2:
                raise ValidationError(f"external field {self.name!r}: needs >= 2 categories")
            if len(set(self.categories)) != len(self.categories):
                raise ValidationError(f"external field {self.name!r}: duplicate categories")
            object.__setattr__(self, "categories", tuple(str(c) for c in self.categories))
        elif self.categories:
            raise ValidationError(f"external field {self.name!r}: continuous fields take no categories")

    def encode(self, values: Sequence[str]) -> np.ndarray:
        """Map a column of raw strings to its category codes, or to finite
        values through ``float`` (exactly Python's float syntax)."""
        if self.kind == "continuous":
            column = np.array([float(v) for v in values])
            finite = np.isfinite(column)
            if not finite.all():
                raw = values[int(np.argmin(finite))]
                raise ValidationError(f"external field {self.name!r}: {raw!r} is not a finite number")
            return column
        lookup = {c: i for i, c in enumerate(self.categories)}
        try:
            return np.array([lookup[v] for v in values], dtype=np.float64)
        except KeyError as exc:
            raise ValidationError(
                f"external field {self.name!r}: unknown category {exc.args[0]!r}, "
                f"expected one of {list(self.categories)}"
            ) from None

    def decode(self, column: np.ndarray) -> list[str]:
        """Inverse of ``encode``: one string per entry of a valid column."""
        if self.kind == "continuous":
            return [repr(v) for v in column.tolist()]
        return [self.categories[i] for i in column.astype(np.int64).tolist()]

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "kind": self.kind}
        if self.kind == "categorical":
            d["categories"] = list(self.categories)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExternalField":
        return cls(d["name"], d["kind"], tuple(d.get("categories", ())))


DEFAULT_EXTERNAL_FIELDS = (
    ExternalField("day_type", "categorical", ("weekday", "weekend", "holiday")),
    ExternalField("weather", "categorical", ("clear", "rain", "snow", "other")),
    ExternalField("temperature", "continuous"),
)

DEFAULT_CHANNEL_NAMES = ("flow", "speed", "occupancy")


def external_columns(fields: Sequence[ExternalField]) -> list[int]:
    """Each field's column of the externals matrix: categorical fields
    first, then continuous ones, each group in schema order."""
    order = sorted(range(len(fields)), key=lambda k: fields[k].kind == "continuous")
    return [order.index(k) for k in range(len(fields))]


@dataclass
class SignalDataset:
    """One fixed-interval multi-channel series over a sensor graph.

    ``signals`` is float64 in memory regardless of the float32 container;
    channel 0 is the forecast target. Timestamps are implicit: slot t is
    minute t * interval_minutes, strictly increasing by construction.
    """

    signals: np.ndarray
    graph: GraphSpec
    interval_minutes: int
    channel_names: tuple[str, ...]
    node_ids: tuple[str, ...]
    external_fields: tuple[ExternalField, ...]
    externals: np.ndarray

    def __post_init__(self):
        self.signals = np.ascontiguousarray(np.asarray(self.signals, dtype=np.float64))
        self.externals = np.ascontiguousarray(np.asarray(self.externals, dtype=np.float64))
        self.channel_names = tuple(self.channel_names)
        self.node_ids = tuple(str(n) for n in self.node_ids)
        self.external_fields = tuple(self.external_fields)
        if self.signals.ndim != 3:
            raise ValidationError(f"signals must be T x N x C, got shape {self.signals.shape}")
        t, n, c = self.signals.shape
        if min(t, n, c) < 1:
            raise ValidationError(f"signals dimensions must all be >= 1, got {self.signals.shape}")
        if not np.all(np.isfinite(self.signals)):
            bad = int(np.flatnonzero(~np.isfinite(self.signals))[0])
            raise ValidationError(f"signals contain a non-finite value at flat index {bad}")
        if self.interval_minutes < 1:
            raise ValidationError(f"interval_minutes must be >= 1, got {self.interval_minutes}")
        if len(self.channel_names) != c:
            raise ValidationError(f"{len(self.channel_names)} channel names for {c} channels")
        if len(self.node_ids) != n:
            raise ValidationError(f"{len(self.node_ids)} node ids for {n} nodes")
        if len(set(self.node_ids)) != n:
            raise ValidationError("node ids must be unique")
        if self.graph.n_nodes != n:
            raise ValidationError(f"graph has {self.graph.n_nodes} nodes, signals have {n}")
        self.check_externals()

    def check_externals(self) -> None:
        """Refuse externals that are not T category codes and finite values
        per field. Run when the dataset is built, and again by a save."""
        want = (self.n_slots, len(self.external_fields))
        if self.externals.shape != want:
            raise ValidationError(f"externals must be {want}, got {self.externals.shape}")
        for f, j in zip(self.external_fields, external_columns(self.external_fields)):
            column, card = self.externals[:, j], len(f.categories)
            valid = np.isin(column, np.arange(card)) if card else np.isfinite(column)
            if not valid.all():
                slot = int(np.argmin(valid))
                expected = f"a category code in [0, {card})" if card else "finite"
                raise ValidationError(
                    f"external field {f.name!r}: {column[slot].item()!r} at slot {slot} "
                    f"is not {expected}"
                )

    @property
    def n_slots(self) -> int:
        return self.signals.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.signals.shape[1]

    @property
    def n_channels(self) -> int:
        return self.signals.shape[2]


# -------------------------------------------------------------- persistence


def save_dataset(dataset: SignalDataset, path: str | Path) -> None:
    """Write the directory layout described in the module docstring.

    Identical datasets produce identical bytes: JSON keys are sorted,
    floats are written with shortest round-trip decimals, and the signal
    payload is a straight float32 dump.
    """
    dataset.check_externals()
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)

    meta = {
        "T": dataset.n_slots,
        "N": dataset.n_nodes,
        "C": dataset.n_channels,
        "interval_minutes": dataset.interval_minutes,
        "channel_names": list(dataset.channel_names),
        "node_ids": list(dataset.node_ids),
        "external_schema": [f.to_dict() for f in dataset.external_fields],
    }
    (root / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")

    (root / "signals.bin").write_bytes(dataset.signals.astype("<f4").tobytes())

    with open(root / "edges.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["src", "dst", "distance"])
        for src, dst, dist in dataset.graph.edges:
            writer.writerow([src, dst, repr(dist)])

    with open(root / "externals.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        fields = dataset.external_fields
        writer.writerow([f.name for f in fields])
        in_schema_order = dataset.externals[:, external_columns(fields)].T
        columns = [f.decode(column) for f, column in zip(fields, in_schema_order)]
        # an empty schema still writes one (empty) line per slot
        writer.writerows(zip(*columns) if columns else [[]] * dataset.n_slots)


def _require_file(root: Path, name: str) -> Path:
    p = root / name
    if not p.is_file():
        raise LoadError(f"{p}: missing required file")
    return p


def load_dataset(path: str | Path) -> SignalDataset:
    """Read and fully validate an STGF directory.

    Every failure names the offending file; size mismatches in the binary
    payload also report the byte offset where the payload stops matching
    the shape promised by meta.json.
    """
    root = Path(path)
    if not root.is_dir():
        raise LoadError(f"{root}: not a dataset directory")

    meta_path = _require_file(root, "meta.json")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise LoadError(f"{meta_path}: invalid JSON ({exc})") from None
    missing = [k for k in META_KEYS if k not in meta]
    if missing:
        raise LoadError(f"{meta_path}: missing keys {missing}")
    try:
        t, n, c = int(meta["T"]), int(meta["N"]), int(meta["C"])
        interval = int(meta["interval_minutes"])
        channel_names = tuple(str(x) for x in meta["channel_names"])
        node_ids = tuple(str(x) for x in meta["node_ids"])
        fields = tuple(ExternalField.from_dict(d) for d in meta["external_schema"])
    except (TypeError, KeyError, ValueError, ValidationError) as exc:
        raise LoadError(f"{meta_path}: bad metadata ({exc})") from None
    if min(t, n, c) < 1 or interval < 1:
        raise LoadError(f"{meta_path}: T, N, C and interval_minutes must be >= 1")

    bin_path = _require_file(root, "signals.bin")
    payload = bin_path.read_bytes()
    expected = t * n * c * 4
    if len(payload) != expected:
        raise LoadError(
            f"{bin_path}: expected {expected} bytes for [T={t}][N={n}][C={c}] float32, "
            f"got {len(payload)} (payloads differ from byte offset {min(expected, len(payload))})"
        )
    signals = np.frombuffer(payload, dtype="<f4").reshape(t, n, c).astype(np.float64)

    edges_path = _require_file(root, "edges.csv")
    edges = []
    with open(edges_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["src", "dst", "distance"]:
            raise LoadError(f"{edges_path}: bad header {header}, expected ['src', 'dst', 'distance']")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                src, dst, dist = int(row[0]), int(row[1]), float(row[2])
            except (ValueError, IndexError):
                raise LoadError(f"{edges_path}: line {lineno}: cannot parse row {row}") from None
            edges.append((src, dst, dist))
    try:
        graph = GraphSpec(n_nodes=n, edges=tuple(edges), directed=False)
    except ValidationError as exc:
        raise LoadError(f"{edges_path}: {exc}") from None

    ext_path = _require_file(root, "externals.csv")
    rows, linenos, problem = [], [], None
    with open(ext_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != [f.name for f in fields]:
            raise LoadError(f"{ext_path}: header {header} does not match the schema")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(rows) >= t:
                problem = f"more rows than the {t} slots in meta.json"
                break
            if len(row) != len(fields):
                problem = f"line {lineno}: expected {len(fields)} columns, got {len(row)}"
                break
            rows.append(row)
            linenos.append(lineno)
    # the rows above a malformed one are encoded before its fault is raised,
    # so the error names the first bad line in file order, whatever its kind
    externals = np.zeros((len(rows), len(fields)))
    try:
        for f, j, column in zip(fields, external_columns(fields), zip(*rows)):
            externals[:, j] = f.encode(column)
    except ValueError:
        # find the first bad cell in row, then field, order
        for row, lineno in zip(rows, linenos):
            for f, raw in zip(fields, row):
                try:
                    f.encode([raw])
                except ValueError as exc:
                    raise LoadError(f"{ext_path}: line {lineno}: {exc}") from None
        raise
    if problem is not None:
        raise LoadError(f"{ext_path}: {problem}")
    if len(rows) != t:
        raise LoadError(f"{ext_path}: {len(rows)} rows for {t} slots in meta.json")

    try:
        return SignalDataset(
            signals=signals,
            graph=graph,
            interval_minutes=interval,
            channel_names=channel_names,
            node_ids=node_ids,
            external_fields=fields,
            externals=externals,
        )
    except ValidationError as exc:
        raise LoadError(f"{root}: inconsistent dataset ({exc})") from None


# ------------------------------------------------------------ normalization


@dataclass
class NormStats:
    """Per-channel extrema fit on the training range only."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        self.minimum = np.asarray(self.minimum, dtype=np.float64).reshape(-1)
        self.maximum = np.asarray(self.maximum, dtype=np.float64).reshape(-1)
        if self.minimum.shape != self.maximum.shape:
            raise ValidationError("normalization extrema must have matching shapes")
        if np.any(self.maximum < self.minimum):
            raise ValidationError("per-channel max must be >= min")

    @property
    def n_channels(self) -> int:
        return self.minimum.size

    def span(self) -> np.ndarray:
        return self.maximum - self.minimum

    def to_dict(self) -> dict:
        return {"minimum": self.minimum.tolist(), "maximum": self.maximum.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(np.array(d["minimum"]), np.array(d["maximum"]))


def minmax_fit(signals: np.ndarray, end_slot: int | None = None) -> NormStats:
    """Per-channel min and max over slots [0, end_slot)."""
    signals = np.asarray(signals, dtype=np.float64)
    rows = signals if end_slot is None else signals[:end_slot]
    if rows.size == 0:
        raise ValidationError(f"cannot fit normalization on empty slot range [0, {end_slot})")
    flat = rows.reshape(-1, rows.shape[-1])
    return NormStats(flat.min(axis=0), flat.max(axis=0))


def minmax_apply(x: np.ndarray, stats: NormStats) -> np.ndarray:
    """Map each channel to [0, 1], clamping out-of-range values.

    A degenerate channel (max == min) maps to all zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    span = stats.span()
    safe = np.where(span == 0.0, 1.0, span)
    out = (x - stats.minimum) / safe
    out = np.where(span == 0.0, 0.0, out)
    return np.clip(out, 0.0, 1.0)


def minmax_invert(x: np.ndarray, stats: NormStats, channel: int | None = None) -> np.ndarray:
    """Inverse of apply for in-range values; degenerate channels give min.

    With ``channel`` set, ``x`` holds that single channel; otherwise its
    trailing axis spans all channels.
    """
    x = np.asarray(x, dtype=np.float64)
    if channel is None:
        return x * stats.span() + stats.minimum
    return x * stats.span()[channel] + stats.minimum[channel]


# ----------------------------------------------------------------- windows


@dataclass
class WindowSample:
    """One training example: slots [t - P, t) predicting flow at slot t.

    ``y`` and ``external`` are read-only views into the dataset; ``x`` and
    ``y_norm`` are normalized when the window is read.
    """

    x: np.ndarray
    external: np.ndarray
    y: np.ndarray
    y_norm: np.ndarray
    target_slot: int


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.setflags(write=False)
    return view


class WindowSet:
    """Sliding windows held as arrays, not objects.

    Window k reads slots [t - P, t) of the dataset's signals and targets
    slot t = ``target_slots[k]``. The set holds read-only views of the raw
    signals and covariates plus the training stats, and normalizes the rows
    a call reads when it reads them, so a set that only reads raw targets
    (the historical average) never normalizes. Every read sees the dataset
    as it is at that read.

    ``len``, iteration and an int index give ``WindowSample``s; a slice or
    an integer array gives another set. The model reads a set through
    ``inputs``, and metrics through ``y`` and ``y_norm``.
    """

    def __init__(self, signals, externals, stats: NormStats, window: int, target_slots) -> None:
        self.signals = _read_only(signals)
        self.externals = _read_only(externals)
        self.stats = stats
        self.window = window
        self.target_slots = np.asarray(target_slots, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.target_slots)

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def __getitem__(self, k):
        if isinstance(k, (int, np.integer)):
            t = int(self.target_slots[k])
            rows = minmax_apply(self.signals[t - self.window : t + 1], self.stats)
            return WindowSample(
                x=rows[:-1],
                external=self.externals[t],
                y=self.signals[t, :, 0:1],
                y_norm=rows[-1, :, 0:1],
                target_slot=t,
            )
        return WindowSet(self.signals, self.externals, self.stats, self.window, self.target_slots[k])

    def inputs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What ``model_forward`` reads for these windows: the S distinct
        normalized slots they cover (S x N x C, in slot order), each window's
        P slots as rows of that block (B x P), and the covariates at each
        target (B x E)."""
        wanted = self.target_slots[:, None] + np.arange(-self.window, 0)
        distinct, index = np.unique(wanted, return_inverse=True)
        return (
            minmax_apply(self.signals[distinct], self.stats),
            index.reshape(wanted.shape),
            self.externals[self.target_slots],
        )

    @property
    def y(self) -> np.ndarray:
        """Raw target flow, B x N x 1."""
        return self.signals[self.target_slots, :, 0:1]

    @property
    def y_norm(self) -> np.ndarray:
        """Normalized target flow, B x N x 1."""
        return minmax_apply(self.signals[self.target_slots], self.stats)[:, :, 0:1]


def make_windows(dataset: SignalDataset, stats: NormStats, window: int) -> WindowSet:
    """All sliding windows in chronological order; sample k targets slot
    window + k, for a total of T - window samples."""
    if window < 1:
        raise ValidationError(f"window length must be >= 1, got {window}")
    t_total = dataset.n_slots
    if t_total <= window:
        raise ValidationError(f"need more than {window} slots to form windows, have {t_total}")
    targets = np.arange(window, t_total)
    return WindowSet(dataset.signals, dataset.externals, stats, window, targets)


def split_sizes(n: int, train_frac: float, val_frac: float) -> tuple[int, int, int]:
    if train_frac <= 0.0 or val_frac <= 0.0 or train_frac + val_frac > 1.0:
        raise ValidationError(
            f"split fractions must be positive with sum <= 1, got {train_frac}/{val_frac}"
        )
    n_train = int(n * train_frac)
    n_val = int(n * val_frac)
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValidationError(
            f"split of {n} samples at {train_frac}/{val_frac} leaves an empty partition"
        )
    return n_train, n_val, n_test


def chronological_split(samples, train_frac: float = 0.7, val_frac: float = 0.1):
    """Contiguous train/val/test partition, no shuffling across boundaries.

    Each part is a slice of ``samples``: a window set gives window sets,
    a list gives lists.
    """
    n_train, n_val, _ = split_sizes(len(samples), train_frac, val_frac)
    return (
        samples[:n_train],
        samples[n_train : n_train + n_val],
        samples[n_train + n_val :],
    )


@dataclass
class PreparedData:
    """Windowed, normalized, chronologically split view of one dataset."""

    train: WindowSet
    val: WindowSet
    test: WindowSet
    stats: NormStats
    window: int


def prepare_samples(
    dataset: SignalDataset,
    window: int,
    train_frac: float = 0.7,
    val_frac: float = 0.1,
) -> PreparedData:
    """Fit stats on the training range, then window and split.

    The training samples cover slots [0, window + n_train), so the extrema
    are fit on exactly that prefix; later slots never influence them.
    """
    n_samples = dataset.n_slots - window
    if n_samples < 1:
        raise ValidationError(f"need more than {window} slots, have {dataset.n_slots}")
    n_train, _, _ = split_sizes(n_samples, train_frac, val_frac)
    stats = minmax_fit(dataset.signals, end_slot=window + n_train)
    samples = make_windows(dataset, stats, window)
    train, val, test = chronological_split(samples, train_frac, val_frac)
    return PreparedData(train=train, val=val, test=test, stats=stats, window=window)
