"""Dataset container, on-disk STGF directory format, normalization, windows.

An STGF directory holds one multi-channel sensor-network series:

    meta.json      T, N, C, interval_minutes, channel_names, node_ids,
                   external_schema
    signals.bin    little-endian float32, row-major [T][N][C]
    edges.csv      header ``src,dst,distance``; one undirected edge per row:
                   two node indices and a finite distance > 0
    externals.csv  header per external_schema; one row per time slot,
                   category names for categorical fields, decimals otherwise

Text files are UTF-8. Every file the package writes, dataset, run or
checkpoint, is staged and renamed as part of a set by ``write_files``, in
the one JSON and CSV form of ``json_bytes`` and ``csv_bytes``. Both CSV
tables are read the same way: into a header, one flat list of cells and an
array of row widths, and each field is converted from its stride of that
list. Blank lines are skipped; a non-blank row of another width than the
header's ends the table, and a load names the first bad line in file
order, row then field.

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
normalized where read: each call widens and normalizes only the rows it
returns. ``WindowSample`` is the one window that indexing a set returns.

A dataset fixes the ``ModelConfig`` fields ``model_fields`` returns, and
``check_fits`` is the one check that a dataset fits a model: those fields
first, then the ``dataset_signature`` the model was trained on.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass
from itertools import chain, zip_longest
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import LoadError, ValidationError, _json_number
from .graphs import GraphSpec
from .model import ModelConfig

META_KEYS = ("T", "N", "C", "interval_minutes", "channel_names", "node_ids", "external_schema")
MINUTES_PER_DAY = 1440
# the ModelConfig fields a dataset fixes, in ModelConfig's order
MODEL_FIELDS = ("n_nodes", "n_channels", "external_cardinalities", "external_continuous")


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
        values. NumPy converts a list of str to float64 through Python's
        ``float``, so the syntax and the ``ValueError`` are ``float``'s."""
        if self.kind == "continuous":
            column = np.array(values, dtype=np.float64)
            finite = np.isfinite(column)
            if not finite.all():
                raw = values[int(np.argmin(finite))]
                raise ValidationError(f"external field {self.name!r}: {raw!r} is not a finite number")
            return column
        lookup = {c: i for i, c in enumerate(self.categories)}
        try:
            return np.fromiter(map(lookup.__getitem__, values), np.float64, len(values))
        except KeyError as exc:
            raise ValidationError(
                f"external field {self.name!r}: unknown category {exc.args[0]!r}, "
                f"expected one of {list(self.categories)}"
            ) from None

    def decode(self, column: np.ndarray) -> np.ndarray | list[str]:
        """Inverse of ``encode`` for a valid column: names, or the column itself."""
        if self.kind == "continuous":
            return column
        return [self.categories[i] for i in column.astype(np.int64).tolist()]

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "kind": self.kind}
        if self.kind == "categorical":
            d["categories"] = list(self.categories)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExternalField":
        categories = d.get("categories", [])
        if not isinstance(categories, list):  # a string would read as its characters
            raise TypeError(f"categories must be a JSON list, got {type(categories).__name__}")
        return cls(d["name"], d["kind"], tuple(categories))


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

    ``signals`` is float32 as stored, so float64 values round when a dataset
    is built; reads widen the rows they return to float64. Channel 0 is the
    forecast target; slot t is minute t * interval_minutes.
    """

    signals: np.ndarray
    graph: GraphSpec
    interval_minutes: int
    channel_names: tuple[str, ...]
    node_ids: tuple[str, ...]
    external_fields: tuple[ExternalField, ...]
    externals: np.ndarray

    def __post_init__(self):
        with np.errstate(over="ignore"):  # past float32's range is inf, refused below
            self.signals = np.ascontiguousarray(self.signals, dtype=np.float32)
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
            raise ValidationError(f"signals hold a value not finite in float32 at flat index {bad}")
        if self.interval_minutes < 1:
            raise ValidationError(f"interval_minutes must be >= 1, got {self.interval_minutes}")
        _check_slot_minutes(t, self.interval_minutes)
        _check_labels(self.channel_names, self.node_ids, c, n)
        if self.graph.n_nodes != n:
            raise ValidationError(f"graph has {self.graph.n_nodes} nodes, signals have {n}")
        if not self.external_fields:  # a table of no columns has no rows to count
            raise ValidationError("a dataset needs at least one covariate field")
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

    def model_fields(self) -> dict:
        """The ``ModelConfig`` fields the dataset fixes: its node and channel
        counts, the category count of each categorical field in the order
        of the externals matrix's columns, and the number of continuous fields."""
        categorical = [f for f in self.external_fields if f.kind == "categorical"]
        counts = tuple(len(f.categories) for f in categorical)
        values = (self.n_nodes, self.n_channels, counts, len(self.external_fields) - len(categorical))
        return dict(zip(MODEL_FIELDS, values))


def _check_slot_minutes(n_slots: int, interval_minutes: int) -> None:
    """Refuse a series whose last slot starts past int64's range, the
    integers its timestamps are computed in."""
    last = (n_slots - 1) * int(interval_minutes)
    if last > np.iinfo(np.int64).max:
        raise ValidationError(
            f"slot {n_slots - 1} starts at minute {last}, past the int64 range of timestamps"
        )


def _check_labels(channel_names: tuple, node_ids: tuple, n_channels: int, n_nodes: int) -> None:
    """Refuse a name count that differs from the channel or node count, or
    a node id given twice."""
    if len(channel_names) != n_channels:
        raise ValidationError(f"{len(channel_names)} channel names for {n_channels} channels")
    if len(node_ids) != n_nodes:
        raise ValidationError(f"{len(node_ids)} node ids for {n_nodes} nodes")
    if len(set(node_ids)) != n_nodes:
        raise ValidationError("node ids must be unique")


# -------------------------------------------------------------- persistence


def write_files(root: str | Path, files: dict[str, bytes | np.ndarray]) -> None:
    """Write a set of files into the directory ``root``, creating it.

    Each file is written under a temporary name beside its target, then
    the files are renamed into place in the order given. A failure while
    writing leaves every file of the set as it was and removes the
    temporary files. This is the only place the package writes a file.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    temps = [root / f".{name}.tmp" for name in files]
    try:
        for temp, data in zip(temps, files.values()):
            _write_file(temp, data)
        for temp, name in zip(temps, files):
            os.replace(temp, root / name)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _write_file(path: Path, data: bytes | np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def json_bytes(value) -> bytes:
    """The one JSON form of every artifact: sorted keys, indent 2, a
    trailing newline, UTF-8."""
    return (json.dumps(value, indent=2, sort_keys=True) + "\n").encode("utf-8")


def csv_bytes(header: Sequence[str], columns: Sequence) -> bytes:
    """The one CSV form of every artifact: a header row, then a row per
    entry of the columns, each line ended by a bare line feed, UTF-8.

    A column is rendered whole: an array of integers by ``str``, one of
    floats by ``repr`` (numbers never need quoting), and a list of strings
    as ``csv.writer`` quotes them, each distinct string once; a string
    holding a CR or an LF is quoted, so a reader never takes it for a line
    end."""
    # the writer's file hands each line back, and writerow returns it; the
    # writer quotes a field holding a character of its line terminator, so
    # "\r\n" quotes both CR and LF, and the terminator is cut off again
    quote = csv.writer(SimpleNamespace(write=str), lineterminator="\r\n")
    # the writer quotes each field on its own terms, but "" only when it is
    # its row's one field; a pad field keeps a row of several out of that case
    pad, cut = ((), -2) if len(columns) == 1 else (("-",), -4)

    def cells(column) -> Iterable[str]:
        if isinstance(column, np.ndarray):
            return map(repr if column.dtype.kind == "f" else str, column.tolist())
        quoted = {v: quote.writerow((v, *pad))[:cut] for v in set(column)}
        return map(quoted.__getitem__, column)

    rows = map(",".join, zip(*map(cells, columns)))
    return ("\n".join(chain([quote.writerow(header)[:-2]], rows)) + "\n").encode("utf-8")


def edges_sha256(graph: GraphSpec) -> str:
    """SHA-256 of the canonical edge list: each undirected edge as its
    smaller node, its larger node and ``repr`` of its distance, one line
    per edge, the lines in sorted order."""
    edges = sorted((min(s, d), max(s, d), w) for s, d, w in graph.edges)
    text = "".join(f"{s},{d},{w!r}\n" for s, d, w in edges)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dataset_signature(dataset: SignalDataset) -> dict:
    """What a model trained on the dataset reads beyond its shapes: the
    covariate schema, channel names and node ids, as meta.json writes them,
    and ``edges_sha256`` of its road graph, which meta.json does not hold."""
    return {
        "external_schema": [f.to_dict() for f in dataset.external_fields],
        "channel_names": list(dataset.channel_names),
        "node_ids": list(dataset.node_ids),
        "edges_sha256": edges_sha256(dataset.graph),
    }


def check_fits(model_config: ModelConfig, dataset: SignalDataset, signature: dict | None = None) -> None:
    """Refuse a dataset that does not fit a model, naming the first
    difference: first a field of ``dataset.model_fields`` that holds another
    value in ``model_config``, then a difference from the
    ``dataset_signature`` the model was trained on. A signature of None,
    never recorded, passes, and so does a road graph when the signature
    holds no edge hash. Covariate fields compare in the order of the
    externals matrix's columns, the order the model reads them in."""
    for key, have in dataset.model_fields().items():
        want = getattr(model_config, key)
        if want != have:
            raise ValidationError(f"model expects {key} {want}, dataset has {have}")
    if signature is None:
        return
    for key, have in dataset_signature(dataset).items():
        if key == "edges_sha256":
            want = signature.get(key, have)
            if want != have:
                raise ValidationError(
                    f"dataset's edges differ from the road graph the model was trained on "
                    f"(edge list SHA-256 {have}, trained on {want})"
                )
            continue
        want = signature[key]
        if key == "external_schema":  # categorical fields first, as in external_columns
            want, have = (sorted(s, key=lambda d: d["kind"] == "continuous") for s in (want, have))
        for k, (w, h) in enumerate(zip_longest(want, have)):
            if w != h:
                w, h = (json.dumps(x, sort_keys=True) for x in (w, h))
                raise ValidationError(
                    f"dataset's {key} entry {k} is {h}, the model was trained on {w}"
                )


def save_dataset(dataset: SignalDataset, path: str | Path) -> None:
    """Write the directory layout described in the module docstring, as one
    ``write_files`` set with ``meta.json`` renamed last.

    Identical datasets produce identical bytes: floats are written with
    shortest round-trip decimals and the signal payload is a straight
    float32 dump.
    """
    dataset.check_externals()
    meta = {
        "T": dataset.n_slots,
        "N": dataset.n_nodes,
        "C": dataset.n_channels,
        "interval_minutes": dataset.interval_minutes,
        **{k: v for k, v in dataset_signature(dataset).items() if k in META_KEYS},
    }
    fields = dataset.external_fields
    in_schema_order = dataset.externals[:, external_columns(fields)].T
    columns = [f.decode(column) for f, column in zip(fields, in_schema_order)]
    edges = np.array(dataset.graph.edges, dtype=np.float64).reshape(-1, 3).T  # node indices exact
    write_files(path, {
        "signals.bin": dataset.signals.astype("<f4", copy=False),
        "edges.csv": csv_bytes(["src", "dst", "distance"], [*edges[:2].astype(np.int64), edges[2]]),
        "externals.csv": csv_bytes([f.name for f in fields], columns),
        "meta.json": json_bytes(meta),
    })


def _require_file(root: Path, name: str) -> Path:
    p = root / name
    if not p.is_file():
        raise LoadError(f"{p}: missing required file")
    return p


def _parse(kind):
    """A column converter that applies ``kind`` to every cell."""
    return lambda column: list(map(kind, column))


def _split_cells(data: bytes, text: str) -> tuple[list[str], list[str], np.ndarray] | None:
    """The header, body cells and body row widths of a table ``str.split``
    cuts exactly as ``csv.reader`` would, or None for any other table.

    It cuts ``text``, the UTF-8 decoding of ``data``, when the table holds
    no ``"``, CR or NUL, no blank line and no line of more bytes than
    ``csv.field_size_limit()``. Then every line ends at a LF, or at the end
    of the file, and its fields are the text between commas. The widths
    count the comma bytes between LF bytes; UTF-8 never uses those byte
    values inside a multi-byte character, so bytes and characters agree.
    """
    if b'"' in data or b"\r" in data or b"\0" in data:
        return None
    raw = np.frombuffer(data if data.endswith(b"\n") else data + b"\n", dtype=np.uint8)
    seps = np.flatnonzero((raw == ord("\n")) | (raw == ord(",")))
    lfs = np.flatnonzero(raw[seps] == ord("\n"))  # which separators end a line
    lengths = np.diff(seps[lfs], prepend=-1) - 1
    if not lengths.all() or lengths.max() > csv.field_size_limit():
        return None
    widths = np.diff(lfs, prepend=-1)  # a line's separators: its commas and its LF
    header, _, body = text.removesuffix("\n").partition("\n")
    cells = body.replace("\n", ",").split(",") if body else []
    return header.split(","), cells, widths[1:]


def _reader_cells(text: str) -> tuple[list[str] | None, list[str], np.ndarray]:
    """The header, body cells and body row widths of ``text`` as
    ``csv.reader`` reads it; the header is None for an empty text."""
    widths: list[int] = []

    def note_width(row: list[str]) -> list[str]:
        widths.append(len(row))
        return row

    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    cells = list(chain.from_iterable(map(note_width, reader)))
    return header, cells, np.array(widths, dtype=np.int64)


class _Table:
    """One CSV table of the directory format, read as a flat list of cells.

    The file is read once and decoded as UTF-8. ``_split_cells`` cuts a
    table without quotes, CR, NUL, blank lines or over-long lines, as
    ``save_dataset`` writes them unless a covariate name needs quoting;
    ``csv.reader`` reads every other table. Both give the same header,
    cells and widths, so the checks below are one path.

    No row list outlives its line: a table of T rows held as T lists makes
    the garbage collector run full collections in a process that loads
    again and again, and strings are not tracked by it.

    Line numbers count blank lines, with the header on line 1. The table
    keeps the rows before its first fault, a non-blank row of another width
    or a row past ``max_rows``; ``columns`` raises that fault once the kept
    rows have converted.
    """

    def __init__(self, path: Path, width: int, max_rows: int | None = None) -> None:
        data = path.read_bytes()
        try:
            text = data.decode("utf-8")
            self.header, cells, counts = _split_cells(data, text) or _reader_cells(text)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise LoadError(f"{path}: cannot read as UTF-8 CSV ({exc})") from None
        rows = np.flatnonzero(counts)  # index of each non-blank row after the header
        self.fault = None
        if max_rows is not None and len(rows) > max_rows:
            rows, self.fault = rows[:max_rows], f"more rows than the {max_rows} slots in meta.json"
        wrong = np.flatnonzero(counts[rows] != width)
        if wrong.size:
            first = rows[wrong[0]]
            rows = rows[: wrong[0]]
            self.fault = f"line {first + 2}: expected {width} columns, got {counts[first]}"
        # every kept row has ``width`` cells and precedes the rest
        del cells[len(rows) * width :]
        self.path, self.width, self.cells, self.linenos = path, width, cells, rows + 2

    def columns(
        self, converters: Sequence[Callable], describe: Callable[[list, ValueError], str]
    ) -> list:
        """Each field converted from its stride slice of the cells.

        A failing cell raises naming the first bad line in file order, row
        then field, with ``describe(row, exc)`` after the line number.
        """
        try:
            columns = [convert(self.cells[k :: self.width]) for k, convert in enumerate(converters)]
        except ValueError:
            for r, lineno in enumerate(self.linenos.tolist()):
                row = self.cells[r * self.width : (r + 1) * self.width]
                for convert, raw in zip(converters, row):
                    try:
                        convert([raw])
                    except ValueError as exc:
                        raise LoadError(f"{self.path}: line {lineno}: {describe(row, exc)}") from None
            raise
        if self.fault is not None:
            raise LoadError(f"{self.path}: {self.fault}")
        return columns


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
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
        raise LoadError(f"{meta_path}: invalid JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise LoadError(f"{meta_path}: expected a JSON object, got {type(meta).__name__}")
    missing = [k for k in META_KEYS if k not in meta]
    if missing:
        raise LoadError(f"{meta_path}: missing keys {missing}")
    try:
        counts = ("T", "N", "C", "interval_minutes")
        t, n, c, interval = (_json_number(key, meta[key], least=1) for key in counts)
        _check_slot_minutes(t, interval)
        for key in ("channel_names", "node_ids", "external_schema"):
            if not isinstance(meta[key], list):  # a string would read as its characters
                raise TypeError(f"{key} must be a JSON list, got {type(meta[key]).__name__}")
        channel_names = tuple(str(x) for x in meta["channel_names"])
        node_ids = tuple(str(x) for x in meta["node_ids"])
        _check_labels(channel_names, node_ids, c, n)
        fields = tuple(ExternalField.from_dict(d) for d in meta["external_schema"])
        if not fields:
            raise ValueError("external_schema names no covariate field")
    except (TypeError, KeyError, ValueError) as exc:  # ValidationError is a ValueError
        raise LoadError(f"{meta_path}: bad metadata ({exc})") from None

    bin_path = _require_file(root, "signals.bin")
    size = bin_path.stat().st_size
    expected = t * n * c * 4
    if size != expected:
        raise LoadError(
            f"{bin_path}: expected {expected} bytes for [T={t}][N={n}][C={c}] float32, "
            f"got {size} (payloads differ from byte offset {min(expected, size)})"
        )
    signals = np.fromfile(bin_path, dtype="<f4").reshape(t, n, c)

    edges_path = _require_file(root, "edges.csv")
    table = _Table(edges_path, width=3)
    if table.header != ["src", "dst", "distance"]:
        raise LoadError(f"{edges_path}: bad header {table.header}, expected ['src', 'dst', 'distance']")
    columns = table.columns(
        (_parse(int), _parse(int), _parse(float)), lambda row, exc: f"cannot parse row {row}"
    )
    try:
        graph = GraphSpec(n_nodes=n, edges=tuple(zip(*columns)))
    except ValidationError as exc:
        raise LoadError(f"{edges_path}: {exc}") from None

    ext_path = _require_file(root, "externals.csv")
    table = _Table(ext_path, width=len(fields), max_rows=t)
    if table.header != [f.name for f in fields]:
        raise LoadError(f"{ext_path}: header {table.header} does not match the schema")
    columns = table.columns([f.encode for f in fields], lambda row, exc: str(exc))
    if len(table.linenos) != t:
        raise LoadError(f"{ext_path}: {len(table.linenos)} rows for {t} slots in meta.json")
    externals = np.zeros((t, len(fields)))
    for j, column in zip(external_columns(fields), columns):
        externals[:, j] = column

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
        if not np.isfinite(signals).all():  # checked first, so exc names the value
            raise LoadError(f"{bin_path}: {exc}") from None
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
        if not (np.isfinite(self.minimum).all() and np.isfinite(self.maximum).all()):
            raise ValidationError("normalization extrema must be finite")
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
        """Stats from the two flat lists of numbers ``to_dict`` writes; a float
        is left to ``__post_init__``, which refuses a non-finite one."""
        keys = ("minimum", "maximum")
        return cls(*([x if isinstance(x, float) else _json_number(k, x) for x in d[k]] for k in keys))


def minmax_fit(signals: np.ndarray, end_slot: int | None = None) -> NormStats:
    """Per-channel min and max over slots [0, end_slot)."""
    rows = signals if end_slot is None else signals[:end_slot]
    if rows.size == 0:
        raise ValidationError(f"cannot fit normalization on empty slot range [0, {end_slot})")
    flat = rows.reshape(-1, rows.shape[-1])
    return NormStats(_column_extrema(flat, np.min), _column_extrema(flat, np.max))


def _column_extrema(flat: np.ndarray, reduce) -> np.ndarray:
    """``reduce(flat, axis=0)`` one column at a time, which NumPy runs far
    faster. A zero extremum is reduced again over its column's zero rows as
    a table, so it keeps the sign of zero the table reduction gives it."""
    out = np.array([reduce(flat[:, c]) for c in range(flat.shape[1])], dtype=flat.dtype)
    for c in np.flatnonzero(out == 0.0):
        out[c] = reduce(flat[flat[:, c] == 0.0], axis=0)[c]
    return out


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

    ``external`` is a read-only view into the dataset and ``y`` a read-only
    float64 copy; ``x`` and ``y_norm`` are normalized when the window is read.
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
                y=_read_only(self.signals[t, :, 0:1].astype(np.float64)),
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
        return self.signals[self.target_slots, :, 0:1].astype(np.float64)

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
