"""Dataset format, normalization, windowing and split tests."""

import csv
import dataclasses
import gc
import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stgf import data as data_module
from stgf.data import (
    DEFAULT_CHANNEL_NAMES,
    DEFAULT_EXTERNAL_FIELDS,
    ExternalField,
    external_columns,
    NormStats,
    SignalDataset,
    WindowSet,
    chronological_split,
    csv_bytes,
    dataset_signature,
    edges_sha256,
    json_bytes,
    load_dataset,
    make_windows,
    minmax_apply,
    minmax_fit,
    minmax_invert,
    prepare_samples,
    save_dataset,
    split_sizes,
)
from stgf.errors import LoadError, ValidationError
from stgf.graphs import GraphSpec
from test_checkpoint import fail_writing


def toy_dataset(t=12, n=3, c=3, seed=0, interval=5):
    rng = np.random.default_rng(seed)
    signals = rng.uniform(0.0, 100.0, size=(t, n, c))
    fields = DEFAULT_EXTERNAL_FIELDS
    day_names = ["weekday", "weekend", "holiday"]
    weather_names = ["clear", "rain", "snow", "other"]
    externals = np.column_stack([
        fields[0].encode([day_names[slot % 3] for slot in range(t)]),
        fields[1].encode([weather_names[slot % 4] for slot in range(t)]),
        rng.uniform(0.0, 1.0, size=t),
    ])
    edges = tuple((i, i + 1, 1.0 + 0.5 * i) for i in range(n - 1))
    return SignalDataset(
        signals=signals,
        graph=GraphSpec(n_nodes=n, edges=edges),
        interval_minutes=interval,
        channel_names=DEFAULT_CHANNEL_NAMES[:c],
        node_ids=tuple(f"n{i}" for i in range(n)),
        external_fields=fields,
        externals=externals,
    )


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


# ----------------------------------------------------------- external fields


def test_external_field_encodes_category_codes():
    f = ExternalField("weather", "categorical", ("clear", "rain"))
    assert np.array_equal(f.encode(["rain"]), [1.0])
    assert f.decode(np.array([0.0])) == ["clear"]
    assert np.array_equal(f.encode(["rain", "clear", "rain"]), [1, 0, 1])
    assert f.encode(["rain", "clear"]).dtype == np.float64
    assert f.decode(np.array([1.0, 0.0])) == ["rain", "clear"]


def test_external_field_rejects_unknown_category():
    f = ExternalField("weather", "categorical", ("clear", "rain"))
    with pytest.raises(ValidationError, match="unknown category 'hail'"):
        f.encode(["hail"])
    with pytest.raises(ValidationError, match="unknown category 'hail'"):
        f.encode(["rain", "hail", "snow"])


def test_external_field_continuous_column():
    f = ExternalField("temperature", "continuous")
    column = f.encode(["0.5", "-1e300", " 2 ", "1_000"])
    assert column.shape == (4,)
    assert column.tolist() == [0.5, -1e300, 2.0, 1000.0]
    assert f.decode(column) is column
    with pytest.raises(ValueError, match="could not convert string to float: 'warm'"):
        f.encode(["1.0", "warm"])


def _float_or_error(raw: str):
    try:
        return float(raw)
    except ValueError as exc:
        return str(exc)


# decimal text with the spaces, underscores, signs, exponents, words and
# non-ASCII digits that float accepts or refuses
_DECIMALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(alphabet=st.sampled_from(list("0123456789._+-eE ainfINF\u0663\u00a0x,")), max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_DECIMALS, min_size=1, max_size=8))
def test_a_continuous_column_converts_each_cell_as_float_does(cells):
    f = ExternalField("temperature", "continuous")
    want = [_float_or_error(raw) for raw in cells]
    errors = [w for w in want if isinstance(w, str)]
    try:
        column = f.encode(cells)
    except ValidationError:  # a value float reads as inf or nan
        assert not errors and not np.isfinite(want).all()
    except ValueError as exc:
        assert str(exc) == errors[0]
    else:
        assert not errors
        assert column.tobytes() == np.array(want, dtype=np.float64).tobytes()


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999", " NaN "])
def test_external_field_refuses_a_non_finite_value(raw):
    f = ExternalField("temperature", "continuous")
    with pytest.raises(ValidationError, match=f"'temperature': {raw!r} is not a finite number"):
        f.encode(["0.5", raw, "nan"])


# (column, value, message): each edit makes toy_dataset()'s externals invalid
BAD_COVARIATES = {
    "code-past-the-categories": (1, 4.0, "'weather': 4.0 at slot 5 is not a category code in [0, 4)"),
    "negative-code": (0, -1.0, "'day_type': -1.0 at slot 5 is not a category code in [0, 3)"),
    "fractional-code": (1, 1.5, "'weather': 1.5 at slot 5 is not a category code in [0, 4)"),
    "nan-code": (0, np.nan, "'day_type': nan at slot 5 is not a category code in [0, 3)"),
    "nan-value": (2, np.nan, "'temperature': nan at slot 5 is not finite"),
    "infinite-value": (2, -np.inf, "'temperature': -inf at slot 5 is not finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_COVARIATES))
def test_dataset_refuses_covariates_that_are_not_codes_or_finite(case):
    column, value, message = BAD_COVARIATES[case]
    ds = toy_dataset()
    externals = ds.externals.copy()
    externals[5, column] = value
    with pytest.raises(ValidationError, match=re.escape(message)):
        dataclasses.replace(ds, externals=externals)


def test_save_refuses_covariates_edited_into_invalid_codes(tmp_path):
    ds = toy_dataset()
    ds.externals[5, 1] = -1.0
    message = "'weather': -1.0 at slot 5 is not a category code in [0, 4)"
    with pytest.raises(ValidationError, match=re.escape(message)):
        save_dataset(ds, tmp_path / "d")
    assert not (tmp_path / "d").exists()


def test_external_field_validation():
    with pytest.raises(ValidationError):
        ExternalField("x", "categorical", ("only",))
    with pytest.raises(ValidationError):
        ExternalField("x", "continuous", ("a", "b"))
    with pytest.raises(ValidationError):
        ExternalField("x", "ordinal")


def test_categorical_fields_take_the_first_columns():
    day, weather, temperature = DEFAULT_EXTERNAL_FIELDS
    assert external_columns(DEFAULT_EXTERNAL_FIELDS) == [0, 1, 2]
    assert external_columns((temperature, day, weather)) == [2, 0, 1]
    assert external_columns((weather, temperature, day)) == [0, 2, 1]
    assert external_columns(()) == []


# -------------------------------------------------------------- persistence


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_save_load_round_trips_signals_bitwise(tmp_path):
    ds = toy_dataset()
    save_dataset(ds, tmp_path / "d")
    loaded = load_dataset(tmp_path / "d")
    assert ds.signals.dtype == np.float32 and same_bits(loaded.signals, ds.signals)
    assert loaded.node_ids == ds.node_ids
    assert loaded.graph == ds.graph
    assert np.array_equal(loaded.externals, ds.externals)


def test_second_save_is_byte_identical(tmp_path):
    ds = toy_dataset(seed=3)
    save_dataset(ds, tmp_path / "a")
    save_dataset(load_dataset(tmp_path / "a"), tmp_path / "b")
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


@pytest.mark.parametrize("failing", ["signals.bin", "edges.csv", "externals.csv", "meta.json"])
def test_a_save_failing_on_any_file_leaves_the_previous_dataset(tmp_path, monkeypatch, failing):
    save_dataset(toy_dataset(seed=1), tmp_path / "d")
    before = dir_bytes(tmp_path / "d")
    fail_writing(monkeypatch, failing)
    with pytest.raises(OSError, match="No space left"):
        save_dataset(toy_dataset(t=20, n=4, seed=2), tmp_path / "d")
    assert dir_bytes(tmp_path / "d") == before


def test_json_bytes_sorts_keys_indents_two_and_ends_with_a_newline():
    data = json_bytes({"b": [1.5, "é"], "a": None})
    assert data == b'{\n  "a": null,\n  "b": [\n    1.5,\n    "\\u00e9"\n  ]\n}\n'


def test_csv_bytes_ends_every_row_with_a_line_feed_in_utf8():
    data = csv_bytes(["node", "v"], [["é", "a,b"], np.array([1.5, 2.0])])
    assert data == 'node,v\né,1.5\n"a,b",2.0\n'.encode("utf-8")


def _csv_writer_bytes(header, rows) -> bytes:
    """The row writer ``csv_bytes`` replaced: ``csv.writer`` at CRLF line
    ends, which quotes a field holding a CR or an LF, each row's CRLF then
    cut to a bare line feed; floats as ``repr``, UTF-8."""
    lines = []
    for row in [header, *rows]:
        text = io.StringIO()
        csv.writer(text, lineterminator="\r\n").writerow(
            [repr(v) if isinstance(v, float) else v for v in row]
        )
        assert text.getvalue().endswith("\r\n")
        lines.append(text.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


# text the writer must quote, or must leave as it is, the empty string too
_CSV_TEXT = st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "é", "a"]), max_size=4)
_CSV_CELLS = {
    "int": st.integers(-(2**63), 2**63 - 1),
    "float": st.one_of(st.sampled_from([-0.0, 5e-324, 1e300]), st.floats()),
    "str": _CSV_TEXT,
}


@st.composite
def _csv_tables(draw):
    """A header and 1-4 columns of 0-6 entries: int64 or float64 arrays,
    or lists of strings."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CSV_CELLS)), min_size=1, max_size=4))
    n_rows = draw(st.integers(0, 6))
    header = draw(st.lists(_CSV_TEXT, min_size=len(kinds), max_size=len(kinds)))
    columns = [draw(st.lists(_CSV_CELLS[k], min_size=n_rows, max_size=n_rows)) for k in kinds]
    dtypes = {"int": np.int64, "float": np.float64}
    return header, [np.array(c, dtype=dtypes[k]) if k in dtypes else c for k, c in zip(kinds, columns)]


@settings(max_examples=300, deadline=None)
@given(_csv_tables())
@example((["only"], [["", "a", ""]]))  # an empty string as a row's only field
@example(([""], [np.zeros(0)]))  # an empty header as its row's only field, no rows
def test_csv_bytes_is_csv_writer_of_the_rows(table):
    header, columns = table
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    assert csv_bytes(header, columns) == _csv_writer_bytes(header, rows)


def test_the_edge_hash_reads_the_undirected_edge_set_and_stays_out_of_meta_json(tmp_path):
    ds = toy_dataset(n=4)
    digest = edges_sha256(ds.graph)
    assert dataset_signature(ds)["edges_sha256"] == digest
    flipped = GraphSpec(4, tuple((d, s, w) for s, d, w in reversed(ds.graph.edges)))
    assert edges_sha256(flipped) == digest
    for edges in (ds.graph.edges[:-1], ds.graph.edges[:-1] + ((0, 3, 1.0),),
                  ds.graph.edges[:-1] + ((2, 3, np.nextafter(2.0, 3.0)),)):
        assert edges_sha256(GraphSpec(4, edges)) != digest
    save_dataset(ds, tmp_path / "d")
    meta = json.loads((tmp_path / "d" / "meta.json").read_text(encoding="utf-8"))
    assert "edges_sha256" not in meta


def test_building_rounds_signals_to_float32_and_refuses_what_float32_cannot_hold():
    ds = toy_dataset()
    signals = ds.signals.astype(np.float64)
    signals[1, 2, 0] = 0.1
    assert dataclasses.replace(ds, signals=signals).signals[1, 2, 0] == np.float32(0.1)
    # past float32's range the cast gives inf, refused without a warning
    for value in (1e39, -1e39, np.nan):
        signals[1, 2, 0] = value
        with pytest.raises(ValidationError, match="not finite in float32 at flat index 15"):
            dataclasses.replace(ds, signals=signals)


def test_a_dataset_without_covariate_fields_is_refused():
    ds = toy_dataset()
    with pytest.raises(ValidationError, match="a dataset needs at least one covariate field"):
        dataclasses.replace(ds, external_fields=(), externals=np.zeros((ds.n_slots, 0)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_signal_is_blamed_on_signals_bin(tmp_path, value):
    save_dataset(toy_dataset(), tmp_path / "d")
    path = tmp_path / "d" / "signals.bin"
    signals = np.fromfile(path, dtype="<f4")
    signals[100] = value
    signals.tofile(path)
    want = f"{path}: signals hold a value not finite in float32 at flat index 100"
    with pytest.raises(LoadError, match=re.escape(want)):
        load_dataset(tmp_path / "d")


def test_a_load_holds_the_series_once_as_float32(tmp_path):
    import tracemalloc

    save_dataset(toy_dataset(t=600, n=200), tmp_path / "d")
    size = (tmp_path / "d" / "signals.bin").stat().st_size
    tracemalloc.start()
    try:
        loaded = load_dataset(tmp_path / "d")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.signals.dtype == np.float32 and loaded.signals.nbytes == size
    # the payload plus the finite check's mask; a float64 copy would add 2 x
    assert peak < 1.5 * size


def test_a_loaded_dataset_reads_the_same_bits_as_a_float64_copy(tmp_path):
    save_dataset(toy_dataset(t=40, seed=4), tmp_path / "d")
    ds = load_dataset(tmp_path / "d")
    wide = ds.signals.astype(np.float64)  # the series as float64 loads held it
    prepared = prepare_samples(ds, window=3)
    stats = minmax_fit(wide, end_slot=3 + len(prepared.train))
    assert same_bits(prepared.stats.minimum, stats.minimum)
    assert same_bits(prepared.stats.maximum, stats.maximum)
    for part in (prepared.train, prepared.val, prepared.test):
        reference = WindowSet(wide, ds.externals, stats, 3, part.target_slots)
        for got, want in zip((*part.inputs(), part.y, part.y_norm),
                             (*reference.inputs(), reference.y, reference.y_norm)):
            assert same_bits(got, want)
        for got, want in zip(part, reference):
            for field in ("x", "external", "y", "y_norm"):
                assert same_bits(getattr(got, field), getattr(want, field))


def test_load_rejects_wrong_binary_length(tmp_path):
    ds = toy_dataset()
    save_dataset(ds, tmp_path / "d")
    payload = (tmp_path / "d" / "signals.bin").read_bytes()
    (tmp_path / "d" / "signals.bin").write_bytes(payload[:-4])
    with pytest.raises(LoadError, match=r"signals\.bin.*offset"):
        load_dataset(tmp_path / "d")


def test_load_rejects_missing_file(tmp_path):
    ds = toy_dataset()
    save_dataset(ds, tmp_path / "d")
    (tmp_path / "d" / "edges.csv").unlink()
    with pytest.raises(LoadError, match=r"edges\.csv"):
        load_dataset(tmp_path / "d")


def test_load_rejects_zero_distance_edge(tmp_path):
    ds = toy_dataset()
    save_dataset(ds, tmp_path / "d")
    (tmp_path / "d" / "edges.csv").write_text("src,dst,distance\n0,1,0.0\n")
    with pytest.raises(LoadError, match=r"edges\.csv"):
        load_dataset(tmp_path / "d")


def test_load_rejects_bad_external_category(tmp_path):
    ds = toy_dataset()
    save_dataset(ds, tmp_path / "d")
    path = tmp_path / "d" / "externals.csv"
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace(lines[1].split(",")[0], "tsunami", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LoadError, match="line 2"):
        load_dataset(tmp_path / "d")


def test_load_rejects_external_row_count_mismatch(tmp_path):
    ds = toy_dataset()
    save_dataset(ds, tmp_path / "d")
    path = tmp_path / "d" / "externals.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(LoadError, match=r"externals\.csv"):
        load_dataset(tmp_path / "d")


def _set_cell(lines, lineno, field, value):
    cells = lines[lineno - 1].split(",")
    cells[field] = value
    lines[lineno - 1] = ",".join(cells)


# Each case edits externals.csv of toy_dataset() (12 slots, header on line
# 1) and gives the message load_dataset must raise after the file name.
# Line numbers count blank lines, and when a file has several faults the
# first one in file order (row, then field) is named.
EXTERNALS_FAULTS = {
    "unknown-category": (
        lambda lines: _set_cell(lines, 5, 0, "tsunami"),
        "line 5: external field 'day_type': unknown category 'tsunami', "
        "expected one of ['weekday', 'weekend', 'holiday']",
    ),
    "unparsable-float": (
        lambda lines: _set_cell(lines, 7, 2, "warm"),
        "line 7: could not convert string to float: 'warm'",
    ),
    "wrong-column-count": (
        lambda lines: lines.__setitem__(3, lines[3].rsplit(",", 1)[0]),
        "line 4: expected 3 columns, got 2",
    ),
    "extra-rows": (
        lambda lines: lines.extend([lines[1], lines[2]]),
        "more rows than the 12 slots in meta.json",
    ),
    "missing-rows": (
        lambda lines: lines.__delitem__(slice(-2, None)),
        "10 rows for 12 slots in meta.json",
    ),
    "blank-lines-before-bad-row": (
        lambda lines: (lines.insert(3, ""), lines.insert(3, ""), _set_cell(lines, 9, 1, "hail")),
        "line 9: external field 'weather': unknown category 'hail', "
        "expected one of ['clear', 'rain', 'snow', 'other']",
    ),
    "nan-value": (
        lambda lines: _set_cell(lines, 7, 2, "nan"),
        "line 7: external field 'temperature': 'nan' is not a finite number",
    ),
    "infinite-value": (
        lambda lines: _set_cell(lines, 4, 2, "-inf"),
        "line 4: external field 'temperature': '-inf' is not a finite number",
    ),
    "overflowing-value": (
        lambda lines: _set_cell(lines, 10, 2, "1e999"),
        "line 10: external field 'temperature': '1e999' is not a finite number",
    ),
    "bad-cell-above-wrong-column-count": (
        lambda lines: (_set_cell(lines, 3, 2, "x"), lines.__setitem__(5, "weekday")),
        "line 3: could not convert string to float: 'x'",
    ),
    "wrong-column-count-above-bad-cell": (
        lambda lines: (_set_cell(lines, 8, 2, "x"), lines.__setitem__(5, "weekday")),
        "line 6: expected 3 columns, got 1",
    ),
    "bad-cell-above-extra-rows": (
        lambda lines: (_set_cell(lines, 13, 0, "someday"), lines.append(lines[1])),
        "line 13: external field 'day_type': unknown category 'someday', "
        "expected one of ['weekday', 'weekend', 'holiday']",
    ),
    "bad-cell-with-missing-rows": (
        lambda lines: (_set_cell(lines, 4, 2, "nope"), lines.pop()),
        "line 4: could not convert string to float: 'nope'",
    ),
    "earlier-row-wins-over-earlier-field": (
        lambda lines: (_set_cell(lines, 3, 2, "x"), _set_cell(lines, 6, 0, "tsunami")),
        "line 3: could not convert string to float: 'x'",
    ),
    "earlier-field-wins-within-a-row": (
        lambda lines: (_set_cell(lines, 6, 2, "x"), _set_cell(lines, 6, 1, "hail")),
        "line 6: external field 'weather': unknown category 'hail', "
        "expected one of ['clear', 'rain', 'snow', 'other']",
    ),
}


@pytest.mark.parametrize("case", sorted(EXTERNALS_FAULTS))
def test_load_names_the_first_bad_externals_line(tmp_path, case):
    mutate, message = EXTERNALS_FAULTS[case]
    save_dataset(toy_dataset(), tmp_path / "d")
    path = tmp_path / "d" / "externals.csv"
    lines = path.read_text().splitlines()
    mutate(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LoadError) as info:
        load_dataset(tmp_path / "d")
    assert str(info.value) == f"{path}: {message}"


# Each case rewrites meta.json of toy_dataset() and gives the start of the
# message load_dataset must raise after the file name.
META_FAULTS = {
    "not-an-object": (lambda text: "5\n", "expected a JSON object, got int"),
    "infinite-slot-count": (
        lambda text: text.replace('"T": 12', '"T": 1e999'),
        "T must be an integer >= 1, got inf",
    ),
    "integer-past-the-digit-limit": (
        lambda text: text.replace('"T": 12', '"T": ' + "1" * 5000),
        "invalid JSON (Exceeds the limit (4300 digits) for integer string conversion",
    ),
}


@pytest.mark.parametrize("case", sorted(META_FAULTS))
def test_load_refuses_malformed_metadata(tmp_path, case):
    edit, message = META_FAULTS[case]
    save_dataset(toy_dataset(), tmp_path / "d")
    path = tmp_path / "d" / "meta.json"
    path.write_text(edit(path.read_text()))
    with pytest.raises(LoadError) as info:
        load_dataset(tmp_path / "d")
    assert str(info.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("key", ["T", "N", "C", "interval_minutes"])
@pytest.mark.parametrize("value", [True, 200.9, 3.0, "3", None, 0, -2])
def test_load_refuses_a_count_that_is_not_a_positive_json_integer(tmp_path, key, value):
    # a float or bool was truncated or coerced: T 200.9 with interval true
    # loaded as 200 slots of 1 minute
    save_dataset(toy_dataset(), tmp_path / "d")
    path = tmp_path / "d" / "meta.json"
    meta = json.loads(path.read_text())
    meta[key] = value
    path.write_text(json.dumps(meta))
    with pytest.raises(LoadError) as info:
        load_dataset(tmp_path / "d")
    assert str(info.value) == f"{path}: {key} must be an integer >= 1, got {value!r}"


def test_a_last_slot_minute_past_int64_is_refused(tmp_path):
    # 199 slots of 10**17 minutes loaded, and eval wrote timestamps that
    # had wrapped past int64 to negative minutes
    ds = toy_dataset(t=200)
    save_dataset(ds, tmp_path / "d")
    path = tmp_path / "d" / "meta.json"
    meta = json.loads(path.read_text())
    meta["interval_minutes"] = 10**17
    path.write_text(json.dumps(meta))
    with pytest.raises(LoadError) as info:
        load_dataset(tmp_path / "d")
    assert str(info.value) == (
        f"{path}: bad metadata (slot 199 starts at minute 19900000000000000000, "
        "past the int64 range of timestamps)"
    )
    with pytest.raises(ValidationError, match="slot 199 starts at minute 19900000000000000000"):
        dataclasses.replace(ds, interval_minutes=10**17)
    # the widest interval whose last slot still fits
    meta["interval_minutes"] = (2**63 - 1) // 199
    path.write_text(json.dumps(meta))
    assert load_dataset(tmp_path / "d").interval_minutes == (2**63 - 1) // 199


@pytest.mark.parametrize("key, value", [
    ("channel_names", "fso"), ("node_ids", "abc"), ("channel_names", {"f": 1, "s": 2, "o": 3}),
])
def test_load_refuses_names_that_are_not_a_json_list(tmp_path, key, value):
    # a string of three letters loaded as three channel names or node ids
    save_dataset(toy_dataset(), tmp_path / "d")
    path = tmp_path / "d" / "meta.json"
    meta = json.loads(path.read_text())
    meta[key] = value
    path.write_text(json.dumps(meta))
    with pytest.raises(LoadError) as info:
        load_dataset(tmp_path / "d")
    kind = type(value).__name__
    assert str(info.value) == f"{path}: bad metadata ({key} must be a JSON list, got {kind})"


@pytest.mark.parametrize("key, value, problem", [
    ("channel_names", ["flow", "speed"], "2 channel names for 3 channels"),
    ("channel_names", ["flow", "speed", "occupancy", "x"], "4 channel names for 3 channels"),
    ("node_ids", ["n0", "n1"], "2 node ids for 3 nodes"),
    ("node_ids", ["n0", "n1", "n0"], "node ids must be unique"),
])
def test_load_blames_meta_json_for_names_that_do_not_fit_the_series(tmp_path, key, value, problem):
    save_dataset(toy_dataset(), tmp_path / "d")
    path = tmp_path / "d" / "meta.json"
    meta = json.loads(path.read_text())
    meta[key] = value
    path.write_text(json.dumps(meta))
    with pytest.raises(LoadError) as info:
        load_dataset(tmp_path / "d")
    assert str(info.value) == f"{path}: bad metadata ({problem})"


# Each case edits edges.csv of toy_dataset() (edges 0-1 at 1.0 and 1-2 at
# 1.5 on lines 2 and 3) and gives the message load_dataset must raise after
# the file name, by the same first-bad-line rule as externals.csv.
EDGES_FAULTS = {
    "extra-cell": (
        lambda lines: lines.__setitem__(1, "0,1,1.5,junk"),
        "line 2: expected 3 columns, got 4",
    ),
    "missing-cell": (
        lambda lines: lines.__setitem__(2, "1,2"),
        "line 3: expected 3 columns, got 2",
    ),
    "unparsable-index": (
        lambda lines: lines.__setitem__(2, "1,x,1.5"),
        "line 3: cannot parse row ['1', 'x', '1.5']",
    ),
    "fractional-index": (
        lambda lines: lines.__setitem__(1, "0.0,1,1.0"),
        "line 2: cannot parse row ['0.0', '1', '1.0']",
    ),
    "unparsable-distance": (
        lambda lines: lines.__setitem__(1, "0,1,far"),
        "line 2: cannot parse row ['0', '1', 'far']",
    ),
    "blank-lines-before-bad-row": (
        lambda lines: (lines.insert(2, ""), lines.insert(2, ""), lines.__setitem__(4, "1,2,1.5,9")),
        "line 5: expected 3 columns, got 4",
    ),
    "bad-cell-above-wrong-width": (
        lambda lines: (lines.__setitem__(1, "0,1,x"), lines.append("0,2")),
        "line 2: cannot parse row ['0', '1', 'x']",
    ),
    "wrong-width-above-bad-cell": (
        lambda lines: (lines.__setitem__(1, "0,1"), lines.__setitem__(2, "1,2,x")),
        "line 2: expected 3 columns, got 2",
    ),
    "infinite-distance": (
        lambda lines: lines.__setitem__(2, "1,2,inf"),
        "edge 1 (1, 2) has non-finite distance inf",
    ),
    "nan-distance": (
        lambda lines: lines.__setitem__(1, "0,1,nan"),
        "edge 0 (0, 1) has nonpositive distance nan",
    ),
    "node-out-of-range": (
        lambda lines: lines.__setitem__(2, "1,3,1.5"),
        "edge 1 (1, 3) out of range for 3 nodes",
    ),
    "bad-header": (
        lambda lines: lines.__setitem__(0, "src,dst,length"),
        "bad header ['src', 'dst', 'length'], expected ['src', 'dst', 'distance']",
    ),
}


@pytest.mark.parametrize("case", sorted(EDGES_FAULTS))
def test_load_names_the_first_bad_edges_line(tmp_path, case):
    mutate, message = EDGES_FAULTS[case]
    save_dataset(toy_dataset(), tmp_path / "d")
    path = tmp_path / "d" / "edges.csv"
    lines = path.read_text().splitlines()
    assert lines == ["src,dst,distance", "0,1,1.0", "1,2,1.5"]
    mutate(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LoadError) as info:
        load_dataset(tmp_path / "d")
    assert str(info.value) == f"{path}: {message}"


def test_loading_a_long_table_starts_no_garbage_collection(tmp_path):
    # held as one list per row, a table of 3x the first generation's
    # threshold starts collections during the load; collecting first keeps
    # allocations made before the load from counting
    slots = 3 * gc.get_threshold()[0]
    save_dataset(toy_dataset(t=slots), tmp_path / "d")
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        loaded = load_dataset(tmp_path / "d")
    finally:
        gc.callbacks.remove(count)
    assert loaded.n_slots == slots
    assert started == [], f"{len(started)} collections, generations {started}"


def _edits():
    """One edit of a file's bytes: a cut, or a token written over or put
    between its bytes."""
    tokens = st.sampled_from([
        b"\x00", b'"', b"\r", b"\xff", b"\xc3", b"\xed\xa0\x80",  # NUL, quote, CR, not UTF-8
        b"9" * (csv.field_size_limit() + 1),  # over-long field
        b",", b"\n", b"\n\n", b"\r\n", b'"a,b"', b" ", "é".encode("utf-8"),  # cells and lines
    ])
    position = st.floats(0.0, 1.0)
    return st.one_of(
        st.tuples(st.just("cut"), position, st.just(b"")),
        st.tuples(st.sampled_from(["over", "insert"]), position, tokens),
    )


def _apply(data: bytes, edit) -> bytes:
    kind, where, token = edit
    at = min(int(where * len(data)), len(data) - 1)
    if kind == "cut":
        return data[:at]
    return data[:at] + token + data[at + (kind == "over") :]


def _load_outcome(root):
    """The arrays a load gives, or its LoadError text."""
    try:
        ds = load_dataset(root)
    except LoadError as exc:
        return str(exc)
    return ds.signals.tobytes(), ds.externals.tobytes(), ds.graph.edges


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy") / "d"
    save_dataset(toy_dataset(), root)
    return dir_bytes(root)


@settings(max_examples=150, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(["meta.json", "edges.csv", "externals.csv"]), _edits()),
        min_size=1,
        max_size=3,
    )
)
def test_a_damaged_dataset_loads_or_raises_load_error(toy_files, edits):
    files = dict(toy_files)
    for name, edit in edits:
        files[name] = _apply(files[name], edit)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        loaded = _load_outcome(tmp)
        # csv.reader alone, the oracle of the split path, reads it the same
        with mock.patch.object(data_module, "_split_cells", lambda data, text: None):
            assert _load_outcome(tmp) == loaded


# the characters csv.reader treats apart, plus spaces, non-ASCII letters
# and line separators that neither tokeniser splits at
_CSV_CHARS = ',"\r\n\x00 aé日\u2028\x85'


@st.composite
def csv_texts(draw):
    """Text over ``_CSV_CHARS``, or over those without a quote, CR and NUL,
    maybe with one long field of about ``csv.field_size_limit()``
    characters, with or without a trailing LF."""
    chars = draw(st.sampled_from([_CSV_CHARS, _CSV_CHARS.translate({ord(c): None for c in '"\r\x00'})]))
    text = draw(st.text(alphabet=st.sampled_from(list(chars)), max_size=40))
    if draw(st.booleans()):
        limit = csv.field_size_limit()
        field = draw(st.sampled_from(["a", "é"])) * (limit + draw(st.integers(-1, 1)))
        at = draw(st.integers(0, len(text)))
        text = text[:at] + field + text[at:]
    if draw(st.booleans()):
        text = text.removesuffix("\n") if text.endswith("\n") else text + "\n"
    return text


def _reader_tokens(text):
    try:
        header, cells, widths = data_module._reader_cells(text)
    except csv.Error as exc:
        return f"csv.Error: {exc}"
    return header, cells, widths.tolist()


@settings(max_examples=400, deadline=None)
@given(csv_texts())
def test_the_split_tokeniser_agrees_with_csv_reader(text):
    split = data_module._split_cells(text.encode("utf-8"), text)
    if split is not None:
        header, cells, widths = split
        assert (header, cells, widths.tolist()) == _reader_tokens(text)


def test_the_split_tokeniser_cuts_the_tables_save_dataset_writes(tmp_path):
    save_dataset(toy_dataset(), tmp_path / "d")
    for name in ("edges.csv", "externals.csv"):
        data = (tmp_path / "d" / name).read_bytes()
        text = data.decode("utf-8")
        header, cells, widths = data_module._split_cells(data, text)
        assert (header, cells, widths.tolist()) == _reader_tokens(text)
    for text in ("", "\n", "a,b\n\nc,d\n", 'a,"b"\n', "a,b\r\n", "a\x00,b\n"):
        assert data_module._split_cells(text.encode("utf-8"), text) is None


# names that need csv quoting or are not ASCII
_LABELS = st.text(alphabet=st.sampled_from('ab ,"\'é日-\r\n'), min_size=1, max_size=6)
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e300, -1e300, -1.5]),
)


@st.composite
def covariate_datasets(draw):
    t = draw(st.integers(1, 6))
    fields, columns = [], []
    for k in range(draw(st.integers(1, 4))):
        name = draw(_LABELS)
        if draw(st.booleans()):
            cats = draw(st.lists(_LABELS, min_size=2, max_size=4, unique=True))
            fields.append(ExternalField(name, "categorical", tuple(cats)))
            columns.append(draw(st.lists(st.integers(0, len(cats) - 1), min_size=t, max_size=t)))
        else:
            fields.append(ExternalField(name, "continuous"))
            columns.append(draw(st.lists(_VALUES, min_size=t, max_size=t)))
    externals = np.zeros((t, len(fields)))
    externals[:, external_columns(fields)] = np.array(columns, dtype=np.float64).T
    return SignalDataset(
        signals=np.zeros((t, 1, 1)),
        graph=GraphSpec(n_nodes=1, edges=()),
        interval_minutes=5,
        channel_names=("flow",),
        node_ids=("n0",),
        external_fields=fields,
        externals=externals,
    )


@settings(max_examples=60, deadline=None)
@given(covariate_datasets())
def test_covariates_round_trip_through_the_csv(ds):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a", Path(tmp) / "b"
        save_dataset(ds, a)
        loaded = load_dataset(a)
        assert loaded.external_fields == ds.external_fields
        assert np.array_equal(loaded.externals, ds.externals)
        save_dataset(loaded, b)
        assert dir_bytes(a) == dir_bytes(b)


def test_a_category_holding_a_cr_or_an_lf_round_trips(tmp_path):
    ds = toy_dataset(t=8)
    day = ExternalField("day_type", "categorical", ("week\rday", "week\nend", "holi\r\nday"))
    ds = dataclasses.replace(ds, external_fields=(day, *ds.external_fields[1:]))
    save_dataset(ds, tmp_path / "a")
    loaded = load_dataset(tmp_path / "a")
    assert loaded.external_fields == ds.external_fields
    assert np.array_equal(loaded.externals, ds.externals)
    save_dataset(loaded, tmp_path / "b")
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


def test_large_meta_shape_is_accepted(tmp_path):
    ds = toy_dataset(t=4, n=307, c=3)
    save_dataset(ds, tmp_path / "d")
    loaded = load_dataset(tmp_path / "d")
    assert loaded.n_nodes == 307 and loaded.n_channels == 3


def test_dataset_validates_geometry():
    ds = toy_dataset()
    with pytest.raises(ValidationError, match="graph"):
        SignalDataset(
            signals=ds.signals,
            graph=GraphSpec(n_nodes=5, edges=((0, 1, 1.0),)),
            interval_minutes=5,
            channel_names=ds.channel_names,
            node_ids=ds.node_ids,
            external_fields=ds.external_fields,
            externals=ds.externals,
        )


# ------------------------------------------------------------ normalization


def test_minmax_endpoints_map_to_unit_interval():
    stats = NormStats(np.array([10.0]), np.array([30.0]))
    assert minmax_apply(np.array([10.0]), stats) == 0.0
    assert minmax_apply(np.array([30.0]), stats) == 1.0
    assert minmax_apply(np.array([40.0]), stats) == 1.0
    assert minmax_apply(np.array([0.0]), stats) == 0.0


def test_minmax_round_trip_in_range():
    rng = np.random.default_rng(8)
    x = rng.uniform(5.0, 25.0, size=(40, 3))
    stats = minmax_fit(x[:, None, :])
    back = minmax_invert(minmax_apply(x, stats), stats)
    assert np.allclose(back, x, rtol=0.0, atol=1e-12)


def test_minmax_degenerate_channel_convention():
    x = np.full((6, 1, 1), 42.0)
    stats = minmax_fit(x)
    applied = minmax_apply(x, stats)
    assert np.all(applied == 0.0)
    assert np.all(minmax_invert(applied, stats) == 42.0)


def test_minmax_single_channel_invert():
    stats = NormStats(np.array([0.0, 5.0]), np.array([10.0, 9.0]))
    assert minmax_invert(np.array([0.5]), stats, channel=0) == 5.0
    assert minmax_invert(np.array([0.5]), stats, channel=1) == 7.0


def test_minmax_fit_equals_the_whole_table_reduction_bit_for_bit():
    rng = np.random.default_rng(31)
    for _ in range(100):
        t, n = int(rng.integers(1, 120)), int(rng.integers(1, 12))
        x = rng.normal(size=(t, n, 5)).astype(np.float32)
        zeros = np.where(rng.random((t, n)) < 0.5, np.float32(-0.0), np.float32(0.0))
        picked = rng.random((t, n)) < 0.3
        # zero as both extrema, as the minimum, as the maximum, and inside the range
        x[..., 0] = zeros
        x[..., 1] = np.where(picked, zeros, np.abs(x[..., 1]))
        x[..., 2] = np.where(picked, zeros, -np.abs(x[..., 2]))
        x[..., 3] = np.where(picked, zeros, x[..., 3])
        flat = x.reshape(-1, 5)
        stats = minmax_fit(x)
        assert stats.minimum.tobytes() == flat.min(axis=0).astype(np.float64).tobytes()
        assert stats.maximum.tobytes() == flat.max(axis=0).astype(np.float64).tobytes()


def test_minmax_fit_sees_only_the_requested_prefix():
    x = np.zeros((10, 1, 1))
    x[7:] = 1000.0
    stats = minmax_fit(x, end_slot=7)
    assert stats.maximum[0] == 0.0


# ----------------------------------------------------------------- windows


def test_window_count_t4_p3():
    ds = toy_dataset(t=4)
    stats = minmax_fit(ds.signals)
    samples = make_windows(ds, stats, 3)
    assert len(samples) == 1
    assert samples[0].target_slot == 3


def test_window_count_large_series():
    # the slot count of a PEMS-scale series: 59 days of 5-minute slots
    ds = toy_dataset(t=16992, n=2, c=1)
    samples = make_windows(ds, minmax_fit(ds.signals), 3)
    assert len(samples) == 16989
    first, last = samples[0], samples[len(samples) - 1]
    assert (first.target_slot, last.target_slot) == (3, 16991)
    assert np.array_equal(first.y, ds.signals[3, :, :1])
    assert np.array_equal(last.y, ds.signals[16991, :, :1])


def test_window_targets_are_offset_by_index():
    ds = toy_dataset(t=12)
    samples = make_windows(ds, minmax_fit(ds.signals), 3)
    assert [s.target_slot for s in samples] == list(range(3, 12))


def test_window_uses_only_past_slots_for_inputs():
    ds = toy_dataset(t=10)
    stats = minmax_fit(ds.signals, end_slot=8)
    # the windows are read, and so normalized, before the edit
    before = list(make_windows(ds, stats, 3))
    ds.signals[9] += 500.0
    after = make_windows(ds, stats, 3)
    k = 5  # target slot 8: inputs are slots 5..7
    assert np.array_equal(before[k].x, after[k].x)
    assert np.array_equal(before[k].y, after[k].y)


def test_window_fields_match_the_raw_series():
    ds = toy_dataset(t=8)
    stats = minmax_fit(ds.signals)
    s = make_windows(ds, stats, 3)[2]  # target slot 5
    assert np.array_equal(s.y, ds.signals[5, :, 0:1])
    assert np.array_equal(s.external, ds.externals[5])
    assert np.array_equal(s.x, minmax_apply(ds.signals[2:5], stats))
    assert s.x.min() >= 0.0 and s.x.max() <= 1.0


def test_windows_are_read_only_views_with_unchanged_values():
    ds = toy_dataset(t=8)
    stats = minmax_fit(ds.signals)
    samples = make_windows(ds, stats, 3)
    normalized = minmax_apply(ds.signals, stats)
    for s in samples:
        t = s.target_slot
        assert np.array_equal(s.x, normalized[t - 3 : t])
        assert np.array_equal(s.y_norm, normalized[t, :, 0:1])
        assert np.array_equal(s.y, ds.signals[t, :, 0:1])
        assert np.array_equal(s.external, ds.externals[t])
    s = samples[0]
    # y is widened from the float32 series, so it is a copy
    assert s.y.dtype == np.float64 and not np.shares_memory(s.y, ds.signals)
    for field in (s.y, s.external):
        with pytest.raises(ValueError):
            field[...] = 0.0
    # the dataset's own arrays stay writable
    ds.signals[0, 0, 0] += 0.0
    ds.externals[0, 0] += 0.0


def _per_window_objects(ds, stats, window):
    """Reference: the windows as one object each, as make_windows once built them."""
    normalized = minmax_apply(ds.signals, stats)
    return [
        (normalized[t - window : t], ds.externals[t], ds.signals[t, :, 0:1],
         normalized[t, :, 0:1], t)
        for t in range(window, ds.n_slots)
    ]


def _same_window(sample, reference):
    x, external, y, y_norm, target_slot = reference
    assert sample.target_slot == target_slot and type(sample.target_slot) is int
    for got, want in zip((sample.x, sample.external, sample.y, sample.y_norm), (x, external, y, y_norm)):
        assert got.shape == want.shape and np.array_equal(got, want)


def _same_set(windows, reference, window):
    """The model's view of a nonempty set, distinct slots plus an index,
    and its targets, against the per-window reference."""
    slots, index, external = windows.inputs()
    assert len(np.unique(index)) == len(slots) <= len(windows) * window
    for b, want in enumerate(reference):
        assert np.array_equal(slots[index[b]], want[0])
        assert np.array_equal(external[b], want[1])
    assert np.array_equal(windows.y, np.stack([w[2] for w in reference]))
    assert np.array_equal(windows.y_norm, np.stack([w[3] for w in reference]))
    assert np.array_equal(windows.target_slots, [w[4] for w in reference])


@settings(max_examples=60, deadline=None)
@given(
    window=st.sampled_from([1, 3, 7]),
    extra=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_window_set_equals_the_per_window_objects(window, extra, seed, data):
    ds = toy_dataset(t=window + extra, seed=seed)
    stats = minmax_fit(ds.signals, end_slot=window + 1)
    windows = make_windows(ds, stats, window)
    reference = _per_window_objects(ds, stats, window)
    assert len(windows) == len(reference)
    for sample, want in zip(windows, reference):
        _same_window(sample, want)
    # int indexing, negative included, on the set and on a slice of it
    k = data.draw(st.integers(-len(reference), len(reference) - 1))
    _same_window(windows[k], reference[k])
    picked = data.draw(st.slices(len(reference)))
    part = windows[picked]
    assert isinstance(part, WindowSet) and len(part) == len(reference[picked])
    for sample, want in zip(part, reference[picked]):
        _same_window(sample, want)
    if len(part):
        j = data.draw(st.integers(-len(part), len(part) - 1))
        _same_window(part[j], reference[picked][j])
        _same_set(part, reference[picked], window)
    # an integer array, as training draws a shuffled batch, repeats allowed
    drawn = data.draw(st.lists(st.integers(-len(reference), len(reference) - 1), max_size=12))
    batch = windows[np.array(drawn, dtype=np.int64)]
    assert isinstance(batch, WindowSet) and len(batch) == len(drawn)
    if drawn:
        _same_set(batch, [reference[j] for j in drawn], window)
    with pytest.raises(IndexError):
        windows[len(reference)]


def test_a_split_normalizes_only_the_rows_its_windows_read():
    ds = toy_dataset(t=40)
    stats = minmax_fit(ds.signals)
    windows = make_windows(ds, stats, 3)
    test = windows[30:]
    assert np.array_equal(test.y[:, :, 0], ds.signals[33:, :, 0])
    assert np.array_equal(test[0].x, minmax_apply(ds.signals[30:33], stats))


def test_windows_reject_short_series():
    ds = toy_dataset(t=3)
    with pytest.raises(ValidationError):
        make_windows(ds, minmax_fit(ds.signals), 3)


# ------------------------------------------------------------------ splits


def test_split_sizes_hand_case():
    assert split_sizes(100, 0.7, 0.1) == (70, 10, 20)


def test_split_rejects_empty_partition():
    with pytest.raises(ValidationError):
        split_sizes(5, 0.1, 0.1)
    with pytest.raises(ValidationError):
        split_sizes(100, 0.0, 0.5)
    with pytest.raises(ValidationError):
        split_sizes(100, 0.8, 0.3)


def test_chronological_split_keeps_order():
    ds = toy_dataset(t=107)
    samples = make_windows(ds, minmax_fit(ds.signals), 7)
    train, val, test = chronological_split(samples, 0.7, 0.1)
    assert (len(train), len(val), len(test)) == (70, 10, 20)
    assert max(s.target_slot for s in train) < min(s.target_slot for s in val)
    assert max(s.target_slot for s in val) < min(s.target_slot for s in test)


def test_prepare_samples_fits_stats_before_the_boundary():
    ds = toy_dataset(t=107)
    prepared = prepare_samples(ds, window=7, train_frac=0.7, val_frac=0.1)
    stats_direct = minmax_fit(ds.signals, end_slot=7 + len(prepared.train))
    assert np.array_equal(prepared.stats.minimum, stats_direct.minimum)
    assert np.array_equal(prepared.stats.maximum, stats_direct.maximum)


def test_prepare_samples_ignores_future_values_for_stats():
    rng = np.random.default_rng(0)
    for trial in range(100):
        t = int(rng.integers(20, 60))
        window = int(rng.integers(1, 5))
        ds = toy_dataset(t=t, seed=trial)
        tf = float(rng.uniform(0.3, 0.7))
        vf = float(rng.uniform(0.1, 0.25))
        try:
            before = prepare_samples(ds, window, tf, vf)
        except ValidationError:
            continue
        boundary = window + len(before.train)
        ds.signals[boundary:] *= rng.uniform(2.0, 9.0)
        after = prepare_samples(ds, window, tf, vf)
        assert np.array_equal(before.stats.minimum, after.stats.minimum)
        assert np.array_equal(before.stats.maximum, after.stats.maximum)
        for a, b in zip(before.train, after.train):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)


def test_norm_stats_round_trip_dict():
    stats = NormStats(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    back = NormStats.from_dict(stats.to_dict())
    assert np.array_equal(back.minimum, stats.minimum)
    assert np.array_equal(back.maximum, stats.maximum)


def test_norm_stats_reject_inverted_extrema():
    with pytest.raises(ValidationError):
        NormStats(np.array([5.0]), np.array([1.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_norm_stats_reject_non_finite_extrema(value):
    with pytest.raises(ValidationError, match="finite"):
        NormStats(np.array([0.0, value]), np.array([1.0, 2.0]))
    with pytest.raises(ValidationError, match="finite"):
        NormStats(np.array([0.0, 1.0]), np.array([value, 2.0]))
