"""Dataset format, normalization, windowing and split tests."""

import dataclasses
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgf.data import (
    DEFAULT_CHANNEL_NAMES,
    DEFAULT_EXTERNAL_FIELDS,
    ExternalField,
    external_columns,
    NormStats,
    SignalDataset,
    WindowSet,
    chronological_split,
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
        graph=GraphSpec(n_nodes=n, edges=edges, directed=False),
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
    assert f.decode(column) == ["0.5", "-1e+300", "2.0", "1000.0"]
    with pytest.raises(ValueError, match="could not convert string to float: 'warm'"):
        f.encode(["1.0", "warm"])


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


def test_save_load_round_trips_signals_bitwise(tmp_path):
    ds = toy_dataset()
    save_dataset(ds, tmp_path / "d")
    loaded = load_dataset(tmp_path / "d")
    assert np.array_equal(loaded.signals, ds.signals.astype("<f4").astype(np.float64))
    assert loaded.node_ids == ds.node_ids
    assert loaded.graph == ds.graph
    assert np.array_equal(loaded.externals, ds.externals)


def test_second_save_is_byte_identical(tmp_path):
    ds = toy_dataset(seed=3)
    save_dataset(ds, tmp_path / "a")
    save_dataset(load_dataset(tmp_path / "a"), tmp_path / "b")
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


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


# names that need csv quoting or are not ASCII
_LABELS = st.text(alphabet=st.sampled_from('ab ,"\'é日-'), min_size=1, max_size=6)
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
    assert 16992 - 3 == 16989


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
