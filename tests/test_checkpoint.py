"""Checkpoint persistence round trips and integrity checks."""

import errno
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stgf.checkpoint import CHECKPOINT_FORMAT, load_checkpoint, save_checkpoint
from stgf.data import NormStats
from stgf.errors import LoadError
from stgf.model import ModelConfig, init_params
from stgf.training import TrainConfig


def fixtures(seed=0):
    cfg = ModelConfig(
        n_nodes=4,
        n_channels=2,
        window=2,
        gcn_dims=(3,),
        lstm_layers=1,
        lstm_hidden=5,
        embed_dim=2,
        external_cardinalities=(2,),
        external_continuous=1,
        external_hidden=3,
    )
    params = init_params(cfg, np.random.default_rng(seed))
    stats = NormStats(np.array([0.0, -1.0]), np.array([10.0, 1.0]))
    return params, cfg, TrainConfig(epochs=2, seed=seed).to_dict(), stats


# a dataset_signature of the fixtures' geometry, as meta.json writes one
SIGNATURE = {
    "external_schema": [
        {"name": "day_type", "kind": "categorical", "categories": ["weekday", "weekend"]},
        {"name": "temperature", "kind": "continuous"},
    ],
    "channel_names": ["flow", "speed"],
    "node_ids": ["a", "b", "c", "d"],
    "edges_sha256": "0123456789abcdef" * 4,
}


def test_round_trip_restores_everything(tmp_path):
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    loaded = load_checkpoint(tmp_path / "ck")
    assert loaded.model_config == cfg
    assert loaded.train_config == tc
    assert np.array_equal(loaded.stats.minimum, stats.minimum)
    assert loaded.params.names() == params.names()
    for p, q in zip(params, loaded.params):
        assert p.value.shape == q.value.shape
        # single-precision container: per-entry error within float32 ulp
        assert np.allclose(p.value, q.value, rtol=1.2e-7, atol=1e-30)


def test_the_dataset_signature_round_trips_and_is_optional(tmp_path):
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck", dataset_signature=SIGNATURE)
    assert load_checkpoint(tmp_path / "ck").dataset_signature == SIGNATURE
    save_checkpoint(params, cfg, tc, stats, tmp_path / "old")
    assert "dataset" not in json.loads((tmp_path / "old" / "manifest.json").read_text())
    assert load_checkpoint(tmp_path / "old").dataset_signature is None
    # saved before the edge hash was recorded
    no_edges = {k: v for k, v in SIGNATURE.items() if k != "edges_sha256"}
    save_checkpoint(params, cfg, tc, stats, tmp_path / "older", dataset_signature=no_edges)
    assert load_checkpoint(tmp_path / "older").dataset_signature == no_edges


def _signature_with(key, value):
    return {**SIGNATURE, key: value}


# each is refused naming the manifest's 'dataset' entry
MALFORMED_SIGNATURES = {
    "not-an-object": ["flow"],
    "missing-key": {k: v for k, v in SIGNATURE.items() if k != "node_ids"},
    "extra-key": _signature_with("T", 4),
    "integer-node-id": _signature_with("node_ids", ["a", "b", "c", 4]),
    "names-as-one-string": _signature_with("channel_names", "flow"),
    "unknown-kind": _signature_with("external_schema", [{"name": "x", "kind": "ordinal"}]),
    "categories-as-a-string": _signature_with(
        "external_schema", [{"name": "x", "kind": "categorical", "categories": "ab"}]
    ),
    "edge-hash-as-a-number": _signature_with("edges_sha256", 12),
    "edge-hash-too-short": _signature_with("edges_sha256", "0123abcd"),
    "edge-hash-in-capitals": _signature_with("edges_sha256", "0123456789ABCDEF" * 4),
    "edge-hash-with-a-newline": _signature_with("edges_sha256", "0123456789abcdef" * 4 + "\n"),
}


@pytest.mark.parametrize("signature", MALFORMED_SIGNATURES.values(), ids=MALFORMED_SIGNATURES)
def test_a_malformed_dataset_signature_raises_load_error(tmp_path, signature):
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck", dataset_signature=signature)
    with pytest.raises(LoadError, match=r"manifest\.json: bad 'dataset'"):
        load_checkpoint(tmp_path / "ck")


def test_second_save_is_byte_identical(tmp_path):
    params, cfg, tc, stats = fixtures(seed=3)
    save_checkpoint(params, cfg, tc, stats, tmp_path / "a")
    loaded = load_checkpoint(tmp_path / "a")
    save_checkpoint(loaded.params, loaded.model_config, loaded.train_config, loaded.stats, tmp_path / "b")
    for name in ("manifest.json", "params.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_tampered_blob_length_rejected(tmp_path):
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    blob = (tmp_path / "ck" / "params.bin").read_bytes()
    (tmp_path / "ck" / "params.bin").write_bytes(blob[:-8])
    with pytest.raises(LoadError, match="bytes"):
        load_checkpoint(tmp_path / "ck")


def test_unknown_format_tag_rejected(tmp_path):
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
    manifest["format"] = "stgf-checkpoint-v9"
    (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(LoadError, match="format tag"):
        load_checkpoint(tmp_path / "ck")


def test_missing_files_rejected(tmp_path):
    with pytest.raises(LoadError, match="manifest"):
        load_checkpoint(tmp_path / "nope")
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    (tmp_path / "ck" / "params.bin").unlink()
    with pytest.raises(LoadError, match="blob"):
        load_checkpoint(tmp_path / "ck")


def test_inconsistent_offset_table_rejected(tmp_path):
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    path = tmp_path / "ck" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["params"][1]["offset"] += 1
    path.write_text(json.dumps(manifest))
    with pytest.raises(LoadError, match="cursor"):
        load_checkpoint(tmp_path / "ck")


def test_format_tag_value():
    assert CHECKPOINT_FORMAT == "stgf-checkpoint-v1"


# --------------------------------------------------------- malformed manifests


def _edit_manifest(directory, edit):
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest = edit(manifest)
    path.write_text(json.dumps(manifest))


def _set(key, value, inner=None):
    def edit(manifest):
        if inner is None:
            manifest[key] = value
        else:
            manifest[key][inner] = value
        return manifest

    return edit


def _drop(key, inner):
    def edit(manifest):
        del manifest[key][inner]
        return manifest

    return edit


def _each(key, inner, convert):
    def edit(manifest):
        manifest[key][inner] = [convert(x) for x in manifest[key][inner]]
        return manifest

    return edit


# each of these escaped load_checkpoint as a raw exception, so `stgf predict`
# ended in a traceback instead of exit 2, or (from "norm-stats-strings" on)
# loaded as values the manifest does not hold as numbers
MALFORMED_MANIFESTS = {
    "extra-model-config-key": _set("model_config", 3, "hidden_size"),
    "model-config-list": _set("model_config", [1, 2]),
    "norm-stats-without-maximum": _drop("norm_stats", "maximum"),
    "params-number": _set("params", 5),
    "total-size-string": _set("total_size", "x"),
    "train-config-list": _set("train_config", [1, 2]),
    "manifest-list": lambda manifest: [manifest],
    "norm-stats-strings": _each("norm_stats", "minimum", str),
    "norm-stats-bools": _each("norm_stats", "minimum", bool),
    "norm-stats-nested": _each("norm_stats", "minimum", lambda x: [x]),
    "train-config-zero-epochs": _set("train_config", 0, "epochs"),
    "train-config-bool-seed": _set("train_config", True, "seed"),
    "train-config-unknown-key": _set("train_config", 3, "patience"),
    "train-config-checkpoint-dir-list": _set("train_config", ["a"], "checkpoint_dir"),
    "total-size-float": lambda manifest: {**manifest, "total_size": float(manifest["total_size"])},
}

# what the load says of the cases above that loaded before every manifest
# number went through one rule
NUMBER_RULE_REFUSALS = {
    "norm-stats-strings": "bad 'norm_stats' (ValidationError: minimum must be a finite number, got '0.0')",
    "norm-stats-bools": "bad 'norm_stats' (ValidationError: minimum must be a finite number, got False)",
    "norm-stats-nested": "bad 'norm_stats' (ValidationError: minimum must be a finite number, got [0.0])",
    "train-config-zero-epochs": "bad 'train_config' (ValidationError: epochs must be >= 1, got 0)",
    "train-config-bool-seed": "bad 'train_config' (ValidationError: seed must be an integer, got True)",
    "train-config-unknown-key": "bad 'train_config' (TypeError: TrainConfig.__init__() got an unexpected "
                                "keyword argument 'patience')",
    "total-size-float": "bad 'total_size' (ValidationError: total_size must be an integer, got ",
}


@pytest.mark.parametrize("edit", MALFORMED_MANIFESTS.values(), ids=MALFORMED_MANIFESTS)
def test_malformed_manifest_raises_load_error(tmp_path, edit):
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    _edit_manifest(tmp_path / "ck", edit)
    with pytest.raises(LoadError, match="manifest.json"):
        load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("case", sorted(NUMBER_RULE_REFUSALS))
def test_a_manifest_number_that_breaks_the_rule_is_refused_naming_its_section(tmp_path, case):
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    _edit_manifest(tmp_path / "ck", MALFORMED_MANIFESTS[case])
    with pytest.raises(LoadError) as info:
        load_checkpoint(tmp_path / "ck")
    path = tmp_path / "ck" / "manifest.json"
    assert str(info.value).startswith(f"{path}: {NUMBER_RULE_REFUSALS[case]}")


def test_a_manifest_whose_model_reads_no_covariate_is_refused(tmp_path):
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")

    def no_covariates(manifest):
        manifest["model_config"].update(external_cardinalities=[], external_continuous=0)
        return manifest

    _edit_manifest(tmp_path / "ck", no_covariates)
    with pytest.raises(LoadError, match=r"manifest.json: bad 'model_config' \(ValidationError: "
                                        r"the model needs a covariate input"):
        load_checkpoint(tmp_path / "ck")


def _poison_blob(directory, name, value):
    """Write ``value`` over the first float32 of parameter ``name``."""
    manifest = json.loads((directory / "manifest.json").read_text())
    offset = next(e["offset"] for e in manifest["params"] if e["name"] == name)
    blob = np.fromfile(directory / "params.bin", dtype="<f4")
    blob[offset] = value
    blob.tofile(directory / "params.bin")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["node_embedding", "lstm0_wc", "head_w"])
def test_a_non_finite_parameter_is_refused_naming_it(tmp_path, name, value):
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    _poison_blob(tmp_path / "ck", "head_b", np.nan)  # the last one is not named
    _poison_blob(tmp_path / "ck", name, value)
    with pytest.raises(LoadError, match=rf"params\.bin: parameter '{name}' holds the non-finite"):
        load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("key", ["minimum", "maximum"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_norm_stats_are_refused(tmp_path, key, value):
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    edited = dict(stats.to_dict())
    edited[key] = [value, edited[key][1]]
    _edit_manifest(tmp_path / "ck", _set("norm_stats", edited))
    with pytest.raises(LoadError, match=r"manifest\.json: bad 'norm_stats'.*must be finite"):
        load_checkpoint(tmp_path / "ck")


def test_norm_stats_of_another_channel_count_rejected(tmp_path):
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    _edit_manifest(tmp_path / "ck", _set("norm_stats", {"minimum": [0.0], "maximum": [1.0]}))
    with pytest.raises(LoadError, match="channels"):
        load_checkpoint(tmp_path / "ck")


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def _containers(node, path=()):
    """Every dict or list in a JSON tree, with its path from the root."""
    if isinstance(node, (dict, list)):
        yield path, node
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _containers(child, path + (key,))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_mutated_manifest_loads_or_raises_load_error(tmp_path, data):
    params, cfg, tc, stats = fixtures()
    root = tmp_path / "ck"
    if not (root / "manifest.json").is_file():
        # SIGNATURE holds every key a save records, edges_sha256 included,
        # so the mutations reach each of them
        save_checkpoint(params, cfg, tc, stats, root, dataset_signature=SIGNATURE)
    pristine = (root / "manifest.json").read_text()
    manifest = json.loads(pristine)
    _, target = data.draw(st.sampled_from(list(_containers(manifest))))
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    action = data.draw(st.sampled_from(["replace", "delete", "insert"] if keys else ["insert"]))
    if action == "insert":
        key = data.draw(st.text(max_size=5)) if isinstance(target, dict) else len(target)
        if isinstance(target, dict):
            target[key] = data.draw(json_values)
        else:
            target.append(data.draw(json_values))
    else:
        key = data.draw(st.sampled_from(keys))
        if action == "delete":
            del target[key]
        else:
            target[key] = data.draw(json_values)
    (root / "manifest.json").write_text(json.dumps(manifest))
    try:
        load_checkpoint(root)
    except LoadError:
        pass
    finally:
        (root / "manifest.json").write_text(pristine)


# ------------------------------------------------------------- atomic saves


def fail_writing(monkeypatch, name):
    """Make the package's write of file ``name`` stop halfway on a full disk."""
    import stgf.data

    write = stgf.data._write_file

    def disk_full(path, payload):
        if path.name == f".{name}.tmp":
            write(path, payload[: len(payload) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        write(path, payload)

    monkeypatch.setattr(stgf.data, "_write_file", disk_full)


def test_interrupted_save_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    import stgf.data

    params, cfg, tc, stats = fixtures(seed=1)
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    before = {p.name: p.read_bytes() for p in (tmp_path / "ck").iterdir()}

    def interrupted(path, data):
        # half the blob reaches the disk, then the process is stopped
        if path.name.startswith(".params.bin"):
            path.write_bytes(data[: len(data) // 2])
            raise KeyboardInterrupt
        path.write_bytes(data)

    monkeypatch.setattr(stgf.data, "_write_file", interrupted)
    newer, _, _, _ = fixtures(seed=2)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(newer, cfg, tc, stats, tmp_path / "ck")

    after = {p.name: p.read_bytes() for p in (tmp_path / "ck").iterdir()}
    assert after == before
    loaded = load_checkpoint(tmp_path / "ck")
    for p, q in zip(params, loaded.params):
        assert np.allclose(p.value, q.value, rtol=1.2e-7, atol=1e-30)


def test_a_save_failing_on_the_manifest_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    params, cfg, tc, stats = fixtures(seed=1)
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    before = {p.name: p.read_bytes() for p in (tmp_path / "ck").iterdir()}
    fail_writing(monkeypatch, "manifest.json")
    newer, _, _, _ = fixtures(seed=2)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(newer, cfg, tc, stats, tmp_path / "ck", dataset_signature=SIGNATURE)
    assert {p.name: p.read_bytes() for p in (tmp_path / "ck").iterdir()} == before


def test_save_load_save_is_byte_identical_and_leaves_no_temp_files(tmp_path):
    params, cfg, tc, stats = fixtures(seed=4)
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    first = {p.name: p.read_bytes() for p in (tmp_path / "ck").iterdir()}
    loaded = load_checkpoint(tmp_path / "ck")
    save_checkpoint(loaded.params, loaded.model_config, loaded.train_config, loaded.stats,
                    tmp_path / "ck")
    second = {p.name: p.read_bytes() for p in (tmp_path / "ck").iterdir()}
    assert sorted(first) == ["manifest.json", "params.bin"]
    assert second == first


# ------------------------------------------------------------ the flat vector


def test_params_bin_is_the_float32_bytes_of_the_vector(tmp_path):
    params, cfg, tc, stats = fixtures(seed=5)
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    blob = (tmp_path / "ck" / "params.bin").read_bytes()
    assert blob == params.values.astype("<f4").tobytes()
    manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
    assert manifest["total_size"] == params.values.size
    assert [(e["name"], tuple(e["shape"])) for e in manifest["params"]] == params.layout()


def test_loaded_parameters_are_views_of_one_vector(tmp_path):
    params, cfg, tc, stats = fixtures(seed=6)
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    loaded = load_checkpoint(tmp_path / "ck").params
    assert loaded.values.dtype == np.float64
    assert np.array_equal(loaded.values, params.values.astype("<f4"))
    for p in loaded:
        assert np.shares_memory(p.value, loaded.values)


# --------------------------------------- a table that does not fit its config


def rewrite_table(directory, edit_entries=None, edit_config=None):
    """Rewrite the table and blob from edited (name, value) entries, keeping
    offsets, total_size and blob length consistent with each other."""
    loaded = load_checkpoint(directory)
    entries = [(p.name, p.value) for p in loaded.params]
    if edit_entries is not None:
        entries = edit_entries(entries)
    manifest = loaded.manifest
    table, offset = [], 0
    for name, value in entries:
        table.append({"name": name, "shape": list(value.shape), "offset": offset})
        offset += value.size
    manifest["params"], manifest["total_size"] = table, offset
    if edit_config is not None:
        edit_config(manifest["model_config"])
    flat = np.concatenate([np.zeros(0)] + [v.reshape(-1) for _, v in entries])
    (directory / "params.bin").write_bytes(flat.astype("<f4").tobytes())
    (directory / "manifest.json").write_text(json.dumps(manifest))


def _renamed(entries):
    return [("gcn_local_wX" if n == "gcn_local_w0" else n, v) for n, v in entries]


def _swapped(entries):
    names = [n for n, _ in entries]
    i, j = names.index("gcn_local_w0"), names.index("lstm0_wf")
    names[i], names[j] = names[j], names[i]
    return [(n, v) for n, (_, v) in zip(names, entries)]


def _hidden_9(model_config):
    model_config["lstm_hidden"] = 9


# (entries edit, config edit, the first difference the error names)
MISFITTING_TABLES = {
    "renamed": (_renamed, None, "parameter 1 is {'name': 'gcn_local_wX', 'shape': [1, 3], "
                "'offset': 8}, the model config expects 'gcn_local_w0' of shape (1, 3)"),
    "swapped": (_swapped, None, "parameter 1 is {'name': 'lstm0_wf', 'shape': [1, 3], "
                "'offset': 8}, the model config expects 'gcn_local_w0' of shape (1, 3)"),
    "missing": (lambda e: e[:-1], None, "parameter 19 is missing, "
                "the model config expects 'head_b' of shape (1, 1) at blob cursor 276"),
    "missing-middle": (lambda e: e[:2] + e[3:], None, "parameter 2 is {'name': 'fuse_local_w0', "
                       "'shape': [4, 3], 'offset': 11}, the model config expects 'gcn_global_w0'"),
    "extra": (lambda e: e + [("extra", np.ones((1, 2)))], None,
              "parameter 20 is {'name': 'extra', 'shape': [1, 2], 'offset': 277}, "
              "the model config expects no more parameters"),
    "lstm-hidden-9": (None, _hidden_9, "parameter 7 is {'name': 'lstm0_wf', 'shape': [8, 5], "
                      "'offset': 62}, the model config expects 'lstm0_wf' of shape (12, 9)"),
}


@pytest.mark.parametrize("case", MISFITTING_TABLES.values(), ids=MISFITTING_TABLES)
def test_table_that_does_not_fit_the_model_config_raises_load_error(tmp_path, case):
    edit_entries, edit_config, message = case
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    rewrite_table(tmp_path / "ck", edit_entries, edit_config)
    with pytest.raises(LoadError, match="manifest.json") as info:
        load_checkpoint(tmp_path / "ck")
    assert message in str(info.value)


NON_INTEGER_GEOMETRY = {
    "window-2.0": ("window", 2.0, "2.0"),
    "n-nodes-4.5": ("n_nodes", 4.5, "4.5"),
    "gcn-dims-8.7": ("gcn_dims", [8.7], "8.7"),
    "lstm-hidden-true": ("lstm_hidden", True, "True"),
    "cardinality-2.0": ("external_cardinalities", [2.0], "2.0"),
}


@pytest.mark.parametrize("case", NON_INTEGER_GEOMETRY.values(), ids=NON_INTEGER_GEOMETRY)
def test_non_integer_geometry_raises_load_error(tmp_path, case):
    key, value, shown = case
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    _edit_manifest(tmp_path / "ck", _set("model_config", value, key))
    with pytest.raises(LoadError, match="manifest.json") as info:
        load_checkpoint(tmp_path / "ck")
    assert f"{key} must be an integer, got {shown}" in str(info.value)


def test_total_size_that_does_not_fit_the_table_raises_load_error(tmp_path):
    params, cfg, tc, stats = fixtures()
    save_checkpoint(params, cfg, tc, stats, tmp_path / "ck")
    _edit_manifest(tmp_path / "ck", _set("total_size", params.values.size + 1))
    with pytest.raises(LoadError, match=f"total_size is {params.values.size + 1}, the table covers"):
        load_checkpoint(tmp_path / "ck")


def test_load_allocates_the_blob_and_one_float64_vector_only(tmp_path):
    import tracemalloc

    cfg = ModelConfig(n_nodes=40, n_channels=2, gcn_dims=(8, 16), lstm_layers=1, lstm_hidden=256)
    params = init_params(cfg, np.random.default_rng(0))
    stats = NormStats(np.zeros(2), np.ones(2))
    save_checkpoint(params, cfg, TrainConfig().to_dict(), stats, tmp_path / "ck")
    n = params.values.size
    tracemalloc.start()
    try:
        loaded = load_checkpoint(tmp_path / "ck")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.params.values.size == n
    # the float32 bytes read from disk plus their float64 copy, with room for
    # the manifest; a gradient buffer per parameter would add another 8 n
    assert peak < 12 * n + 200_000
