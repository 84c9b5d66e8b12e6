"""Generator determinism, format validity and channel-correlation targets."""

import hashlib

import numpy as np
import pytest

from stgf.data import load_dataset
from stgf.errors import ValidationError
from stgf.synth import (
    TOPOLOGIES,
    _hops_from_root,
    _topology_edges,
    build_synthetic,
    channel_correlations,
    generate_synthetic,
)


def test_same_seed_gives_identical_directories(tmp_path):
    generate_synthetic(tmp_path / "a", seed=7, n_nodes=5, n_slots=128)
    generate_synthetic(tmp_path / "b", seed=7, n_nodes=5, n_slots=128)
    for name in ("meta.json", "signals.bin", "edges.csv", "externals.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# SHA-256 of every file generate_synthetic writes for seed 0 at the two
# benchmark shapes; any change to the generator or the on-disk format
# shows up here
GOLDEN_SHA256 = {
    (10, 2016, "ring"): {
        "edges.csv": "0abbe20bfe7fbd807a43faeff79cd06b206c6ddb6e18949c6aab71c44d3dc19a",
        "externals.csv": "e63471bdc66cbd83631fe04e5f0038048593141d30c924c691878d967db05597",
        "meta.json": "216069248e9b19d908afae676ece663e62533b2a9cfed2d37b01fd1b4f97260f",
        "signals.bin": "487a01f0416713c80e73b01160b7af5e669b467d534c56cecb26806f694c119b",
    },
    (170, 64, "grid"): {
        "edges.csv": "46848a7d883c99c82533b526fa61c6f5270bb7d71dcb3368451a3ea12c7127cd",
        "externals.csv": "fe9883041c1cfbdb33ff39e5ed3f71192116cabd3fc9e6b8ffb0ad0d5eb5f33a",
        "meta.json": "8d2c79ecb0a4ab9a75f18fd14f80b36bb1e1fd546101e6010249a2f7b1d330ca",
        "signals.bin": "23288041deb79939df0f6496820bbe262554a081b9ea76a9ecae74e9476ae276",
    },
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_SHA256))
def test_generated_files_match_the_golden_digests(tmp_path, shape):
    n_nodes, n_slots, topology = shape
    generate_synthetic(tmp_path, seed=0, n_nodes=n_nodes, n_slots=n_slots, topology=topology)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == GOLDEN_SHA256[shape]


def test_different_seeds_differ(tmp_path):
    a = build_synthetic(seed=1, n_nodes=4, n_slots=96)
    b = build_synthetic(seed=2, n_nodes=4, n_slots=96)
    assert not np.array_equal(a.signals, b.signals)


def test_generated_directory_loads_cleanly(tmp_path):
    ds = generate_synthetic(tmp_path / "d", seed=3, n_nodes=6, n_slots=256, topology="grid")
    loaded = load_dataset(tmp_path / "d")
    assert loaded.n_slots == 256
    assert loaded.n_nodes == 6
    assert loaded.channel_names == ("flow", "speed", "occupancy")
    assert loaded.externals.shape == (256, 3)
    assert loaded.signals.dtype == ds.signals.dtype == np.float32
    assert loaded.signals.tobytes() == ds.signals.tobytes()


def test_channel_correlations_match_design_targets():
    ds = build_synthetic(seed=7, n_nodes=10, n_slots=2016, topology="ring")
    corr = channel_correlations(ds)
    assert corr["speed"] < -0.5
    assert corr["occupancy"] > 0.5


def test_correlations_hold_across_seeds_and_topologies():
    for seed, topology in [(0, "ring"), (11, "grid"), (42, "random")]:
        corr = channel_correlations(build_synthetic(seed, 8, 576, topology))
        assert corr["speed"] < -0.5, (seed, topology)
        assert corr["occupancy"] > 0.5, (seed, topology)


def test_size_minimums_enforced():
    with pytest.raises(ValidationError):
        build_synthetic(seed=0, n_nodes=1, n_slots=128)
    with pytest.raises(ValidationError):
        build_synthetic(seed=0, n_nodes=4, n_slots=10)


def test_unknown_topology_rejected():
    with pytest.raises(ValidationError, match="topology"):
        build_synthetic(seed=0, n_nodes=4, n_slots=128, topology="torus")


def test_every_topology_is_connected():
    rng = np.random.default_rng(0)
    for topology in TOPOLOGIES:
        for n in (2, 5, 9, 16):
            edges = _topology_edges(topology, n, rng)
            hops = _hops_from_root(n, edges)
            if n > 1:
                assert np.count_nonzero(hops) >= n - 1 or n == 2, (topology, n, hops)
            reached = {0}
            frontier = [0]
            adj = {i: set() for i in range(n)}
            for a, b, _ in edges:
                adj[a].add(b)
                adj[b].add(a)
            while frontier:
                cur = frontier.pop()
                for nxt in adj[cur]:
                    if nxt not in reached:
                        reached.add(nxt)
                        frontier.append(nxt)
            assert len(reached) == n, (topology, n)


def test_ring_has_no_duplicate_edges():
    edges = _topology_edges("ring", 2, np.random.default_rng(0))
    assert len(edges) == 1


def test_flow_is_nonnegative_and_daily_periodic():
    ds = build_synthetic(seed=5, n_nodes=4, n_slots=288 * 4)
    flow = ds.signals[:, :, 0]
    assert flow.min() >= 0.0
    # same weekday clock time should repeat within noise on clear weekdays
    day_means = flow.reshape(4, 288, 4).mean(axis=2)
    peaks = day_means.argmax(axis=1)
    assert peaks.std() < 30


def test_externals_cover_day_types():
    ds = build_synthetic(seed=2, n_nodes=3, n_slots=288 * 21)
    day_type = ds.externals[:, 0]
    assert set(day_type.tolist()) <= {0.0, 1.0, 2.0}
    assert np.any(day_type == 1.0)  # weekends present
    assert np.any(day_type == 2.0)  # holiday day 11 inside 21 days
    temps = ds.externals[:, 2]
    assert temps.min() >= 0.0 and temps.max() <= 1.0
