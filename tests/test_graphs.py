import numpy as np
import pytest

from stgf.autodiff import Parameter, Tape
from stgf.errors import ValidationError
from stgf.gradcheck import grad_check
from stgf.graphs import (
    GraphSpec,
    adaptive_adjacency,
    adaptive_adjacency_values,
    build_local_adjacency,
    normalize_adjacency,
)


def test_local_adjacency_two_nodes():
    spec = GraphSpec(2, [(0, 1, 2.0)])
    np.testing.assert_array_equal(build_local_adjacency(spec), [[0.0, 0.5], [0.5, 0.0]])


def test_local_adjacency_single_node():
    np.testing.assert_array_equal(build_local_adjacency(GraphSpec(1, [])), [[0.0]])


def test_local_adjacency_path():
    spec = GraphSpec(3, [(0, 1, 1.0), (1, 2, 4.0)])
    a = build_local_adjacency(spec)
    assert a[0, 1] == 1.0
    assert a[1, 2] == 0.25
    assert a[0, 2] == 0.0


def test_local_adjacency_duplicate_edge_last_wins_with_warning():
    spec = GraphSpec(2, [(0, 1, 2.0), (0, 1, 4.0)])
    with pytest.warns(UserWarning, match="duplicate edge"):
        a = build_local_adjacency(spec)
    assert a[0, 1] == 0.25
    assert a[1, 0] == 0.25


def test_local_adjacency_symmetric_for_undirected_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        edges = []
        pairs = set()
        for _ in range(int(rng.integers(1, n * 2))):
            i, j = rng.integers(0, n, size=2)
            if i == j or (i, j) in pairs or (j, i) in pairs:
                continue
            pairs.add((int(i), int(j)))
            edges.append((int(i), int(j), float(rng.uniform(0.5, 3.0))))
        a = build_local_adjacency(GraphSpec(n, edges))
        np.testing.assert_array_equal(a, a.T)


def test_graph_spec_validation():
    with pytest.raises(ValidationError):
        GraphSpec(2, [(0, 1, 0.0)])
    with pytest.raises(ValidationError):
        GraphSpec(2, [(0, 2, 1.0)])
    with pytest.raises(ValidationError):
        GraphSpec(2, [(1, 1, 1.0)])


def test_normalize_isolated_node_with_self_loop():
    np.testing.assert_array_equal(normalize_adjacency(np.zeros((1, 1))), [[1.0]])


def test_normalize_two_node_hand_case():
    # degrees with self loops are (2, 2), so every entry becomes 1/2
    out = normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_normalize_rejects_negative_entries():
    with pytest.raises(ValidationError):
        normalize_adjacency(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_normalize_symmetry_and_spectral_radius():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        a = rng.uniform(0.0, 2.0, size=(n, n))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        out = normalize_adjacency(a)
        np.testing.assert_allclose(out, out.T, atol=1e-12)
        assert np.all(out >= 0.0)
        # power iteration for the dominant eigenvalue
        v = np.ones(n) / np.sqrt(n)
        for _ in range(200):
            w = out @ v
            v = w / np.linalg.norm(w)
        radius = float(v @ out @ v)
        assert radius <= 1.0 + 1e-9


def test_adaptive_zero_embedding_is_uniform():
    out = adaptive_adjacency_values(np.zeros((3, 2)))
    np.testing.assert_allclose(out, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_adaptive_single_node():
    out = adaptive_adjacency_values(np.array([[0.7, -1.2]]))
    np.testing.assert_array_equal(out, [[1.0]])


def test_adaptive_identity_embedding_closed_form():
    # relu(E E^T) = I, so each row is softmax([1, 0]) up to ordering
    out = adaptive_adjacency_values(np.eye(2))
    e = np.e
    expected = np.array([[e / (e + 1.0), 1.0 / (e + 1.0)], [1.0 / (e + 1.0), e / (e + 1.0)]])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_adaptive_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        out = adaptive_adjacency_values(rng.normal(scale=2.0, size=(n, d)))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(n), atol=1e-12)
        assert np.all(out > 0.0)


def test_adaptive_permutation_equivariance():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        e = rng.normal(size=(n, 3))
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        a = adaptive_adjacency_values(e)
        a_perm = adaptive_adjacency_values(p @ e)
        np.testing.assert_allclose(a_perm, p @ a @ p.T, atol=1e-12)


def test_adaptive_is_differentiable():
    rng = np.random.default_rng(23)
    emb = Parameter("emb", rng.normal(size=(4, 3)))
    target = rng.uniform(size=(4, 4))

    def build(tape):
        return tape.mse_loss(adaptive_adjacency(tape, tape.param(emb)), tape.constant(target))

    assert grad_check(build, [emb], step=1e-6) < 1e-6


def test_adaptive_adjacency_records_the_product_and_its_relu_as_one_node():
    rng = np.random.default_rng(29)
    emb = rng.normal(size=(5, 3))
    tape = Tape()
    out = adaptive_adjacency(tape, tape.param(Parameter("emb", emb)))
    assert [n.op for n in tape.nodes] == ["param", "transpose", "affine_matmul", "softmax_rows"]
    scores = np.maximum(emb @ emb.T, 0.0)
    expected = np.exp(scores - scores.max(axis=1, keepdims=True))
    np.testing.assert_allclose(out.value, expected / expected.sum(axis=1, keepdims=True), atol=1e-15)
