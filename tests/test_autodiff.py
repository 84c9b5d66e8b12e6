import tracemalloc
import warnings

import numpy as np
import pytest

from stgf.autodiff import Parameter, Tape, Workspace, _sigmoid_, scatter_add
from stgf.errors import ContractError, ShapeError
from stgf.gradcheck import grad_check


def test_matmul_identity():
    t = Tape()
    out = t.matmul(t.constant(np.eye(2)), t.constant([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(out.value, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_case():
    # hand multiplication: [[1,2],[3,4]] @ [[5,6],[7,8]]
    t = Tape()
    out = t.matmul(t.constant([[1.0, 2.0], [3.0, 4.0]]), t.constant([[5.0, 6.0], [7.0, 8.0]]))
    np.testing.assert_array_equal(out.value, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_zero_annihilates():
    t = Tape()
    rng = np.random.default_rng(0)
    out = t.matmul(t.constant(np.zeros((2, 2))), t.constant(rng.normal(size=(2, 2))))
    np.testing.assert_array_equal(out.value, np.zeros((2, 2)))


def test_matmul_shape_error_names_both_shapes():
    t = Tape()
    a = t.constant(np.zeros((2, 3)))
    b = t.constant(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        t.matmul(a, b)


def test_matmul_backward_rules():
    t = Tape()
    a = Parameter("a", [[1.0, 2.0], [3.0, 4.0]])
    b = Parameter("b", [[5.0, 6.0], [7.0, 8.0]])
    na, nb = t.param(a), t.param(b)
    loss = t.sum(t.matmul(na, nb))
    t.backward(loss)
    # dL/da = 1 @ b^T, dL/db = a^T @ 1 for an all-ones upstream
    ones = np.ones((2, 2))
    np.testing.assert_allclose(t.grad_for(a), ones @ b.value.T)
    np.testing.assert_allclose(t.grad_for(b), a.value.T @ ones)


def test_elementwise_values():
    t = Tape()
    one = t.weighted_sum(t.constant([[[1.0, 2.0]]]), [t.constant([[3.0, 4.0]])])
    np.testing.assert_array_equal(one.value, [[3.0, 8.0]])
    x = t.constant([[2.5, -1.0]])
    np.testing.assert_array_equal(t.add(x, t.constant([[0.0, 0.0]])).value, x.value)
    two = t.weighted_sum(t.constant([x.value, x.value]), [t.constant(1.0), t.constant(-1.0)])
    np.testing.assert_array_equal(two.value, [[0.0, 0.0]])


def test_elementwise_shape_error():
    t = Tape()
    with pytest.raises(ShapeError):
        t.add(t.constant([[1.0]]), t.constant([[1.0, 2.0]]))


def _act(t, act, x):
    """``act`` applied entrywise to the rows of x, through an identity affine."""
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    return t.affine(t.constant(x), t.constant(np.eye(1)), act=act).value.reshape(-1)


def test_activations():
    t = Tape()
    np.testing.assert_array_equal(_act(t, "relu", [-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(_act(t, "sigmoid", [0.0]), [0.5])
    np.testing.assert_array_equal(_act(t, "tanh", [0.0]), [0.0])


def test_relu_derivative_is_zero_at_zero():
    t = Tape()
    w = Parameter("w", [0.0, -1.0, 3.0])
    rows = t.reshape(t.param(w), (3, 1))
    loss = t.sum(t.affine(rows, t.constant(np.eye(1)), act="relu"))
    t.backward(loss)
    np.testing.assert_array_equal(t.grad_for(w), [0.0, 0.0, 1.0])


def test_sigmoid_no_overflow_at_extremes():
    t = Tape()
    out = _act(t, "sigmoid", [-1000.0, 1000.0])
    np.testing.assert_allclose(out, [0.0, 1.0])
    assert np.all(np.isfinite(out))


def test_softmax_uniform_rows():
    t = Tape()
    np.testing.assert_array_equal(t.softmax_rows(t.constant([[0.0, 0.0]])).value, [[0.5, 0.5]])
    big = t.softmax_rows(t.constant([[1000.0, 1000.0]]))
    np.testing.assert_array_equal(big.value, [[0.5, 0.5]])


def test_softmax_closed_form():
    t = Tape()
    out = t.softmax_rows(t.constant([[0.0, np.log(3.0)]]))
    np.testing.assert_allclose(out.value, [[0.25, 0.75]], atol=1e-15)


def test_softmax_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        logits = rng.normal(scale=5.0, size=(4, 6))
        t = Tape()
        s = t.softmax_rows(t.constant(logits)).value
        assert np.all(s > 0.0) and np.all(s < 1.0)
        np.testing.assert_allclose(s.sum(axis=1), np.ones(4), atol=1e-12)
        # invariant under adding a constant to one row of logits
        shifted = logits.copy()
        shifted[2] += 123.456
        s2 = t.softmax_rows(t.constant(shifted)).value
        np.testing.assert_allclose(s2, s, atol=1e-12)


def test_concat_cols():
    t = Tape()
    out = t.concat_cols(t.constant([[1.0]]), t.constant([[2.0]]))
    np.testing.assert_array_equal(out.value, [[1.0, 2.0]])
    x = t.constant([[3.0, 4.0]])
    np.testing.assert_array_equal(t.concat_cols(x, t.constant(np.zeros((1, 0)))).value, x.value)
    with pytest.raises(ShapeError):
        t.concat_cols(t.constant(np.zeros((1, 2))), t.constant(np.zeros((2, 2))))


def test_concat_gradient_splits():
    t = Tape()
    a = Parameter("a", [[1.0, 2.0], [3.0, 4.0]])
    b = Parameter("b", [[5.0], [6.0]])
    loss = t.sum(t.concat_cols(t.param(a), t.param(b)))
    t.backward(loss)
    np.testing.assert_array_equal(t.grad_for(a), np.ones((2, 2)))
    np.testing.assert_array_equal(t.grad_for(b), np.ones((2, 1)))


def test_mse_loss_values():
    t = Tape()
    x = t.constant([[1.0, -2.0], [0.5, 3.0]])
    assert float(t.mse_loss(x, x).value) == 0.0
    assert float(t.mse_loss(t.constant([2.0]), t.constant([0.0])).value) == 4.0
    # two row samples: (1^2 + 1^2 + 0 + 0) / 2
    pred = t.constant([[1.0, 1.0], [0.0, 0.0]])
    assert float(t.mse_loss(pred, t.constant(np.zeros((2, 2)))).value) == 1.0


def test_mse_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.normal(size=(3, 2))
        q = rng.normal(size=(3, 2))
        t = Tape()
        v = float(t.mse_loss(t.constant(p), t.constant(q)).value)
        assert v >= 0.0
        assert (v == 0.0) == bool(np.array_equal(p, q))


@pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 2, 4)])
def test_mse_loss_value_and_gradient_are_bitwise_the_direct_formula(shape):
    rng = np.random.default_rng(len(shape))
    n_samples = shape[0]
    for _ in range(30):
        w = Parameter("w", rng.normal(size=shape))
        target = rng.normal(size=shape)
        t = Tape()
        loss = t.mse_loss(t.param(w), t.constant(target))
        t.backward(loss)
        diff = w.value - target
        assert float(loss.value) == np.sum(diff * diff) / n_samples
        np.testing.assert_array_equal(t.grad_for(w), (2.0 / n_samples) * diff)


def test_backward_sum_gives_ones():
    t = Tape()
    w = Parameter("w", np.arange(6.0).reshape(2, 3))
    loss = t.sum(t.param(w))
    t.backward(loss)
    np.testing.assert_array_equal(t.grad_for(w), np.ones((2, 3)))


def test_backward_mse_scalar():
    t = Tape()
    w = Parameter("w", [3.0])
    loss = t.mse_loss(t.param(w), t.constant([0.0]))
    t.backward(loss)
    np.testing.assert_array_equal(t.grad_for(w), [6.0])


def test_backward_requires_scalar():
    t = Tape()
    w = t.constant([[1.0, 2.0]])
    with pytest.raises(ContractError):
        t.backward(w)


def test_backward_refuses_a_loss_this_tape_did_not_record():
    w = Parameter("w", [[2.0]])

    def build(t, scale):
        # d/dw = scale, with the same node ids on every tape
        return t.sum(t.matmul(t.constant([[scale]]), t.param(w)))

    t = Tape()
    own = build(t, 3.0)
    foreign = build(Tape(), 1.0)
    assert foreign.id == own.id
    with pytest.raises(ContractError, match="not recorded on this tape"):
        t.backward(foreign)
    with pytest.raises(ContractError, match="not recorded on this tape"):
        t.backward(build(Tape(record=False), 3.0))
    np.testing.assert_array_equal(t.grad_for(w), [[0.0]])
    t.backward(own)
    np.testing.assert_array_equal(t.grad_for(w), [[3.0]])


def test_backward_sums_three_contributions_to_one_node():
    t = Tape()
    w = Parameter("w", [[1.0, -2.0]])
    nw = t.param(w)
    value = w.value.copy()
    loss = t.sum(t.add(t.add(nw, nw), nw))
    t.backward(loss)
    np.testing.assert_array_equal(t.grad_for(w), [[3.0, 3.0]])
    np.testing.assert_array_equal(w.value, value)


def test_a_second_backward_raises_contract_error():
    t = Tape()
    w = Parameter("w", [[1.0, -2.0], [0.5, 4.0]])
    nw = t.param(w)
    h = t.affine(t.matmul(nw, nw), t.constant(np.eye(2)), act="tanh")
    loss = t.mse_loss(h, t.constant(np.zeros((2, 2))))
    t.backward(loss)
    once = t.grad_for(w)
    assert np.any(once != 0.0)
    with pytest.raises(ContractError, match="one backward sweep"):
        t.backward(loss)
    with pytest.raises(ContractError, match="one backward sweep"):
        t.backward(t.sum(h))
    np.testing.assert_array_equal(t.grad_for(w), once)


def test_the_sweep_drops_every_vjp_and_keeps_every_value():
    p = _lstm_gates(5, 3, 4)
    x = Parameter("x", np.random.default_rng(6).normal(size=(3, 2, 3)))
    t = Tape()
    out = t.lstm_layer(
        t.param(x), [t.param(p[f"w{k}"]) for k in range(4)], [t.param(p[f"b{k}"]) for k in range(4)]
    )
    loss = t.sum(out)
    # recorded after the loss, so the sweep never reaches them
    t.sum(t.add(out, out))
    t.affine(t.param(x), t.constant(np.ones((3, 1))))
    values = [n.value.copy() for n in t.nodes]
    assert sum(n._vjp is not None for n in t.nodes) > 3
    t.backward(loss)
    assert [n for n in t.nodes if n._vjp is not None] == []
    for n, value in zip(t.nodes, values):
        assert np.array_equal(n.value, value), n


def test_one_lstm_layer_backward_stays_below_the_adjoint_block():
    # the paper default's second layer at batch 2: P = 3 steps of 2 x 170
    # rows, D = H = 256. The vjp once allocated a P x rows x 4H block of gate
    # adjoints; it now writes them over the spent gates, so the sweep's peak
    # stays below that block plus the output adjoint the sum hands in
    steps, rows, d_in, hidden = 3, 340, 256, 256
    p = _lstm_gates(9, d_in, hidden)
    x = Parameter("x", np.random.default_rng(10).normal(size=(steps, rows, d_in)))
    tracemalloc.start()
    try:
        t = Tape()
        out = t.lstm_layer(
            t.param(x), [t.param(p[f"w{k}"]) for k in range(4)],
            [t.param(p[f"b{k}"]) for k in range(4)],
        )
        loss = t.sum(out)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        t.backward(loss)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = steps * rows * 4 * hidden * 8
    adjoint = steps * rows * hidden * 8
    assert peak - base < block + adjoint, (peak - base, block + adjoint)
    # the closure's gates and cell states are gone, net of the gradients kept
    assert after < base


def test_param_binds_each_parameter_once_without_copying():
    t = Tape()
    w = Parameter("w", np.ones((2, 2)))
    assert t.param(w) is t.param(w)
    assert len(t.nodes) == 1
    assert np.shares_memory(t.param(w).value, w.value)


def test_tape_is_topologically_ordered():
    t = Tape()
    a = t.constant([[1.0]])
    b = t.affine(a, t.constant([[1.0]]), act="relu")
    c = t.add(a, b)
    for node in t.nodes:
        assert all(i < node.id for i in node.input_ids)


def test_grad_check_matmul_mse():
    rng = np.random.default_rng(11)
    w = Parameter("w", rng.normal(size=(3, 2)))
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=(4, 2))

    def build(tape):
        return tape.mse_loss(tape.matmul(tape.constant(x), tape.param(w)), tape.constant(y))

    assert grad_check(build, [w], step=1e-6) < 1e-6


def test_grad_check_zero_parameters_is_zero():
    def build(tape):
        return tape.sum(tape.constant([[1.0, 2.0]]))

    assert grad_check(build, [], step=1e-6) == 0.0


def test_grad_check_rejects_nondeterministic_build():
    rng = np.random.default_rng(0)
    w = Parameter("w", [1.0])

    def build(tape):
        return tape.mse_loss(tape.param(w), tape.constant([rng.normal()]))

    with pytest.raises(ContractError):
        grad_check(build, [w])


# ---------------------------------------------------------------- property test

# the ops the model records, each on 2-D operands
_UNARY = ("relu", "softmax_rows", "transpose")
_BINARY = (
    "add", "weighted_sum", "matmul", "affine_relu", "affine_sigmoid", "affine_tanh", "concat_cols"
)


def _result_shape(op, sa, sb=None):
    if op == "transpose":
        return (sa[1], sa[0])
    if op in ("relu", "softmax_rows"):
        return sa
    if op == "matmul" or op.startswith("affine"):
        return (sa[0], sb[1]) if sa[1] == sb[0] else None
    if op == "concat_cols":
        return (sa[0], sa[1] + sb[1]) if sa[0] == sb[0] else None
    if op == "weighted_sum":
        # a one-entry stack of a, weighted by b broadcast over nothing or by its last row
        return sa if sa == sb or sb == (1, sa[1]) else None
    return sa if sa == sb else None


def _random_program(rng, n_params=3, n_ops=7):
    """Draw a random op DAG as a replayable program over parameter leaves."""
    shapes = [(int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(n_params)]
    params = [
        Parameter(f"p{i}", rng.uniform(-2.0, 2.0, size=s)) for i, s in enumerate(shapes)
    ]
    program = []
    pool = list(shapes)
    for _ in range(n_ops):
        for _attempt in range(20):
            if rng.random() < 0.4:
                op = _UNARY[int(rng.integers(len(_UNARY)))]
                i = int(rng.integers(len(pool)))
                out = _result_shape(op, pool[i])
                if out is not None:
                    program.append((op, i, None))
                    pool.append(out)
                    break
            else:
                op = _BINARY[int(rng.integers(len(_BINARY)))]
                i = int(rng.integers(len(pool)))
                j = int(rng.integers(len(pool)))
                out = _result_shape(op, pool[i], pool[j])
                if out is not None:
                    program.append((op, i, j))
                    pool.append(out)
                    break
    target = rng.uniform(-1.0, 1.0, size=pool[-1])
    return params, program, target


def _apply(tape, op, a, b=None):
    if op == "relu":
        # relu exists only as an activation: an identity affine
        return tape.affine(a, tape.constant(np.eye(a.value.shape[1])), act="relu")
    if b is None:
        return getattr(tape, op)(a)
    if op.startswith("affine"):
        return tape.affine(a, b, act=op.removeprefix("affine_"))
    if op == "weighted_sum":
        weight = b if b.value.shape == a.value.shape else tape.reshape(b, b.value.shape[1:])
        return tape.weighted_sum(tape.reshape(a, (1, *a.value.shape)), [weight])
    return getattr(tape, op)(a, b)


def _build_from_program(tape, params, program, target):
    nodes = [tape.param(p) for p in params]
    for op, i, j in program:
        nodes.append(_apply(tape, op, nodes[i], None if j is None else nodes[j]))
    return tape.mse_loss(nodes[-1], tape.constant(target))


def test_gradients_match_finite_differences_on_random_graphs():
    rng = np.random.default_rng(20240811)
    for _case in range(100):
        params, program, target = _random_program(rng)
        err = grad_check(
            lambda tape: _build_from_program(tape, params, program, target), params, step=1e-6
        )
        assert err < 1e-5, f"case {_case}: relative error {err:.3e}"


# ------------------------------------------------------------- batched ops


def _probe(tape, node, seed):
    """A scalar with a nontrivial upstream gradient for every entry of node."""
    weights = np.random.default_rng(seed).normal(size=node.value.shape)
    stack = tape.reshape(node, (1, *node.value.shape))
    return tape.sum(tape.weighted_sum(stack, [tape.constant(weights)]))


def _params(seed, **shapes):
    rng = np.random.default_rng(seed)
    return {name: Parameter(name, rng.uniform(-1.5, 1.5, size=s)) for name, s in shapes.items()}


def _check(build, params):
    err = grad_check(build, list(params.values()), step=1e-6)
    assert err < 1e-7, f"relative error {err:.3e}"


def test_grad_check_matmul_shared_left_matrix_times_stack():
    p = _params(1, a=(3, 3), s=(2, 4, 3, 2))
    _check(lambda t: _probe(t, t.matmul(t.param(p["a"]), t.param(p["s"])), 10), p)


def test_grad_check_matmul_stack_times_shared_right_matrix():
    # a stack times a shared right matrix is an affine without a bias
    p = _params(2, s=(2, 3, 4), m=(4, 2))
    _check(lambda t: _probe(t, t.affine(t.param(p["s"]), t.param(p["m"])), 11), p)


def test_matmul_stack_matches_per_matrix_products():
    rng = np.random.default_rng(3)
    a, s, m = rng.normal(size=(3, 3)), rng.normal(size=(4, 3, 2)), rng.normal(size=(2, 5))
    t = Tape()
    left = t.matmul(t.constant(a), t.constant(s)).value
    right = t.affine(t.constant(s), t.constant(m)).value
    for k in range(4):
        np.testing.assert_allclose(left[k], a @ s[k], rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(right[k], s[k] @ m, rtol=1e-14, atol=1e-14)
    # matmul has one form: the left operand is a matrix
    with pytest.raises(ShapeError, match="matmul"):
        t.matmul(t.constant(s), t.constant(m))
    with pytest.raises(ShapeError):
        t.matmul(t.constant(s), t.constant(s))


@pytest.mark.parametrize("act", [None, "relu", "sigmoid", "tanh"])
def test_grad_check_affine(act):
    p = _params(4, x=(2, 3, 4), w=(4, 6), b=(1, 6))

    def build(t):
        out = t.affine(t.param(p["x"]), t.param(p["w"]), t.param(p["b"]), act=act)
        return _probe(t, out, 12)

    _check(build, p)


def test_affine_matches_matmul_plus_bias_and_activation():
    rng = np.random.default_rng(5)
    x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 6)), rng.normal(size=(1, 6))
    t = Tape()
    plain = t.affine(t.constant(x), t.constant(w), t.constant(b)).value
    np.testing.assert_allclose(plain, x @ w + b, rtol=1e-14, atol=1e-14)
    relu = t.affine(t.constant(x), t.constant(w), t.constant(b), act="relu").value
    np.testing.assert_allclose(relu, np.maximum(x @ w + b, 0.0), atol=1e-14)
    squashed = t.affine(t.constant(x), t.constant(w), t.constant(b), act="tanh").value
    np.testing.assert_allclose(squashed, np.tanh(x @ w + b), atol=1e-14)
    no_bias = t.affine(t.constant(x), t.constant(w)).value
    np.testing.assert_allclose(no_bias, x @ w, rtol=1e-14, atol=1e-14)
    with pytest.raises(ShapeError):
        t.affine(t.constant(x), t.constant(w), t.constant(b[:, :4]))


def test_grad_check_weighted_sum_broadcasts_weights_over_leading_axes():
    p = _params(6, h=(3, 2, 3, 4), w0=(3, 4), w1=(4,), w2=(2, 3, 4))

    def build(t):
        h = t.param(p["h"])
        weights = [t.param(p[f"w{k}"]) for k in range(3)]
        # the stack is also read whole, so both adjoints meet in one
        return t.add(_probe(t, t.weighted_sum(h, weights), 13), _probe(t, h, 14))

    _check(build, p)


def test_weighted_sum_adds_the_stack_entries_in_order_and_checks_lengths():
    rng = np.random.default_rng(15)
    h, w = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4))
    t = Tape()
    out = t.weighted_sum(t.constant(h), [t.constant(row) for row in w]).value
    assert np.array_equal(out, (w[0] * h[0] + w[1] * h[1]) + w[2] * h[2])
    for weights in ([], [t.constant(w[0])] * 2, [t.constant(w[0])] * 4):
        with pytest.raises(ShapeError, match="weighted_sum"):
            t.weighted_sum(t.constant(h), weights)
    with pytest.raises(ShapeError, match="weighted_sum"):
        t.weighted_sum(t.constant(h), [t.constant(np.ones(3))] * 3)


def test_grad_check_take_with_repeated_and_unread_entries():
    p = _params(8, x=(5, 3, 2))
    # entry 2 is picked three times, 0 twice, 4 never
    index = np.array([[0, 2], [2, 2], [3, 0]])

    def build(t):
        x = t.param(p["x"])
        # the whole x is read too, so picked and whole adjoints meet
        return t.add(_probe(t, t.take(x, index), 19), _probe(t, x, 20))

    _check(build, p)


def test_take_values_and_scatter_added_gradient():
    t = Tape()
    x = Parameter("x", np.arange(8.0).reshape(4, 2))
    picked = t.take(t.param(x), np.array([[3, 1], [1, 1]]))
    np.testing.assert_array_equal(picked.value, [[[6, 7], [2, 3]], [[2, 3], [2, 3]]])
    t.backward(t.sum(picked))
    np.testing.assert_array_equal(t.grad_for(x), [[0, 0], [3, 3], [0, 0], [1, 1]])


# index shape, row shape, rows: repeats, a 0-D pick, a 2-D index, empty indices
SCATTERS = [((40,), (3, 2), 6), ((), (4, 5), 3), ((5, 4), (3,), 7), ((0,), (2, 3), 4), ((3, 0), (2,), 2)]


@pytest.mark.parametrize("index_shape, row, n", SCATTERS)
def test_scatter_add_and_take_backward_are_np_add_at_bit_for_bit(index_shape, row, n):
    rng = np.random.default_rng(len(index_shape) + n)
    index = rng.integers(0, n, size=index_shape)
    shape = index_shape + row
    # magnitudes 1e-8 .. 1e8, so the order of the adds decides the rounding
    g = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    g.reshape(-1)[::3] = -0.0
    for adjoint in (g, np.full(shape, -0.0)):
        want = np.zeros((n,) + row)
        np.add.at(want, index, adjoint)
        got = scatter_add(index, adjoint, n)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        t = Tape()
        picked = t.take(t.param(Parameter("x", np.zeros((n,) + row))), index)
        (back,) = picked._vjp(adjoint)
        assert back.tobytes() == want.tobytes()


def test_take_rejects_bad_indices():
    t = Tape()
    x = t.constant(np.zeros((3, 2)))
    for bad in (np.array([3]), np.array([-1]), np.array([0.0])):
        with pytest.raises(ShapeError, match="take"):
            t.take(x, bad)


def test_unused_block_gets_zero_gradient():
    t = Tape()
    w = Parameter("w", np.ones((2, 4)))
    first = t.take(t.param(w), np.array(0))
    t.backward(t.sum(first))
    np.testing.assert_array_equal(t.grad_for(w), [[1.0, 1.0, 1.0, 1.0], [0, 0, 0, 0]])


def test_grad_check_reshape_broadcast_and_concat():
    p = _params(8, row=(1, 3), cols=(2, 1, 3), x=(2, 5, 2))

    def build(t):
        wide = t.broadcast_to(t.param(p["row"]), (2, 5, 3))
        tall = t.broadcast_to(t.param(p["cols"]), (2, 5, 3))
        joined = t.concat_cols(wide, t.param(p["x"]), tall)
        return _probe(t, t.reshape(joined, (10, 8)), 19)

    _check(build, p)


def test_grad_check_mse_per_sample_and_mean():
    p = _params(9, pred=(3, 4, 1))
    target = np.random.default_rng(20).normal(size=(3, 4, 1))

    def build(t):
        losses = t.mse_per_sample(t.param(p["pred"]), t.constant(target))
        return t.add(t.mean(losses), _probe(t, losses, 21))

    _check(build, p)


def test_mse_per_sample_entries_are_per_sample_mse_loss():
    rng = np.random.default_rng(22)
    pred, target = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 4, 2))
    t = Tape()
    vec = t.mse_per_sample(t.constant(pred), t.constant(target)).value
    for b in range(3):
        one = t.mse_loss(t.constant(pred[b]), t.constant(target[b])).value
        assert vec[b] == pytest.approx(float(one), rel=1e-15)
    assert float(t.mean(t.constant(vec)).value) == pytest.approx(vec.mean(), rel=1e-15)


def _lstm_gates(seed, d_in, hidden):
    return _params(
        seed,
        **{f"w{k}": (hidden + d_in, hidden) for k in range(4)},
        **{f"b{k}": (1, hidden) for k in range(4)},
    )


def test_grad_check_two_stacked_lstm_layers_over_a_batch():
    # P = 3 steps of a 2 x 2-row batch; the first layer's input is a
    # parameter too, so its gradient is checked with the weights'
    low, high = _lstm_gates(24, 3, 4), _lstm_gates(25, 4, 4)
    p = {"x": _params(26, x=(3, 2, 2, 3))["x"]}
    p.update({f"low_{k}": v for k, v in low.items()})
    p.update({f"high_{k}": v for k, v in high.items()})

    def layer(t, x, prefix):
        weights = [t.param(p[f"{prefix}_w{k}"]) for k in range(4)]
        biases = [t.param(p[f"{prefix}_b{k}"]) for k in range(4)]
        return t.lstm_layer(x, weights, biases)

    def build(t):
        first = layer(t, t.param(p["x"]), "low")
        # every step of both layers reaches the loss
        return t.add(_probe(t, first, 27), _probe(t, layer(t, first, "high"), 28))

    _check(build, p)


def _joined_lstm_reference(xv, wvs, bvs, g):
    """The layer with its four f, i, c, o gate matrices joined side by side,
    one rows x 4H block of gates per step: its value, then the adjoints of
    the input, the four weights and the four biases for the output adjoint
    ``g``."""
    hidden, d_in, steps = bvs[0].shape[1], xv.shape[-1], xv.shape[0]
    cols = [slice(k * hidden, (k + 1) * hidden) for k in range(4)]

    def joined(lo, hi):
        return np.concatenate([wv[lo:hi] for wv in wvs], axis=1)

    xs = xv.reshape(steps, -1, d_in)
    w_x, w_h, b = joined(hidden, None), joined(0, hidden), np.concatenate(bvs, axis=1)
    gates = np.empty((steps, xs.shape[1], 4 * hidden))
    h = np.empty(xs.shape[:2] + (hidden,))
    c = np.empty_like(h)
    for t in range(steps):
        a = gates[t]
        np.matmul(xs[t], w_x, out=a)
        a += b
        if t:
            a += h[t - 1] @ w_h
        f, i, cand, o = (a[:, s] for s in cols)
        _sigmoid_(a[:, : 2 * hidden])
        np.tanh(cand, out=cand)
        _sigmoid_(o)
        np.multiply(i, cand, out=c[t])
        if t:
            c[t] += f * c[t - 1]
        np.tanh(c[t], out=h[t])
        h[t] *= o

    g = g.reshape(h.shape)
    d_gates = np.empty_like(gates)
    dh, dc = g[-1], 0.0
    for t in range(steps - 1, -1, -1):
        f, i, cand, o = (gates[t][:, s] for s in cols)
        df, di, dcand, do = (d_gates[t][:, s] for s in cols)
        tc = np.tanh(c[t])
        np.multiply(dh * tc, o * (1.0 - o), out=do)
        dc = dh * o * (1.0 - tc * tc) + dc
        if t:
            np.multiply(dc * c[t - 1], f * (1.0 - f), out=df)
        else:
            df[...] = 0.0
        np.multiply(dc * cand, i * (1.0 - i), out=di)
        np.multiply(dc * i, 1.0 - cand * cand, out=dcand)
        dc = dc * f
        if t:
            dh = g[t - 1] + d_gates[t] @ w_h.T
    flat = d_gates.reshape(-1, 4 * hidden)
    d_wx = xv.reshape(-1, d_in).T @ flat
    d_wh = h[:-1].reshape(-1, hidden).T @ d_gates[1:].reshape(-1, 4 * hidden)
    d_b = flat.sum(axis=0, keepdims=True)
    d_x = (flat @ w_x.T).reshape(xv.shape)
    value = h.reshape(*xv.shape[:-1], hidden)
    return [
        value,
        d_x,
        *(np.concatenate([d_wh[:, s], d_wx[:, s]]) for s in cols),
        *(d_b[:, s] for s in cols),
    ]


def _lstm_outputs(record, x, p):
    t = Tape(record=record)
    out = t.lstm_layer(
        t.param(x), [t.param(p[f"w{k}"]) for k in range(4)], [t.param(p[f"b{k}"]) for k in range(4)]
    )
    return t, out


def _lstm_against_the_joined_form(steps, lead, d_in, hidden, seed):
    p = _lstm_gates(seed, d_in, hidden)
    x = Parameter("x", np.random.default_rng(seed + 1).normal(size=(steps, *lead, d_in)))
    g = np.random.default_rng(seed + 2).normal(size=(steps, *lead, hidden))
    _, out = _lstm_outputs(True, x, p)
    got = [out.value, *out._vjp(g)]
    want = _joined_lstm_reference(
        x.value, [p[f"w{k}"].value for k in range(4)], [p[f"b{k}"].value for k in range(4)], g
    )
    assert np.array_equal(_lstm_outputs(False, x, p)[1].value, out.value)
    return got, want


# P x rows x D x H: criterion 4 (a 32-window batch of 10 nodes) and the paper
# default's two layers (2 windows of 170 nodes)
@pytest.mark.parametrize(
    "steps, lead, d_in, hidden",
    [(3, (32, 10), 16, 32), (3, (2, 170), 64, 256), (3, (2, 170), 256, 256)],
)
def test_lstm_layer_is_the_joined_matrix_form_bit_for_bit(steps, lead, d_in, hidden):
    got, want = _lstm_against_the_joined_form(steps, lead, d_in, hidden, seed=40)
    assert len(got) == len(want) == 10
    for k, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape and np.array_equal(a, b), f"output {k} differs"


# A gate's own product x @ W_g is one GEMM of H columns; the joined form takes
# the gate's columns of one 4H-column GEMM. BLAS kernels tile columns in
# fixed widths, and where H is not a multiple of that width a column can be
# summed in a different order: OpenBLAS 0.3.31 on AVX-512 gives different
# last bits at H = 5 with D >= 16, and at H = 1. So odd shapes agree to
# rounding, and the forward-only value equals the recorded one exactly.
@pytest.mark.parametrize(
    "steps, lead, d_in, hidden",
    [(1, (7,), 3, 5), (1, (4, 3), 16, 5), (2, (13,), 33, 17), (4, (3,), 2, 1), (5, (1,), 4, 8)],
)
def test_lstm_layer_agrees_with_the_joined_matrix_form_at_odd_shapes(steps, lead, d_in, hidden):
    got, want = _lstm_against_the_joined_form(steps, lead, d_in, hidden, seed=41)
    for k, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape, f"output {k}"
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14, err_msg=f"output {k}")


def test_lstm_layer_refuses_gates_that_do_not_fit():
    t = Tape()
    p = _lstm_gates(29, 3, 4)
    weights = [t.param(p[f"w{k}"]) for k in range(4)]
    biases = [t.param(p[f"b{k}"]) for k in range(4)]
    with pytest.raises(ShapeError, match="lstm_layer"):
        t.lstm_layer(t.constant(np.zeros((2, 5, 2))), weights, biases)
    with pytest.raises(ShapeError, match="lstm_layer"):
        t.lstm_layer(t.constant(np.zeros((2, 5, 3))), weights[:3], biases[:3])
    out = t.lstm_layer(t.constant(np.zeros((2, 5, 3))), weights, biases)
    assert out.value.shape == (2, 5, 4)


def _two_lstm_layers(tape, x, low, high):
    """Two stacked LSTM layers over ``x``, summed with a probe: a scalar."""
    out = x
    for p in (low, high):
        out = tape.lstm_layer(
            out, [tape.param(p[f"w{k}"]) for k in range(4)], [tape.param(p[f"b{k}"]) for k in range(4)]
        )
    return _probe(tape, out, 52)


def test_tapes_that_reuse_a_workspace_get_the_gradients_of_fresh_buffers_bit_for_bit():
    # the second tape reads views of the first one's buffers, the third
    # needs larger ones
    low, high = _lstm_gates(50, 3, 4), _lstm_gates(51, 4, 4)
    params = [*low.values(), *high.values()]
    workspace = Workspace()
    for rows in (5, 3, 8):
        x = np.random.default_rng(rows).normal(size=(3, rows, 3))
        results = []
        for tape in (Tape(workspace=workspace), Tape()):
            loss = _two_lstm_layers(tape, tape.constant(x), low, high)
            tape.backward(loss)
            results.append((loss.value, [tape.grad_for(p) for p in params]))
        (got, got_grads), (want, want_grads) = results
        assert got == want
        for a, b in zip(got_grads, want_grads):
            assert np.array_equal(a, b)


def test_a_tape_whose_workspace_was_lent_again_refuses_backward():
    low, high = _lstm_gates(53, 3, 4), _lstm_gates(54, 4, 4)
    x = np.random.default_rng(55).normal(size=(3, 5, 3))
    workspace = Workspace()
    first = Tape(workspace=workspace)
    first_loss = _two_lstm_layers(first, first.constant(x), low, high)
    # lent before the first tape's backward: its gates are the second's now
    second = Tape(workspace=workspace)
    second_loss = _two_lstm_layers(second, second.constant(x), low, high)
    with pytest.raises(ContractError, match="workspace was lent to a later tape"):
        first.backward(first_loss)
    second.backward(second_loss)
    assert np.any(second.grad_for(low["w0"]) != 0.0)
    third = Tape(workspace=workspace)
    third_loss = _two_lstm_layers(third, third.constant(x), low, high)
    workspace.release()
    with pytest.raises(ContractError, match="workspace was lent to a later tape"):
        third.backward(third_loss)


def test_per_sample_losses_weighted_by_one_over_b_give_the_gradient_of_their_mean_bitwise():
    w = Parameter("w", np.random.default_rng(56).normal(size=(3, 2, 1)))
    target = np.random.default_rng(57).normal(size=(3, 2, 1))
    weighted, mean = Tape(), Tape()
    weighted.backward(weighted.mse_per_sample(weighted.param(w), weighted.constant(target)), 1 / 3)
    mean.backward(mean.mean(mean.mse_per_sample(mean.param(w), mean.constant(target))))
    assert np.array_equal(weighted.grad_for(w), mean.grad_for(w))
    assert np.any(mean.grad_for(w) != 0.0)


def test_forward_only_tape_records_nothing_and_refuses_backward():
    rng = np.random.default_rng(23)
    w = Parameter("w", rng.normal(size=(3, 2)))
    x = rng.normal(size=(4, 3))

    def build(t):
        return t.sum(t.affine(t.constant(x), t.param(w), act="tanh"))

    recorded, free = Tape(), Tape(record=False)
    loss = build(free)
    assert free.nodes == []
    assert float(loss.value) == float(build(recorded).value)
    with pytest.raises(ContractError):
        free.backward(loss)


def test_a_scalar_keeps_shape_0d_forward_only_recorded_and_as_a_parameter():
    assert Tape(record=False).constant(3.0).value.shape == ()
    assert Tape().constant(3.0).value.shape == ()
    assert Parameter("p", 3.0).value.shape == ()
    assert Tape(record=False).constant(np.zeros((3, 2)).T).value.flags.c_contiguous


def test_backward_keeps_no_adjoint_for_constants():
    # a constant-only subgraph keeps no closure; the parameter still gets its gradient
    t = Tape()
    w = Parameter("w", [[2.0]])
    c = t.affine(t.constant([[3.0]]), t.constant([[1.0]]), act="relu")
    loss = t.sum(t.weighted_sum(t.reshape(t.param(w), (1, 1, 1)), [c]))
    assert c._vjp is None and not c.needs_grad
    t.backward(loss)
    np.testing.assert_array_equal(t.grad_for(w), [[3.0]])


def test_sigmoid_tanh_form_matches_the_piecewise_reference():
    x = np.concatenate([np.linspace(-800.0, 800.0, 16001), [-745.0, -40.0, 0.0, 40.0]])
    pos = x >= 0
    reference = np.empty_like(x)
    reference[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    reference[~pos] = ex / (1.0 + ex)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        out = _act(Tape(), "sigmoid", x)
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out - reference)) <= 1e-15
    assert out[0] == 0.0 and out[16000] == 1.0
