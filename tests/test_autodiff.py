import warnings

import numpy as np
import pytest

from stgf.autodiff import Parameter, Tape
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
    np.testing.assert_array_equal(
        t.hadamard(t.constant([[1.0, 2.0]]), t.constant([[3.0, 4.0]])).value, [[3.0, 8.0]]
    )
    x = t.constant([[2.5, -1.0]])
    np.testing.assert_array_equal(t.add(x, t.constant([[0.0, 0.0]])).value, x.value)
    np.testing.assert_array_equal(t.sub(x, x).value, [[0.0, 0.0]])


def test_elementwise_shape_error():
    t = Tape()
    with pytest.raises(ShapeError):
        t.add(t.constant([[1.0]]), t.constant([[1.0, 2.0]]))


def test_activations():
    t = Tape()
    np.testing.assert_array_equal(t.relu(t.constant([-1.0, 0.0, 2.0])).value, [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(t.sigmoid(t.constant([0.0])).value, [0.5])
    np.testing.assert_array_equal(t.tanh(t.constant([0.0])).value, [0.0])


def test_relu_derivative_is_zero_at_zero():
    t = Tape()
    w = Parameter("w", [0.0, -1.0, 3.0])
    loss = t.sum(t.relu(t.param(w)))
    t.backward(loss)
    np.testing.assert_array_equal(t.grad_for(w), [0.0, 0.0, 1.0])


def test_sigmoid_no_overflow_at_extremes():
    t = Tape()
    out = t.sigmoid(t.constant([-1000.0, 1000.0]))
    np.testing.assert_allclose(out.value, [0.0, 1.0])
    assert np.all(np.isfinite(out.value))


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


def test_backward_twice_doubles_gradients():
    t = Tape()
    w = Parameter("w", [[1.0, -2.0], [0.5, 4.0]])
    nw = t.param(w)
    h = t.tanh(t.matmul(nw, nw))
    loss = t.mse_loss(h, t.constant(np.zeros((2, 2))))
    t.backward(loss)
    once = t.grad_for(w)
    assert np.any(once != 0.0)
    t.backward(loss)
    np.testing.assert_array_equal(t.grad_for(w), 2.0 * once)


def test_param_binds_each_parameter_once_without_copying():
    t = Tape()
    w = Parameter("w", np.ones((2, 2)))
    assert t.param(w) is t.param(w)
    assert len(t.nodes) == 1
    assert np.shares_memory(t.param(w).value, w.value)


def test_tape_is_topologically_ordered():
    t = Tape()
    a = t.constant([[1.0]])
    b = t.relu(a)
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

_UNARY = ("relu", "sigmoid", "tanh", "softmax_rows", "transpose")
_BINARY = ("add", "sub", "hadamard", "matmul", "concat_cols")


def _result_shape(op, sa, sb=None):
    if op == "transpose":
        return (sa[1], sa[0])
    if op in ("relu", "sigmoid", "tanh", "softmax_rows"):
        return sa
    if op == "matmul":
        return (sa[0], sb[1]) if sa[1] == sb[0] else None
    if op == "concat_cols":
        return (sa[0], sa[1] + sb[1]) if sa[0] == sb[0] else None
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


def _build_from_program(tape, params, program, target):
    nodes = [tape.param(p) for p in params]
    for op, i, j in program:
        if j is None:
            nodes.append(getattr(tape, op)(nodes[i]))
        else:
            nodes.append(getattr(tape, op)(nodes[i], nodes[j]))
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
    return tape.sum(tape.hadamard(node, tape.constant(weights)))


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
    p = _params(2, s=(2, 3, 4), m=(4, 2))
    _check(lambda t: _probe(t, t.matmul(t.param(p["s"]), t.param(p["m"])), 11), p)


def test_matmul_stack_matches_per_matrix_products():
    rng = np.random.default_rng(3)
    a, s, m = rng.normal(size=(3, 3)), rng.normal(size=(4, 3, 2)), rng.normal(size=(2, 5))
    t = Tape()
    left = t.matmul(t.constant(a), t.constant(s)).value
    right = t.matmul(t.constant(s), t.constant(m)).value
    for k in range(4):
        np.testing.assert_allclose(left[k], a @ s[k], rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(right[k], s[k] @ m, rtol=1e-14, atol=1e-14)
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
    p = _params(6, h0=(2, 3, 4), h1=(2, 3, 4), h2=(2, 3, 4), w0=(3, 4), w1=(4,), w2=(2, 3, 4))

    def build(t):
        parts = [t.param(p[f"h{k}"]) for k in range(3)]
        weights = [t.param(p[f"w{k}"]) for k in range(3)]
        return _probe(t, t.weighted_sum(parts, weights), 13)

    _check(build, p)


def test_grad_check_unstack_views():
    p = _params(7, x=(3, 2, 5))

    def build(t):
        x = t.param(p["x"])
        first, _, last = t.unstack(x)
        # x is also read whole, so block and whole gradients meet in one adjoint
        total = t.add(_probe(t, x, 15), _probe(t, last, 17))
        return t.add(total, _probe(t, first, 18))

    _check(build, p)


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


def test_take_rejects_bad_indices():
    t = Tape()
    x = t.constant(np.zeros((3, 2)))
    for bad in (np.array([3]), np.array([-1]), np.array([0.0])):
        with pytest.raises(ShapeError, match="take"):
            t.take(x, bad)


def test_unstack_returns_views():
    t = Tape()
    x = t.constant(np.arange(24.0).reshape(2, 3, 4))
    parts = t.unstack(x)
    assert len(parts) == 2 and all(np.shares_memory(q.value, x.value) for q in parts)
    np.testing.assert_array_equal(parts[1].value, x.value[1])
    with pytest.raises(ShapeError):
        t.unstack(t.constant(np.asarray(1.0)))


def test_unused_block_gets_zero_gradient():
    t = Tape()
    w = Parameter("w", np.ones((2, 4)))
    first, _ = t.unstack(t.param(w))
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


def test_forward_only_tape_records_nothing_and_refuses_backward():
    rng = np.random.default_rng(23)
    w = Parameter("w", rng.normal(size=(3, 2)))
    x = rng.normal(size=(4, 3))

    def build(t):
        return t.sum(t.tanh(t.matmul(t.constant(x), t.param(w))))

    recorded, free = Tape(), Tape(record=False)
    loss = build(free)
    assert free.nodes == []
    assert float(loss.value) == float(build(recorded).value)
    with pytest.raises(ContractError):
        free.backward(loss)


def test_backward_keeps_no_adjoint_for_constants():
    # a constant-only subgraph keeps no closure; the parameter still gets its gradient
    t = Tape()
    w = Parameter("w", [[2.0]])
    c = t.relu(t.constant([[3.0]]))
    loss = t.sum(t.hadamard(c, t.param(w)))
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
        t = Tape()
        out = t.sigmoid(t.constant(x)).value
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out - reference)) <= 1e-15
    assert out[0] == 0.0 and out[16000] == 1.0
