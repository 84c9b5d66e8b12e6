"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records one forward pass as an append-only list of ``Node``
objects (define-by-run, so the graph is rebuilt on every pass). Each node
stores its value and a closure mapping the node's output adjoint to
adjoints of its inputs. ``Tape.backward`` walks the list in reverse, which
is a valid traversal order because an op can only reference nodes created
before it. The walk is one sweep: it drops each node's closure right after
running it, so what a closure held (an LSTM layer's gates and cell
states) is freed as the sweep passes it, and a second ``backward`` on the
same tape is refused. Node values stay. Each intermediate adjoint is
dropped as soon as its node's closure has consumed it; only those of bound
parameters are kept, in one store the tape owns (``grad_for`` reads it,
``accumulate_param_grads`` adds it into a caller's gradient arrays). A
node none of whose inputs leads back to a parameter keeps no closure and
receives no adjoint.

Values are plain numpy arrays in double precision. A leading batch axis
(or several) is allowed wherever an op reads only the trailing axes: the
columns are the last axis, and ``matmul`` has one form, a matrix applied
to a matrix or to every matrix of a stack. Relu, sigmoid and tanh are
activations of ``affine`` only (``lstm_layer`` applies its own gates),
and ``mse_loss`` is ``mse_per_sample`` of a batch of one. ``take``
gathers entries along the first axis by an index array and scatters their
adjoints back with ``scatter_add``, one ``np.bincount`` that adds in index
order as ``np.add.at`` does, so an entry may be picked more than once.
``weighted_sum`` adds the entries of a stack's first axis, each scaled
elementwise by its own weight. ``add`` requires exactly equal
shapes; every broadcast belongs to an op that says so (``broadcast_to``,
the bias row of ``affine``, the weights of ``weighted_sum``) and whose
backward sums the gradient back over the broadcast axes.

Most ops are small, but ``lstm_layer`` runs a whole recurrent layer over a
sequence as one node: it keeps what its hand-written backward needs
(the gate activations, gate-major so that each gate is one contiguous
block, and the cell states) in its closure, not as nodes. Because the
closure runs once, its backward writes over those arrays as it consumes
them.

A tape built with ``record=False`` runs the same ops forward only: it
keeps no node list and no closures, so each intermediate is freed as soon
as the calling code drops it, and ``backward`` is refused.

Tapes are single-threaded; nodes and their value arrays must be treated
as immutable once created. A parameter leaf aliases ``Parameter.value``,
so a parameter must not be mutated between binding it on a tape and that
tape's ``backward`` (the optimizer only writes between tapes).
Independent tapes may run concurrently.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Array = np.ndarray

# vjp: maps the node's output adjoint to one adjoint per input, in order:
# an array of that input's shape, or None for an input that needs no gradient
Vjp = Callable[[Array], Sequence[object]]


def as_tensor(x) -> Array:
    """Coerce to a C-contiguous float64 array (the universal value type),
    keeping its shape, a 0-D one included."""
    return np.asarray(x, dtype=np.float64, order="C")


def scatter_add(index, values: Array, n: int) -> Array:
    """``n`` rows, row i the sum of the entries of ``values`` (an array of
    ``index.shape`` plus the row shape) whose ``index`` is i; an index not
    in [0, n) is the caller's to refuse. One ``np.bincount`` over flattened
    bins adds each row's entries in index order, as ``np.add.at`` does, so
    the sums are bitwise the same."""
    index = np.asarray(index, dtype=np.intp)
    row = values.shape[index.ndim :]
    width = int(np.prod(row, dtype=np.intp))
    bins = (index.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    return np.bincount(bins, weights=values.reshape(-1), minlength=n * width).reshape(n, *row)


def _require_matrix(op: str, name: str, a: Array) -> None:
    if a.ndim != 2:
        raise ShapeError(f"{op}: {name} must be 2-D, got shape {a.shape}")


def _rows(a: Array) -> Array:
    """The array as one matrix with a row per leading index."""
    return a.reshape(-1, a.shape[-1])


def _sigmoid_(v: Array) -> None:
    # 0.5 * (1 + tanh(v / 2)): no exp, so no overflow for any |v|
    v *= 0.5
    np.tanh(v, out=v)
    v += 1.0
    v *= 0.5


def _sigmoid_slope(y: Array, out: Array | None = None) -> Array:
    """The sigmoid's derivative at its output, ``y * (1 - y)``."""
    rest = np.subtract(1.0, y, out=out)
    return np.multiply(y, rest, out=rest)


def _tanh_slope(y: Array, out: Array | None = None) -> Array:
    """The tanh's derivative at its output, ``1 - y * y``."""
    square = np.multiply(y, y, out=out)
    return np.subtract(1.0, square, out=square)


# name -> (apply in place to a float array, derivative as a function of the output)
_ACTIVATIONS: dict[str, tuple[Callable[[Array], object], Callable[[Array], Array]]] = {
    # the output is positive exactly where the input is, and the subgradient
    # at exactly 0 is defined as 0
    "relu": (lambda v: np.maximum(v, 0.0, out=v), lambda y: y > 0.0),
    "sigmoid": (_sigmoid_, _sigmoid_slope),
    "tanh": (lambda v: np.tanh(v, out=v), _tanh_slope),
}


class Node:
    """One recorded operation result on a tape.

    ``input_ids`` reference strictly earlier nodes. ``needs_grad`` is set
    when some input leads back to a bound parameter. A node holds no
    gradient; ``Tape.grad_for`` reads the adjoints kept for parameters.
    """

    __slots__ = ("id", "op", "input_ids", "value", "needs_grad", "_vjp")

    def __init__(self, nid: int, op: str, input_ids: tuple, value: Array, vjp, needs_grad: bool):
        self.id = nid
        self.op = op
        self.input_ids = input_ids
        self.value = value
        self.needs_grad = needs_grad
        self._vjp = vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(id={self.id}, op={self.op!r}, shape={self.value.shape})"


class Parameter:
    """A named trainable array that persists across tapes.

    A parameter holds no gradient: a tape keeps the gradients of the
    parameters bound on it (``Tape.grad_for``). Inside a ``ModelParams``
    the value is a view into the set's one flat vector.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value) -> None:
        self.name = name
        self.value = as_tensor(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Tape:
    """Append-only record of one forward pass (see the module docstring for
    ``record=False``)."""

    def __init__(self, record: bool = True) -> None:
        self.record = record
        self.nodes: list[Node] = []
        self._bindings: dict[Parameter, Node] = {}
        self._grads: dict[Parameter, Array] = {}
        self._swept = False

    # ------------------------------------------------------------------ leaves

    def _push(self, op: str, inputs: tuple[Node, ...], value: Array, vjp: Vjp | None) -> Node:
        if not self.record:
            return Node(-1, op, (), value, None, False)
        needs_grad = any(n.needs_grad for n in inputs)
        node = Node(
            len(self.nodes),
            op,
            tuple(n.id for n in inputs),
            value,
            vjp if needs_grad else None,
            needs_grad,
        )
        self.nodes.append(node)
        return node

    def constant(self, x) -> Node:
        """Enter a non-trainable value (data, adjacency, initial state).

        A recording tape copies the value: tape values are immutable
        snapshots, so later in-place edits of the source array cannot
        corrupt the record.
        """
        value = np.array(x, dtype=np.float64, order="C") if self.record else as_tensor(x)
        return self._push("const", (), value, None)

    def param(self, p: Parameter) -> Node:
        """The leaf bound to ``p`` on this tape, created on first use.

        The leaf's value is ``p.value`` itself, not a copy, so ``p`` must
        not be mutated until this tape's ``backward`` has run.
        """
        node = self._bindings.get(p)
        if node is None:
            node = self._push("param", (), p.value, None)
            node.needs_grad = self.record
            self._bindings[p] = node
        return node

    # ------------------------------------------------------------------- ops

    def matmul(self, a: Node, b: Node) -> Node:
        """``a @ b`` for a matrix ``a`` and a matrix or stack of matrices ``b``.

        ``a`` is applied to every matrix of the stack (``N x N @ B x N x d``);
        its gradient is summed over the stack.
        """
        av, bv = a.value, b.value
        if av.ndim != 2 or bv.ndim < 2:
            raise ShapeError(
                f"matmul: needs a matrix times a matrix or a stack, got {av.shape} x {bv.shape}"
            )
        if av.shape[-1] != bv.shape[-2]:
            raise ShapeError(f"matmul: inner dimensions disagree, {av.shape} x {bv.shape}")
        need_a, need_b = a.needs_grad, b.needs_grad

        def vjp(g: Array):
            # sum over the stack of g_k @ b_k^T, as one contraction
            axes = [*range(g.ndim - 2), g.ndim - 1]
            return (
                np.tensordot(g, bv, axes=(axes, axes)) if need_a else None,
                np.matmul(av.T, g) if need_b else None,
            )

        return self._push("matmul", (a, b), np.matmul(av, bv), vjp)

    def affine(self, x: Node, w: Node, b: Node | None = None, act: str | None = None) -> Node:
        """``act(x @ w + b)`` as one node, with the 1 x k bias row ``b`` added
        to every row.

        ``x`` may carry leading batch axes; the bias gradient sums over every
        row. ``act`` names the activation applied to every entry. The
        pre-activation is never kept: the derivative is computed from the
        output.
        """
        xv, wv = x.value, w.value
        _require_matrix("affine", "weight", wv)
        if xv.ndim < 2 or xv.shape[-1] != wv.shape[0]:
            raise ShapeError(f"affine: inner dimensions disagree, {xv.shape} x {wv.shape}")
        k = wv.shape[1]
        if b is not None and b.value.shape != (1, k):
            raise ShapeError(f"affine: bias must be {(1, k)}, got {b.value.shape}")
        apply, derivative = _ACTIVATIONS[act] if act else (None, None)

        value = _rows(xv) @ wv
        if b is not None:
            value += b.value
        if apply is not None:
            apply(value)
        inputs = (x, w) if b is None else (x, w, b)
        need = [n.needs_grad for n in inputs]

        def vjp(g: Array):
            g2 = _rows(g)
            if derivative is not None:
                g2 = g2 * derivative(value)
            grads = [
                (g2 @ wv.T).reshape(xv.shape) if need[0] else None,
                _rows(xv).T @ g2 if need[1] else None,
            ]
            if b is not None:
                grads.append(g2.sum(axis=0, keepdims=True) if need[2] else None)
            return grads

        # "matmul" in the op name marks it as a matrix product for FLOP counts
        return self._push("affine_matmul", inputs, value.reshape(*xv.shape[:-1], k), vjp)

    def lstm_layer(self, x: Node, weights: Sequence[Node], biases: Sequence[Node]) -> Node:
        """One LSTM layer run over a whole sequence, as one node.

        ``x`` is P x ... x D: P steps, each a block of independent rows (any
        axes between the first and the last). ``weights`` and ``biases`` are
        the forget, input, candidate and output gates' (H + D) x H matrices
        and 1 x H rows, in that order; the first H rows of a gate matrix
        multiply the previous hidden state and the rest the step's input.
        Hidden and cell state start at zero, and the result is the P hidden
        states, P x ... x H.

        The forward holds each step's gates gate-major, 4 x rows x H in the
        order forget, input, output, candidate, so the three sigmoid gates
        are one contiguous block and the candidate another. Each gate's
        pre-activation is its own pair of products with views of its
        matrix, ``x_t @ W[H:] + b + h @ W[:H]`` added in that order, so no
        joined weight copy is made. The node keeps only the gate
        activations and the cell states; its vjp is backpropagation through
        time over four reused rows x H buffers and one rows x 4H buffer,
        and writes the gate adjoints row-major in parameter order, so that
        each weight gradient is one product over all P steps and the input
        and recurrent adjoints are one product each with the matrices
        joined side by side.

        The vjp runs once (``Tape.backward`` is one sweep), so it spends
        what the forward kept: ``tanh(c_t)`` is written over ``c_t``, and
        step t's four gate adjoints, formed in the rows x 4H buffer, are
        copied over step t's gates once the step has read them for the
        last time. Both weight-gradient products write into the row blocks
        of one (H + D) x 4H array, and each gate's gradient is a column
        view of it.
        """
        xv = x.value
        if xv.ndim < 2 or len(weights) != 4 or len(biases) != 4:
            raise ShapeError(
                f"lstm_layer: needs a P x ... x D sequence and 4 gates, got {xv.shape} "
                f"with {len(weights)} weights and {len(biases)} biases"
            )
        wvs, bvs = [w.value for w in weights], [b.value for b in biases]
        steps, d_in, hidden = xv.shape[0], xv.shape[-1], bvs[0].shape[-1]
        if {w.shape for w in wvs} != {(hidden + d_in, hidden)} or {b.shape for b in bvs} != {(1, hidden)}:
            raise ShapeError(
                f"lstm_layer: gate weights {[w.shape for w in wvs]} and biases "
                f"{[b.shape for b in bvs]} do not fit input width {d_in}"
            )
        cols = [slice(k * hidden, (k + 1) * hidden) for k in range(4)]

        def joined(lo: int, hi: int | None) -> Array:
            # rows lo:hi of every gate matrix, side by side: H or D x 4H
            return np.concatenate([wv[lo:hi] for wv in wvs], axis=1)

        xs = xv.reshape(steps, -1, d_in)
        rows = xs.shape[1]
        # gate-major order f, i, o, c, as indices into the parameters' f, i, c, o
        order = (0, 1, 3, 2)
        # the backward reads every step's gates and cell states; a tape that
        # records nothing reuses one block of each, which bounds the memory
        # of a forward-only pass
        kept = steps if self.record else 1
        gates = np.empty((kept, 4, rows, hidden))
        h = np.empty((steps, rows, hidden))
        c = np.empty((kept, rows, hidden))
        buf = np.empty((rows, hidden))
        for t in range(steps):
            a, c_t = gates[t % kept], c[t % kept]
            for gate, k in zip(a, order):
                np.matmul(xs[t], wvs[k][hidden:], out=gate)
                gate += bvs[k]
                if t:
                    gate += np.matmul(h[t - 1], wvs[k][:hidden], out=buf)
            f, i, o, cand = a
            _sigmoid_(a[:3])
            np.tanh(cand, out=cand)
            if t:  # before c_t, which may be the block holding c_{t-1}
                np.multiply(f, c[(t - 1) % kept], out=buf)
            np.multiply(i, cand, out=c_t)
            if t:
                c_t += buf
            np.tanh(c_t, out=h[t])
            h[t] *= o

        def vjp(g: Array):
            g = g.reshape(h.shape)
            w_h = joined(0, hidden)
            # step t's gate adjoints, row-major in parameter order, overwrite
            # step t's gates once the step has read them for the last time
            d_gates = gates.reshape(steps, rows, 4 * hidden)
            # u and v hold the two factors of each gate adjoint, rounded op
            # by op as in do = (dh * tanh(c)) * (o * (1 - o))
            u, v, dc, dh_next = np.empty((4, rows, hidden))
            step = np.empty((rows, 4 * hidden))
            df, di, dcand, do = (step[:, s] for s in cols)
            dc[...] = 0.0
            dh = g[-1]
            for t in range(steps - 1, -1, -1):
                f, i, o, cand = gates[t]
                # c_t is read here for the last time, so tanh(c_t) replaces it
                tc = np.tanh(c[t], out=c[t])
                np.multiply(np.multiply(dh, tc, out=u), _sigmoid_slope(o, v), out=do)
                dc += np.multiply(np.multiply(dh, o, out=u), _tanh_slope(tc, v), out=u)
                if t:
                    np.multiply(np.multiply(dc, c[t - 1], out=u), _sigmoid_slope(f, v), out=df)
                else:
                    df[...] = 0.0  # the cell state starts at zero
                np.multiply(np.multiply(dc, cand, out=u), _sigmoid_slope(i, v), out=di)
                np.multiply(np.multiply(dc, i, out=u), _tanh_slope(cand, v), out=dcand)
                dc *= f
                d_gates[t] = step
                if t:
                    dh = np.matmul(step, w_h.T, out=dh_next)
                    dh += g[t - 1]
            # free the step buffers and the joined recurrent weights first
            del u, v, dc, dh_next, dh, step, df, di, dcand, do, w_h
            flat = _rows(d_gates)
            # before d_w, so that the joined input weights are freed first
            d_x = (flat @ joined(hidden, None).T).reshape(xv.shape) if x.needs_grad else None
            # rows :H of each gate's gradient multiply the hidden state, H: the input
            d_w = np.empty((hidden + d_in, 4 * hidden))
            np.matmul(_rows(xv).T, flat, out=d_w[hidden:])
            np.matmul(_rows(h[:-1]).T, _rows(d_gates[1:]), out=d_w[:hidden])
            d_b = flat.sum(axis=0, keepdims=True)
            return [d_x, *(d_w[:, s] for s in cols), *(d_b[:, s] for s in cols)]

        value = h.reshape(steps, *xv.shape[1:-1], hidden)
        return self._push("lstm_layer", (x, *weights, *biases), value, vjp)

    def weighted_sum(self, stack: Node, weights: Sequence[Node]) -> Node:
        """``sum_k weights[k] * stack[k]`` over the entries of the stack's
        first axis, added in order, as one node.

        A weight may have fewer axes than an entry; it is broadcast over the
        entry's leading axes and its gradient sums over them.
        """
        sv = stack.value
        wvs = [w.value for w in weights]
        if sv.ndim < 1 or len(sv) != len(wvs) or not wvs:
            raise ShapeError(f"weighted_sum: a stack of shape {sv.shape} for {len(wvs)} weights")
        entry = sv.shape[1:]
        for wv in wvs:
            if wv.ndim > len(entry) or wv.shape != entry[len(entry) - wv.ndim :]:
                raise ShapeError(f"weighted_sum: weight {wv.shape} does not fit entry {entry}")
        value = wvs[0] * sv[0]
        for wv, part in zip(wvs[1:], sv[1:]):
            value += wv * part
        need_stack = stack.needs_grad
        need = [w.needs_grad for w in weights]

        def vjp(g: Array):
            g_stack = np.empty(sv.shape) if need_stack else None
            g_weights = []
            for k, wv in enumerate(wvs):
                if need_stack:
                    np.multiply(g, wv, out=g_stack[k])
                lead = tuple(range(len(entry) - wv.ndim))
                g_weights.append((g * sv[k]).sum(axis=lead) if need[k] else None)
            return [g_stack, *g_weights]

        return self._push("weighted_sum", (stack, *weights), value, vjp)

    def add(self, a: Node, b: Node) -> Node:
        self._check_same_shape("add", a, b)

        def vjp(g: Array):
            return g, g

        return self._push("add", (a, b), a.value + b.value, vjp)

    def softmax_rows(self, a: Node) -> Node:
        """Row-wise softmax with max subtraction; backward applies the full
        row Jacobian ``diag(s) - s s^T`` rather than any fused-loss shortcut."""
        _require_matrix("softmax_rows", "operand", a.value)
        shifted = a.value - a.value.max(axis=1, keepdims=True)
        ex = np.exp(shifted)
        value = ex / ex.sum(axis=1, keepdims=True)

        def vjp(g: Array):
            dot = (g * value).sum(axis=1, keepdims=True)
            return (value * (g - dot),)

        return self._push("softmax_rows", (a,), value, vjp)

    def transpose(self, a: Node) -> Node:
        _require_matrix("transpose", "operand", a.value)

        def vjp(g: Array):
            return (g.T,)

        return self._push("transpose", (a,), np.ascontiguousarray(a.value.T), vjp)

    def concat_cols(self, *parts: Node) -> Node:
        """Join along the last axis; every other axis must agree."""
        values = [p.value for p in parts]
        lead = values[0].shape[:-1]
        for v in values:
            if v.ndim != values[0].ndim or v.shape[:-1] != lead:
                raise ShapeError(
                    f"concat_cols: leading shapes disagree, {values[0].shape} vs {v.shape}"
                )
        bounds = np.cumsum([0] + [v.shape[-1] for v in values])

        def vjp(g: Array):
            return [g[..., lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

        return self._push("concat_cols", parts, np.concatenate(values, axis=-1), vjp)

    def take(self, a: Node, index) -> Node:
        """``a[index]``: entries of ``a`` along its first axis, picked by an
        integer array of any shape, which leads the result's shape.

        An entry picked several times receives the sum of those picks'
        adjoints.
        """
        av = a.value
        index = np.asarray(index)
        if av.ndim < 1 or index.dtype.kind not in "iu":
            raise ShapeError(
                f"take: needs an integer index into an array, got {index.dtype} into {av.shape}"
            )
        if index.size and (index.min() < 0 or index.max() >= av.shape[0]):
            raise ShapeError(f"take: index outside [0, {av.shape[0]})")

        def vjp(g: Array):
            return (scatter_add(index, g, av.shape[0]),)

        return self._push("take", (a,), av[index], vjp)

    def reshape(self, a: Node, shape: Sequence[int]) -> Node:
        av = a.value
        try:
            value = av.reshape(shape)
        except ValueError:
            raise ShapeError(f"reshape: cannot reshape {av.shape} to {tuple(shape)}") from None

        def vjp(g: Array):
            return (g.reshape(av.shape),)

        return self._push("reshape", (a,), value, vjp)

    def broadcast_to(self, a: Node, shape: Sequence[int]) -> Node:
        """Repeat ``a`` along new leading axes and its length-1 axes, as a
        read-only view; the gradient sums back over the repeats."""
        av = a.value
        shape = tuple(shape)
        try:
            value = np.broadcast_to(av, shape)
        except ValueError:
            raise ShapeError(f"broadcast_to: cannot broadcast {av.shape} to {shape}") from None
        lead = len(shape) - av.ndim
        repeated = tuple(i for i, n in enumerate(av.shape) if n == 1 and shape[lead + i] != 1)

        def vjp(g: Array):
            if lead:
                g = g.sum(axis=tuple(range(lead)))
            if repeated:
                g = g.sum(axis=repeated, keepdims=True)
            return (g,)

        return self._push("broadcast_to", (a,), value, vjp)

    def sum(self, a: Node) -> Node:
        """Sum of all entries, as a scalar node."""
        av = a.value

        def vjp(g: Array):
            return (np.full_like(av, float(g)),)

        return self._push("sum", (a,), np.asarray(av.sum()), vjp)

    def mean(self, a: Node) -> Node:
        """Mean of all entries, as a scalar node."""
        av = a.value

        def vjp(g: Array):
            return (np.full_like(av, float(g) / av.size),)

        return self._push("mean", (a,), np.asarray(av.mean()), vjp)

    def mse_loss(self, pred: Node, target: Node) -> Node:
        """``mse_per_sample`` of the whole input as a batch of one: the
        squared error summed and divided by the length of the first axis (1
        for a scalar). Returns a scalar node."""
        self._check_same_shape("mse_loss", pred, target)
        shape = (1, pred.value.shape[0] if pred.value.ndim else 1, -1)
        one = self.mse_per_sample(self.reshape(pred, shape), self.reshape(target, shape))
        return self.mean(one)

    def mse_per_sample(self, pred: Node, target: Node) -> Node:
        """The per-sample squared error of a batch x rows x ... stack:
        entry ``b`` is ``sum((pred[b] - target[b]) ** 2) / rows``."""
        self._check_same_shape("mse_per_sample", pred, target)
        if pred.value.ndim < 3:
            raise ShapeError(f"mse_per_sample: expected batch x rows x k, got {pred.value.shape}")
        diff = pred.value - target.value
        n_batch, n_rows = diff.shape[:2]
        value = (diff * diff).reshape(n_batch, -1).sum(axis=1) / n_rows

        def vjp(g: Array):
            gp = (2.0 / n_rows) * diff * g.reshape((n_batch,) + (1,) * (diff.ndim - 1))
            return gp, -gp

        return self._push("mse_per_sample", (pred, target), value, vjp)

    # -------------------------------------------------------------- backward

    def backward(self, loss: Node) -> None:
        """Compute d(loss)/d(p) for every parameter ``p`` bound on the tape.

        One sweep: each node's vjp closure is dropped right after it runs,
        with every array only it held (node values stay), so a tape runs
        backward once and a second call raises ``ContractError``. ``loss``
        must be a node this tape recorded.
        """
        if loss.value.size != 1:
            raise ContractError(
                f"backward requires a scalar loss node, got shape {loss.value.shape}"
            )
        if not self.record:
            raise ContractError("backward needs a recording tape; this one has record=False")
        nodes = self.nodes
        if not (0 <= loss.id < len(nodes) and nodes[loss.id] is loss):
            raise ContractError(f"backward: the {loss.op} loss node was not recorded on this tape")
        if self._swept:
            raise ContractError("backward: this tape has run its one backward sweep")
        self._swept = True
        bound = {node.id: p for p, node in self._bindings.items()}
        adjoint: dict[int, Array] = {loss.id: np.ones_like(loss.value)}
        for nid in range(len(nodes) - 1, -1, -1):
            node = nodes[nid]
            vjp, node._vjp = node._vjp, None
            g = adjoint.pop(nid, None)
            if g is None:
                continue
            if vjp is not None:
                contribs = vjp(g)
                del vjp  # and with it every array only the closure held
                for iid, contrib in zip(node.input_ids, contribs):
                    if contrib is None or not nodes[iid].needs_grad:
                        continue
                    # a new array: a contribution may alias a value or another adjoint
                    total = adjoint.get(iid)
                    adjoint[iid] = contrib if total is None else total + contrib
            elif nid in bound:
                p = bound[nid]
                self._grads[p] = g.reshape(p.value.shape)

    def grad_for(self, p: Parameter) -> Array:
        """A copy of the gradient the tape's one backward sweep left for a
        parameter (zeros if it got none, or before the sweep)."""
        g = self._grads.get(p)
        return np.zeros_like(p.value) if g is None else g.copy()

    def accumulate_param_grads(self, params: Iterable[Parameter], grads: Iterable[Array]) -> None:
        """Add this tape's gradient of each parameter into the matching array
        of ``grads``, e.g. the views ``ModelParams.split`` cuts from one flat
        gradient vector."""
        for p, total in zip(params, grads):
            g = self._grads.get(p)
            if g is not None:
                total += g

    # --------------------------------------------------------------- helpers

    @staticmethod
    def _check_same_shape(op: str, a: Node, b: Node) -> None:
        if a.value.shape != b.value.shape:
            raise ShapeError(f"{op}: shapes disagree, {a.value.shape} vs {b.value.shape}")
