"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records one forward pass as an append-only list of ``Node``
objects (define-by-run, so the graph is rebuilt on every pass). Each node
stores its value and a closure mapping the node's output adjoint to
adjoints of its inputs. ``Tape.backward`` walks the list in reverse, which
is a valid traversal order because an op can only reference nodes created
before it. Each intermediate adjoint is dropped as soon as its node's
closure has consumed it; only those of bound parameters are kept, in one
store the tape owns (``grad_for`` reads it, ``accumulate_param_grads``
adds it into a caller's gradient arrays). A node none of whose inputs
leads back to a parameter keeps no closure and receives no adjoint.

Values are plain numpy arrays in double precision. A leading batch axis
(or several) is allowed wherever an op reads only the trailing axes: the
columns are the last axis, and ``matmul`` multiplies a shared matrix into
a stack of matrices from either side. ``take`` gathers entries along the
first axis by an index array and scatters their adjoints back with
``np.add.at``, so an entry may be picked more than once. Elementwise ops
still require exactly equal shapes; every broadcast is an op of its own
(``broadcast_to``, or the bias row of ``affine``) whose backward sums the
gradient back over the broadcast axes.

Most ops are small, but ``lstm_layer`` runs a whole recurrent layer over a
sequence as one node: it keeps what its hand-written backward needs
(the gate activations and cell states) in its closure, not as nodes.

A tape built with ``record=False`` runs the same ops forward only: it
keeps no node list and no closures, so each intermediate is freed as soon
as the calling code drops it, and ``backward`` is refused.

Tapes are single-threaded; nodes and their value arrays must be treated
as immutable once created. A parameter leaf aliases ``Parameter.value``,
so a parameter must not be mutated between binding it on a tape and that
tape's last ``backward`` (the optimizer only writes between tapes).
Independent tapes may run concurrently.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Array = np.ndarray

# vjp: maps the node's output adjoint to one adjoint per input, in order:
# an array, a _Block (the gradient of one block of the input), or None for
# an input that needs no gradient
Vjp = Callable[[Array], Sequence[object]]


def as_tensor(x) -> Array:
    """Coerce to a C-contiguous float64 array (the universal value type)."""
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


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


# name -> (apply in place to a float array, derivative as a function of the output)
_ACTIVATIONS: dict[str, tuple[Callable[[Array], object], Callable[[Array], Array]]] = {
    # the output is positive exactly where the input is, and the subgradient
    # at exactly 0 is defined as 0
    "relu": (lambda v: np.maximum(v, 0.0, out=v), lambda y: y > 0.0),
    "sigmoid": (_sigmoid_, lambda y: y * (1.0 - y)),
    "tanh": (lambda v: np.tanh(v, out=v), lambda y: 1.0 - y * y),
}


class _Block:
    """A vjp result that is the gradient of one block of its input,
    ``input[index]``; the rest of the input's gradient is zero."""

    __slots__ = ("index", "g")

    def __init__(self, index, g: Array) -> None:
        self.index = index
        self.g = g


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
        not be mutated until this tape's last ``backward`` has run.
        """
        node = self._bindings.get(p)
        if node is None:
            node = self._push("param", (), p.value, None)
            node.needs_grad = self.record
            self._bindings[p] = node
        return node

    # ------------------------------------------------------------------- ops

    def matmul(self, a: Node, b: Node) -> Node:
        """Matrix product; one operand may be a stack of matrices.

        ``M @ S`` applies the matrix ``M`` to every matrix of the stack
        ``S`` (``N x N @ B x N x d``); ``S @ M`` multiplies every row of the
        stack by ``M`` (``B x N x d @ d x k``). The shared matrix's gradient
        is summed over the stack.
        """
        av, bv = a.value, b.value
        if av.ndim < 2 or bv.ndim < 2 or (av.ndim > 2 and bv.ndim > 2):
            raise ShapeError(
                f"matmul: needs two matrices or a matrix and a stack, got {av.shape} x {bv.shape}"
            )
        if av.shape[-1] != bv.shape[-2]:
            raise ShapeError(f"matmul: inner dimensions disagree, {av.shape} x {bv.shape}")
        need_a, need_b = a.needs_grad, b.needs_grad

        if bv.ndim > 2:
            value = np.matmul(av, bv)

            def vjp(g: Array):
                # sum over the stack of g_k @ b_k^T, as one contraction
                axes = [*range(g.ndim - 2), g.ndim - 1]
                return (
                    np.tensordot(g, bv, axes=(axes, axes)) if need_a else None,
                    np.matmul(av.T, g) if need_b else None,
                )

        else:
            value = (_rows(av) @ bv).reshape(*av.shape[:-1], bv.shape[1])

            def vjp(g: Array):
                g2 = _rows(g)
                return (
                    (g2 @ bv.T).reshape(av.shape) if need_a else None,
                    _rows(av).T @ g2 if need_b else None,
                )

        return self._push("matmul", (a, b), value, vjp)

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

        The gate matrices are joined side by side into ``W_x`` and ``W_h``
        for the call (and again by the backward, so no joined copy is
        kept), so a step is two products, ``x_t @ W_x`` and ``h @ W_h``. The
        node keeps only the gate activations and the cell states; its vjp
        is backpropagation through time, forms each weight gradient in one
        product over all P steps, and writes each gate's weight and bias
        gradient.
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
        w_x, w_h, b = joined(hidden, None), joined(0, hidden), np.concatenate(bvs, axis=1)
        # the backward reads every step's gates; a tape that records nothing
        # reuses one block, which bounds the memory of a forward-only pass
        gates = np.empty((steps if self.record else 1, xs.shape[1], 4 * hidden))
        h = np.empty(xs.shape[:2] + (hidden,))
        c = np.empty_like(h)
        for t in range(steps):
            a = gates[t if self.record else 0]
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

        def vjp(g: Array):
            g = g.reshape(h.shape)
            w_h = joined(0, hidden)
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
                    df[...] = 0.0  # the cell state starts at zero
                np.multiply(dc * cand, i * (1.0 - i), out=di)
                np.multiply(dc * i, 1.0 - cand * cand, out=dcand)
                dc = dc * f
                if t:
                    dh = g[t - 1] + d_gates[t] @ w_h.T
            flat = _rows(d_gates)
            d_wx = _rows(xv).T @ flat
            d_wh = _rows(h[:-1]).T @ _rows(d_gates[1:])
            d_b = flat.sum(axis=0, keepdims=True)
            d_x = (flat @ joined(hidden, None).T).reshape(xv.shape) if x.needs_grad else None
            return [
                d_x,
                *(np.concatenate([d_wh[:, s], d_wx[:, s]]) for s in cols),
                *(d_b[:, s] for s in cols),
            ]

        value = h.reshape(steps, *xv.shape[1:-1], hidden)
        return self._push("lstm_layer", (x, *weights, *biases), value, vjp)

    def weighted_sum(self, parts: Sequence[Node], weights: Sequence[Node]) -> Node:
        """``sum_k weights[k] * parts[k]`` as one node.

        A weight may have fewer axes than its part; it is broadcast over the
        part's leading axes and its gradient sums over them.
        """
        if len(parts) != len(weights) or not parts:
            raise ShapeError(f"weighted_sum: {len(parts)} parts for {len(weights)} weights")
        pvs = [p.value for p in parts]
        wvs = [w.value for w in weights]
        shape = pvs[0].shape
        for pv, wv in zip(pvs, wvs):
            if pv.shape != shape or wv.ndim > pv.ndim or wv.shape != shape[pv.ndim - wv.ndim :]:
                raise ShapeError(f"weighted_sum: weight {wv.shape} does not fit part {pv.shape}")
        value = wvs[0] * pvs[0]
        for wv, pv in zip(wvs[1:], pvs[1:]):
            value += wv * pv
        need = [n.needs_grad for n in (*parts, *weights)]

        def vjp(g: Array):
            g_parts = [g * wv if need[k] else None for k, wv in enumerate(wvs)]
            g_weights = [
                (g * pv).sum(axis=tuple(range(pv.ndim - wv.ndim))) if need[len(pvs) + k] else None
                for k, (pv, wv) in enumerate(zip(pvs, wvs))
            ]
            return g_parts + g_weights

        return self._push("weighted_sum", (*parts, *weights), value, vjp)

    def add(self, a: Node, b: Node) -> Node:
        self._check_same_shape("add", a, b)

        def vjp(g: Array):
            return g, g

        return self._push("add", (a, b), a.value + b.value, vjp)

    def sub(self, a: Node, b: Node) -> Node:
        self._check_same_shape("sub", a, b)

        def vjp(g: Array):
            return g, -g

        return self._push("sub", (a, b), a.value - b.value, vjp)

    def hadamard(self, a: Node, b: Node) -> Node:
        self._check_same_shape("hadamard", a, b)
        av, bv = a.value, b.value

        def vjp(g: Array):
            return g * bv, g * av

        return self._push("hadamard", (a, b), av * bv, vjp)

    def relu(self, a: Node) -> Node:
        return self._activation("relu", a)

    def sigmoid(self, a: Node) -> Node:
        return self._activation("sigmoid", a)

    def tanh(self, a: Node) -> Node:
        return self._activation("tanh", a)

    def _activation(self, name: str, a: Node) -> Node:
        apply, derivative = _ACTIVATIONS[name]
        value = np.array(a.value, dtype=np.float64)
        apply(value)

        def vjp(g: Array):
            return (g * derivative(value),)

        return self._push(name, (a,), value, vjp)

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

    def unstack(self, a: Node) -> list[Node]:
        """The entries of ``a`` along its first axis; each value is a view."""
        if a.value.ndim < 1:
            raise ShapeError("unstack: operand must have at least one axis")
        return [self._view("unstack", a, k) for k in range(a.value.shape[0])]

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
            total = np.zeros(av.shape)
            np.add.at(total, index, g)
            return (total,)

        return self._push("take", (a,), av[index], vjp)

    def _view(self, op: str, a: Node, index) -> Node:
        def vjp(g: Array):
            return (_Block(index, g),)

        return self._push(op, (a,), a.value[index], vjp)

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
        """Mean over axis-0 samples of the squared L2 error of each sample.

        For a 2-D input each row is one sample; for 1-D each entry is one
        scalar sample. Returns a scalar node.
        """
        self._check_same_shape("mse_loss", pred, target)
        diff = pred.value - target.value
        n_samples = pred.value.shape[0] if pred.value.ndim else 1
        value = np.asarray(np.sum(diff * diff) / n_samples)

        def vjp(g: Array):
            gp = (2.0 / n_samples) * diff * float(g)
            return gp, -gp

        return self._push("mse_loss", (pred, target), value, vjp)

    def mse_per_sample(self, pred: Node, target: Node) -> Node:
        """The vector of ``mse_loss(pred[b], target[b])`` over the batch axis.

        Each sample ``b`` is a rows x k block; its entry is the block's
        squared error summed and divided by its row count.
        """
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
        """Accumulate d(loss)/d(p) for every parameter ``p`` bound on the tape.

        Adjoints are computed from scratch on each call and then added to
        the tape's parameter gradients, so running backward twice doubles
        every gradient.
        """
        if loss.value.size != 1:
            raise ContractError(
                f"backward requires a scalar loss node, got shape {loss.value.shape}"
            )
        if not self.record:
            raise ContractError("backward needs a recording tape; this one has record=False")
        nodes = self.nodes
        bound = {node.id: p for p, node in self._bindings.items()}
        adjoint: dict[int, Array] = {loss.id: np.ones_like(loss.value)}
        # adjoints allocated here, which later contributions may update in
        # place; any other adjoint may alias a value or another adjoint
        owned: set[int] = set()
        for nid in range(loss.id, -1, -1):
            g = adjoint.pop(nid, None)
            if g is None:
                continue
            owned.discard(nid)
            node = nodes[nid]
            if node._vjp is not None:
                for iid, contrib in zip(node.input_ids, node._vjp(g)):
                    if contrib is None or not nodes[iid].needs_grad:
                        continue
                    index, part = (..., contrib)
                    if isinstance(contrib, _Block):
                        index, part = contrib.index, contrib.g
                    total = adjoint.get(iid)
                    if total is None and index is ...:
                        adjoint[iid] = part
                        continue
                    if iid not in owned:
                        if total is None:
                            total = np.zeros(nodes[iid].value.shape)
                        else:
                            total = np.array(total, dtype=np.float64)
                        adjoint[iid] = total
                        owned.add(iid)
                    total[index] += part
            elif nid in bound:
                p = bound[nid]
                g = g.reshape(p.value.shape)
                previous = self._grads.get(p)
                self._grads[p] = g if previous is None else previous + g

    def grad_for(self, p: Parameter) -> Array:
        """Gradient accumulated for a parameter (zeros if it got none)."""
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
