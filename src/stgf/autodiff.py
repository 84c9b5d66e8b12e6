"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records one forward pass as an append-only list of ``Node``
objects (define-by-run, so the graph is rebuilt on every pass). Each node
stores its value and a closure mapping the node's output adjoint to
adjoints of its inputs. ``Tape.backward`` walks the list in reverse, which
is a valid traversal order because an op can only reference nodes created
before it. Each intermediate adjoint is dropped as soon as its node's
closure has consumed it; only those of bound parameters are kept, in one
store the tape owns. A node none of whose inputs leads back to a parameter
keeps no closure and receives no adjoint.

Values are plain numpy arrays in double precision. A leading batch axis
(or several) is allowed wherever an op reads only the trailing axes: the
columns are the last axis, and ``matmul`` multiplies a shared matrix into
a stack of matrices from either side. ``take`` gathers entries along the
first axis by an index array and scatters their adjoints back with
``np.add.at``, so an entry may be picked more than once. Elementwise ops
still require exactly equal shapes; every broadcast is an op of its own
(``broadcast_to``, or the bias row of ``affine``) whose backward sums the
gradient back over the broadcast axes.

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

    ``grad`` is the optimizer-facing accumulator; the training loop folds
    each tape's gradients into it with ``Tape.accumulate_param_grads``.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value) -> None:
        self.name = name
        self.value = as_tensor(value)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Tape:
    """Append-only record of one forward pass (see the module docstring for
    ``record=False``)."""

    def __init__(self, record: bool = True) -> None:
        self.record = record
        self.nodes: list[Node] = []
        self._bindings: dict[Parameter, Node] = {}
        self._joined: dict[tuple[Parameter, ...], Node] = {}
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

    def param_cols(self, params: Sequence[Parameter]) -> Node:
        """The column concatenation of several parameters, built once per tape."""
        key = tuple(params)
        node = self._joined.get(key)
        if node is None:
            node = self._joined[key] = self.concat_cols(*(self.param(p) for p in key))
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

    def affine(
        self,
        x: Node,
        w: Node,
        b: Node | None = None,
        act: str | Sequence[str] | None = None,
    ) -> Node:
        """``act(x @ w + b)`` as one node, with the 1 x k bias row ``b`` added
        to every row.

        ``x`` may carry leading batch axes; the bias gradient sums over every
        row. ``act`` names one activation for all columns, or one per equal
        column block (the LSTM's four gates). The pre-activation is never
        kept: each derivative is computed from the output.
        """
        xv, wv = x.value, w.value
        _require_matrix("affine", "weight", wv)
        if xv.ndim < 2 or xv.shape[-1] != wv.shape[0]:
            raise ShapeError(f"affine: inner dimensions disagree, {xv.shape} x {wv.shape}")
        k = wv.shape[1]
        if b is not None and b.value.shape != (1, k):
            raise ShapeError(f"affine: bias must be {(1, k)}, got {b.value.shape}")
        names = [act] if isinstance(act, str) else list(act or ())
        if names and k % len(names):
            raise ShapeError(f"affine: {k} columns do not split into {len(names)} equal blocks")
        width = k // len(names) if names else 0
        blocks = [(_ACTIVATIONS[n], slice(j * width, (j + 1) * width)) for j, n in enumerate(names)]

        value = _rows(xv) @ wv
        if b is not None:
            value += b.value
        for (apply, _), cols in blocks:
            apply(value[:, cols])
        inputs = (x, w) if b is None else (x, w, b)
        need = [n.needs_grad for n in inputs]

        def vjp(g: Array):
            g2 = _rows(g)
            if blocks:
                pre = np.empty_like(value)
                for (_, derivative), cols in blocks:
                    np.multiply(g2[:, cols], derivative(value[:, cols]), out=pre[:, cols])
                g2 = pre
            grads = [
                (g2 @ wv.T).reshape(xv.shape) if need[0] else None,
                _rows(xv).T @ g2 if need[1] else None,
            ]
            if b is not None:
                grads.append(g2.sum(axis=0, keepdims=True) if need[2] else None)
            return grads

        # "matmul" in the op name marks it as a matrix product for FLOP counts
        return self._push("affine_matmul", inputs, value.reshape(*xv.shape[:-1], k), vjp)

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

    def split_cols(self, a: Node, widths: Sequence[int]) -> list[Node]:
        """Consecutive column blocks of ``a``; each value is a view into ``a``."""
        if any(w < 0 for w in widths) or sum(widths) != a.value.shape[-1]:
            raise ShapeError(f"split_cols: widths {tuple(widths)} do not cover {a.value.shape}")
        bounds = np.cumsum([0, *widths])
        return [
            self._view("split_cols", a, (..., slice(lo, hi)))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

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

    def accumulate_param_grads(self, params: Iterable[Parameter]) -> None:
        """Fold this tape's parameter gradients into each ``Parameter.grad``."""
        for p in params:
            g = self._grads.get(p)
            if g is not None:
                p.grad += g

    # --------------------------------------------------------------- helpers

    @staticmethod
    def _check_same_shape(op: str, a: Node, b: Node) -> None:
        if a.value.shape != b.value.shape:
            raise ShapeError(f"{op}: shapes disagree, {a.value.shape} vs {b.value.shape}")
