"""Reverse-mode automatic differentiation over dense float64 matrices.

A ``Tape`` records one forward pass as an append-only list of ``Node``
objects (define-by-run, so the graph is rebuilt on every pass). Each node
stores its value and a closure mapping the node's output adjoint to
adjoints of its inputs. ``Tape.backward`` walks the list in reverse, which
is a valid traversal order because an op can only reference nodes created
before it. Adjoints of intermediate nodes are dropped when it returns; only
those of bound parameters are kept, in one store the tape owns.

Values are plain numpy arrays in double precision. There is no implicit
broadcasting: elementwise ops require exactly equal shapes, and anything
that needs a broadcast (bias rows, per-graph feature vectors) is written
as a matmul against an explicit ones column.

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

# vjp: maps the node's output adjoint to one adjoint per input, in order
Vjp = Callable[[Array], Sequence[Array]]


def as_tensor(x) -> Array:
    """Coerce to a C-contiguous float64 array (the universal value type)."""
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _require_matrix(op: str, name: str, a: Array) -> None:
    if a.ndim != 2:
        raise ShapeError(f"{op}: {name} must be 2-D, got shape {a.shape}")


def _sigmoid(x: Array) -> Array:
    # piecewise form avoids overflow in exp for large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Node:
    """One recorded operation result on a tape.

    ``input_ids`` reference strictly earlier nodes. A node holds no
    gradient; ``Tape.grad_for`` reads the adjoints kept for parameters.
    """

    __slots__ = ("id", "op", "input_ids", "value", "_vjp")

    def __init__(self, nid: int, op: str, input_ids: tuple[int, ...], value: Array, vjp: Vjp | None):
        self.id = nid
        self.op = op
        self.input_ids = input_ids
        self.value = value
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
    """Append-only record of one forward pass."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._bindings: dict[Parameter, Node] = {}
        self._grads: dict[Parameter, Array] = {}

    # ------------------------------------------------------------------ leaves

    def _push(self, op: str, inputs: tuple[Node, ...], value: Array, vjp: Vjp | None) -> Node:
        node = Node(len(self.nodes), op, tuple(n.id for n in inputs), value, vjp)
        self.nodes.append(node)
        return node

    def constant(self, x) -> Node:
        """Enter a non-trainable value (data, adjacency, ones column).

        The value is copied: tape values are immutable snapshots, so later
        in-place edits of the source array cannot corrupt the record.
        """
        return self._push("const", (), as_tensor(x).copy(), None)

    def param(self, p: Parameter) -> Node:
        """The leaf bound to ``p`` on this tape, created on first use.

        The leaf's value is ``p.value`` itself, not a copy, so ``p`` must
        not be mutated until this tape's last ``backward`` has run.
        """
        node = self._bindings.get(p)
        if node is None:
            node = self._bindings[p] = self._push("param", (), p.value, None)
        return node

    # ------------------------------------------------------------------- ops

    def matmul(self, a: Node, b: Node) -> Node:
        _require_matrix("matmul", "left operand", a.value)
        _require_matrix("matmul", "right operand", b.value)
        if a.value.shape[1] != b.value.shape[0]:
            raise ShapeError(
                f"matmul: inner dimensions disagree, {a.value.shape} x {b.value.shape}"
            )
        av, bv = a.value, b.value

        def vjp(g: Array):
            return g @ bv.T, av.T @ g

        return self._push("matmul", (a, b), av @ bv, vjp)

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
        value = np.maximum(a.value, 0.0)
        mask = a.value > 0.0  # subgradient at exactly 0 is defined as 0

        def vjp(g: Array):
            return (g * mask,)

        return self._push("relu", (a,), value, vjp)

    def sigmoid(self, a: Node) -> Node:
        value = _sigmoid(a.value)

        def vjp(g: Array):
            return (g * value * (1.0 - value),)

        return self._push("sigmoid", (a,), value, vjp)

    def tanh(self, a: Node) -> Node:
        value = np.tanh(a.value)

        def vjp(g: Array):
            return (g * (1.0 - value * value),)

        return self._push("tanh", (a,), value, vjp)

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

    def concat_cols(self, a: Node, b: Node) -> Node:
        _require_matrix("concat_cols", "left operand", a.value)
        _require_matrix("concat_cols", "right operand", b.value)
        if a.value.shape[0] != b.value.shape[0]:
            raise ShapeError(
                f"concat_cols: row counts disagree, {a.value.shape} vs {b.value.shape}"
            )
        split = a.value.shape[1]

        def vjp(g: Array):
            return g[:, :split], g[:, split:]

        return self._push("concat_cols", (a, b), np.concatenate([a.value, b.value], axis=1), vjp)

    def sum(self, a: Node) -> Node:
        """Sum of all entries, as a scalar node."""
        av = a.value

        def vjp(g: Array):
            return (np.full_like(av, float(g)),)

        return self._push("sum", (a,), np.asarray(av.sum()), vjp)

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
        adjoint: list[Array | None] = [None] * (loss.id + 1)
        adjoint[loss.id] = np.ones_like(loss.value)
        for nid in range(loss.id, -1, -1):
            g = adjoint[nid]
            if g is None:
                continue
            node = self.nodes[nid]
            if node._vjp is None:
                continue
            for iid, contrib in zip(node.input_ids, node._vjp(g)):
                if adjoint[iid] is None:
                    adjoint[iid] = np.array(contrib, dtype=np.float64)
                else:
                    adjoint[iid] = adjoint[iid] + contrib
        for p, node in self._bindings.items():
            g = adjoint[node.id] if node.id <= loss.id else None
            if g is None:
                continue
            g = g.reshape(p.value.shape)
            previous = self._grads.get(p)
            self._grads[p] = g if previous is None else previous + g

    def grad_for(self, p: Parameter) -> Array:
        """Gradient accumulated for a parameter (zeros if it got none)."""
        g = self._grads.get(p)
        return np.zeros_like(p.value) if g is None else g.copy()

    def accumulate_param_grads(self, params: Iterable[Parameter], scale: float = 1.0) -> None:
        """Fold this tape's parameter gradients into each ``Parameter.grad``."""
        for p in params:
            g = self._grads.get(p)
            if g is not None:
                p.grad += scale * g

    # --------------------------------------------------------------- helpers

    @staticmethod
    def _check_same_shape(op: str, a: Node, b: Node) -> None:
        if a.value.shape != b.value.shape:
            raise ShapeError(f"{op}: shapes disagree, {a.value.shape} vs {b.value.shape}")
