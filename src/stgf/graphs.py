"""Construction of the two spatial views of a sensor network.

The geographic view is a fixed inverse-distance adjacency built from the
edge list. The semantic view is learned: a row-stochastic adjacency
inferred on the tape from a trainable node embedding, so it changes as the
embedding trains.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import Node, Tape, as_tensor
from .errors import ValidationError, _json_number

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class GraphSpec:
    """Node count plus undirected weighted edge list with physical distances.

    Distances are strictly positive (arbitrary but uniform length units).
    Self-edges are rejected; self-connections enter only through the
    normalization step's added identity.
    """

    n_nodes: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValidationError(f"graph needs at least one node, got {self.n_nodes}")
        normalized = []
        for k, (src, dst, dist) in enumerate(self.edges):
            # the integer rule, called only off the common path: a plain int passes it
            if type(src) is not int or type(dst) is not int:
                src, dst = _json_number(f"edge {k} src", src, 0), _json_number(f"edge {k} dst", dst, 0)
            dist = float(dist)
            if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
                raise ValidationError(
                    f"edge {k} ({src}, {dst}) out of range for {self.n_nodes} nodes"
                )
            if src == dst:
                raise ValidationError(f"edge {k} is a self-edge at node {src}")
            if not dist > 0.0:
                raise ValidationError(f"edge {k} ({src}, {dst}) has nonpositive distance {dist}")
            if not math.isfinite(dist):
                raise ValidationError(f"edge {k} ({src}, {dst}) has non-finite distance {dist}")
            normalized.append((src, dst, dist))
        object.__setattr__(self, "edges", tuple(normalized))


def build_local_adjacency(spec: GraphSpec) -> np.ndarray:
    """Inverse-distance adjacency: A[i, j] = A[j, i] = 1/distance for listed
    edges.

    If an entry is written twice (duplicate or conflicting mirrored edges),
    the later edge wins and a warning is emitted.
    """
    n = spec.n_nodes
    a = np.zeros((n, n))
    seen = np.zeros((n, n), dtype=bool)

    def put(i: int, j: int, w: float) -> None:
        if seen[i, j]:
            warnings.warn(
                f"duplicate edge ({i}, {j}): keeping the later weight {w!r}", stacklevel=3
            )
        a[i, j] = w
        seen[i, j] = True

    for src, dst, dist in spec.edges:
        w = 1.0 / dist
        put(src, dst, w)
        put(dst, src, w)
    return a


def normalize_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization D^{-1/2} (A + I) D^{-1/2}, with D the
    degrees of A + I.

    The added self-loop gives every node a degree of at least 1, so an
    isolated node keeps only its self-connection instead of producing NaN.
    """
    a = as_tensor(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"adjacency must be square, got shape {a.shape}")
    if np.any(a < 0.0):
        raise ValidationError("adjacency entries must be nonnegative")
    tilde = a + np.eye(a.shape[0])
    inv_sqrt = 1.0 / np.sqrt(tilde.sum(axis=1))
    return inv_sqrt[:, None] * tilde * inv_sqrt[None, :]


def adaptive_adjacency(tape: Tape, embedding: Node) -> Node:
    """Learned adjacency softmax_rows(relu(E E^T)) for a node embedding E.

    Differentiable with respect to the embedding. Every output row sums to
    1, so the matrix's degree matrix is exactly the identity and the
    symmetric degree normalization applied to the geographic view is a
    no-op here (see the model's propagation step).
    """
    return tape.softmax_rows(tape.affine(embedding, tape.transpose(embedding), act="relu"))


def adaptive_adjacency_values(embedding: np.ndarray) -> np.ndarray:
    """Convenience evaluation of the learned adjacency outside any training tape."""
    tape = Tape(record=False)
    return adaptive_adjacency(tape, tape.constant(embedding)).value
