"""Build the two adjacency views for a toy 4-node sensor graph and look
at what the normalization actually does to them."""

import numpy as np

from stgf.autodiff import Tape
from stgf.graphs import (
    GraphSpec,
    adaptive_adjacency,
    build_local_adjacency,
    normalize_adjacency,
)
from stgf.model import ModelConfig, init_params

np.set_printoptions(precision=4, suppress=True)


def main():
    # a path 0-1-2-3 with one shortcut; distances in km
    spec = GraphSpec(
        n_nodes=4,
        edges=(
            (0, 1, 0.9),
            (1, 2, 1.4),
            (2, 3, 0.7),
            (0, 3, 2.5),
        ),
    )

    raw = build_local_adjacency(spec)
    print("inverse-distance adjacency (symmetric, zero diagonal):")
    print(raw)

    norm = normalize_adjacency(raw)
    print("\nafter self-loops and symmetric degree scaling:")
    print(norm)
    # not row-stochastic -- rows of the *local* view do not sum to 1
    print(f"row sums: {norm.sum(axis=1)}")

    # the learned view starts from a random embedding table
    rng = np.random.default_rng(42)
    embedding = init_params(ModelConfig(n_nodes=4, embed_dim=3), rng)["node_embedding"]
    tape = Tape()
    learned = adaptive_adjacency(tape, tape.param(embedding))
    print("\nlearned adjacency from a fresh 4x3 embedding:")
    print(learned.value)
    print(f"row sums: {learned.value.sum(axis=1)}  (softmax rows, always 1)")

    # the embedding is trainable: gradients flow back through the softmax
    loss = tape.mse_loss(learned, tape.constant(np.eye(4)))
    tape.backward(loss)
    g = tape.grad_for(embedding)
    print(f"\ngradient w.r.t. embedding has shape {g.shape}, "
          f"max |entry| = {np.abs(g).max():.4f}")


if __name__ == "__main__":
    main()
