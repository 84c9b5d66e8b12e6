"""Poke at the tape: build a tiny expression, backprop, and cross-check
one gradient entry against a finite difference by hand."""

import numpy as np

from stgf.autodiff import Parameter, Tape


def forward(tape, w, b, x, target):
    # one dense layer, tanh(x @ w + b) with b added to every row, as a
    # single fused node; then the built-in mse
    h = tape.affine(tape.constant(x), tape.param(w), tape.param(b), act="tanh")
    return tape.mse_loss(h, tape.constant(target))


def main():
    rng = np.random.default_rng(0)
    w = Parameter("w", rng.normal(size=(3, 3)))
    b = Parameter("b", rng.normal(size=(1, 3)))
    x = rng.normal(size=(3, 3))
    target = rng.normal(size=(3, 3))

    tape = Tape()
    loss = forward(tape, w, b, x, target)
    tape.backward(loss)
    gw = tape.grad_for(w)

    print(f"loss = {loss.value:.6f}")
    print("dL/dw:")
    print(gw)

    # nudge one weight both ways and compare
    eps = 1e-6
    keep = w.value[1, 2]
    w.value[1, 2] = keep + eps
    up = forward(Tape(), w, b, x, target).value
    w.value[1, 2] = keep - eps
    down = forward(Tape(), w, b, x, target).value
    w.value[1, 2] = keep

    fd = (up - down) / (2 * eps)
    print(f"finite difference at w[1,2]: {fd:.10f}")
    print(f"tape gradient at w[1,2]:     {gw[1, 2]:.10f}")
    print(f"abs diff: {abs(fd - gw[1, 2]):.2e}")

    # calling backward twice doubles every accumulated gradient -- the tape
    # adds into its parameter gradients rather than overwriting, same
    # contract the optimizer uses
    tape.backward(loss)
    print(f"after second backward, ratio = {tape.grad_for(w)[1, 2] / gw[1, 2]:.1f}")


if __name__ == "__main__":
    main()
