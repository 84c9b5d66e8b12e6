"""Finite-difference verification of tape gradients.

The numeric side is a central difference on the loss as a black-box
function of the parameter entries, so it is independent of every backward
rule it checks.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .autodiff import Node, Parameter, Tape
from .errors import ContractError

BuildFn = Callable[[Tape], Node]


def grad_check(
    build_fn: BuildFn,
    params: Iterable[Parameter],
    step: float = 1e-6,
    tolerance: float | None = None,
) -> float:
    """Compare analytic gradients of a scalar loss against central differences.

    ``build_fn`` must rebuild the forward pass on the given tape, binding
    every parameter in ``params`` via ``tape.param``, and return the scalar
    loss node. It must be deterministic: two builds from identical parameter
    values have to produce bitwise-equal losses, otherwise a ContractError
    is raised.

    Returns the maximum over all parameter entries of
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``. If ``tolerance``
    is given, a result above it raises ContractError.
    """
    param_list = list(params)

    def loss_value() -> float:
        tape = Tape(record=False)
        loss = build_fn(tape)
        if loss.value.size != 1:
            raise ContractError(f"build_fn must return a scalar loss, got shape {loss.value.shape}")
        return float(loss.value)

    first = loss_value()
    second = loss_value()
    if first != second or not np.isfinite(first):
        raise ContractError(
            f"build_fn is not deterministic or not finite: passes gave {first!r} and {second!r}"
        )

    tape = Tape()
    loss = build_fn(tape)
    tape.backward(loss)
    analytic = [tape.grad_for(p) for p in param_list]

    worst = 0.0
    for p, grad in zip(param_list, analytic):
        flat_value = p.value.reshape(-1)
        flat_grad = grad.reshape(-1)
        for i in range(flat_value.size):
            orig = flat_value[i]
            flat_value[i] = orig + step
            plus = loss_value()
            flat_value[i] = orig - step
            minus = loss_value()
            flat_value[i] = orig
            numeric = (plus - minus) / (2.0 * step)
            a = float(flat_grad[i])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err > worst:
                worst = err
    if tolerance is not None and worst > tolerance:
        raise ContractError(f"gradient check failed: max relative error {worst:.3e} > {tolerance:.3e}")
    return worst
