"""Adam with bias correction, keyed by parameter list position.

State holds one (m, v) pair per parameter, indexed by position in the list
handed to adam_init; the caller must pass the same list, in the same order,
to every adam_step.  All updates are in-place on the parameter arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor
from .errors import MissingGradient

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float
    t: int
    m: list[np.ndarray]
    v: list[np.ndarray]


def adam_init(params: list[Tensor], lr: float = 0.001) -> AdamState:
    return AdamState(
        lr=lr, t=0,
        m=[np.zeros_like(p.data) for p in params],
        v=[np.zeros_like(p.data) for p in params],
    )


def adam_step(params: list[Tensor], state: AdamState) -> None:
    """One update: p -= lr * m_hat / (sqrt(v_hat) + eps)."""
    if len(params) != len(state.m):
        raise MissingGradient(
            f"optimizer state holds {len(state.m)} parameters, got {len(params)}")
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for i, p in enumerate(params):
        if p.grad is None:
            raise MissingGradient(f"parameter {i} has no gradient")
        g = p.grad
        m = state.m[i]
        v = state.v[i]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
