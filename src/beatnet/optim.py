"""AdaDelta parameter updates.

Zeiler's formulation is hyperparameter-free apart from rho and epsilon;
the learning rate here acts as a plain multiplier on each proposed step
(x <- x + lr * delta), so lr = 1 recovers the original rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError

RHO = 0.9
EPS = 1e-6
LR = 0.01


@dataclass
class AdaDeltaState:
    """Per-parameter accumulators E[g^2] and E[dx^2], zero-initialized."""

    rho: float = RHO
    eps: float = EPS
    lr: float = LR
    sq_grad: dict[str, np.ndarray] = field(default_factory=dict)
    sq_delta: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise DataError(f"rho must be in [0, 1), got {self.rho}")
        if self.eps <= 0:
            raise DataError(f"eps must be > 0, got {self.eps}")


def adadelta_step(params: dict[str, np.ndarray],
                  grads: dict[str, np.ndarray],
                  state: AdaDeltaState) -> None:
    """Apply one AdaDelta update in place for every key in ``grads``.

    Per element: E[g^2] <- rho E[g^2] + (1-rho) g^2;
    delta = -sqrt(E[dx^2]+eps)/sqrt(E[g^2]+eps) * g;
    E[dx^2] <- rho E[dx^2] + (1-rho) delta^2; x <- x + lr * delta.
    Keys absent from ``grads`` (e.g. a frozen trunk) are untouched.
    """
    for name, g in grads.items():
        if name not in params:
            raise DataError(f"gradient for unknown parameter {name!r}")
        x = params[name]
        if g.shape != x.shape:
            raise DataError(f"{name}: gradient shape {g.shape} vs "
                            f"parameter shape {x.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name!r}")
        g = g.astype(x.dtype, copy=False)
        if name not in state.sq_grad:
            state.sq_grad[name] = np.zeros_like(x)
            state.sq_delta[name] = np.zeros_like(x)
        eg2, ed2 = state.sq_grad[name], state.sq_delta[name]
        rho = x.dtype.type(state.rho)
        eps = x.dtype.type(state.eps)
        eg2 *= rho
        eg2 += (1 - rho) * g * g
        delta = -np.sqrt(ed2 + eps) / np.sqrt(eg2 + eps) * g
        ed2 *= rho
        ed2 += (1 - rho) * delta * delta
        x += x.dtype.type(state.lr) * delta
