"""Weighted cross-entropy over two classes, with its logit gradient.

The per-sample weight depends only on the true class (NO_BEAT 0.06,
BEAT 0.94 by default) and compensates for how rare beats are among the
0.25 s windows. SoftMax is folded in via the log-sum-exp form, so large
logits cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

W_NOBEAT = 0.06
W_BEAT = 0.94


@dataclass(frozen=True)
class ClassWeights:
    """Loss weight per true class; both must be positive."""

    w_nobeat: float = W_NOBEAT
    w_beat: float = W_BEAT

    def __post_init__(self):
        if self.w_nobeat <= 0 or self.w_beat <= 0:
            raise DataError(f"class weights must be > 0, got "
                            f"({self.w_nobeat}, {self.w_beat})")

    def per_sample(self, labels: np.ndarray, dtype=np.float64) -> np.ndarray:
        return np.where(labels == 1, dtype(self.w_beat),
                        dtype(self.w_nobeat))


def weighted_cross_entropy(logits: np.ndarray, labels: np.ndarray,
                           weights: ClassWeights = ClassWeights(),
                           reduction: str = "mean",
                           ) -> tuple[float, np.ndarray]:
    """Loss and exact dloss/dlogits for a batch of two-class logits.

    ``reduction`` "mean" divides the weighted sum of per-sample
    cross-entropies by the sum of the weights (default); "sum" skips the
    division. The returned gradient matches whichever scalar was
    produced.
    """
    if logits.ndim != 2 or logits.shape[1] != 2:
        raise DataError(f"expected (n, 2) logits, got {logits.shape}")
    n = logits.shape[0]
    if n == 0:
        raise DataError("cannot compute a loss over zero samples")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DataError(f"labels shape {labels.shape} does not match "
                        f"{n} logit rows")
    if not np.isin(labels, (0, 1)).all():
        raise DataError("labels must be 0 (NO_BEAT) or 1 (BEAT)")
    if reduction not in ("mean", "sum"):
        raise DataError(f"unknown reduction {reduction!r}")

    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    rows = np.arange(n)
    w = weights.per_sample(labels, dtype=logits.dtype.type)
    nll = -log_p[rows, labels]
    denom = w.sum() if reduction == "mean" else logits.dtype.type(1.0)

    loss = float((w * nll).sum() / denom)
    p = np.exp(log_p)
    onehot = np.zeros_like(p)
    onehot[rows, labels] = 1
    dlogits = (p - onehot) * (w / denom)[:, None]
    return loss, dlogits.astype(logits.dtype)
