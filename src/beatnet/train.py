"""Training loop, transfer learning and checkpoint files.

One run owns its parameter dict exclusively: the loop shuffles segment
order each epoch with the seeded generator (NumPy PCG64 via
``default_rng``; seeds therefore reproduce across machines), walks the
batches (final short batch included), backpropagates the weighted
cross-entropy and applies AdaDelta updates, then scores the epoch with
an eval-mode pass over the training data.

The parameters a run starts from decide what it trains. With no
``init`` the whole network trains from a seeded initialisation. With
``init`` (the transfer-learning mode) only the FC head fine-tunes from
the given values, and the convolutional trunk runs in eval mode, so its
weights, BN parameters and BN running statistics all stay exactly as
given, and its output for a segment never changes. The loop therefore
computes the trunk features of the whole dataset once, up front, and
each batch (and each epoch's scoring pass) runs only the FC head on
them. The batches, the dropout draws and so the results are the same
as running the frozen trunk on every batch.

Checkpoints use the shared frame of :mod:`beatnet.container` (magic
"HBDL", u16 version, 8-byte checksum trailer). The body is a u32-length
JSON architecture header, then raw little-endian float32 parameter
blocks in declared order.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .config import Settings
from .container import read_framed, write_framed
from .errors import DataError, NumericError
from .loss import ClassWeights, weighted_cross_entropy
from .metrics import mcc_from_labels
from .nn import (
    NetworkConfig,
    backward,
    forward,
    forward_head,
    init_params,
    param_layout,
    trunk_features,
)
from .optim import AdaDeltaState, adadelta_step
from .segments import LabeledDataset

_CKPT_MAGIC = b"HBDL"
_CKPT_VERSION = 1


@dataclass
class TrainHistory:
    """Per-epoch summaries: mean loss (sample-weighted over batches),
    MCC of an eval pass over the training data, and wall-clock seconds.
    The seconds time the epochs alone: a transfer run's one-off frozen
    trunk feature pass comes before the first epoch and is in none.
    ``logits`` are the last eval pass's (n, 2) float32 logits, whose
    argmax the last MCC scores (None if no epoch ran)."""

    mean_loss: list[float] = field(default_factory=list)
    train_mcc: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    logits: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.mean_loss)

    def to_csv(self) -> str:
        lines = ["epoch,mean_loss,train_mcc,seconds"]
        for i in range(len(self)):
            lines.append(f"{i + 1},{self.mean_loss[i]:.6f},"
                         f"{self.train_mcc[i]:.6f},{self.seconds[i]:.3f}")
        return "\n".join(lines) + "\n"


def train(dataset: LabeledDataset, settings: Settings,
          init: dict | None = None) -> tuple[dict, TrainHistory]:
    """Train from scratch, or fine-tune the FC head of ``init`` with its
    trunk frozen, on one dataset.

    ``init`` is a checkpoint's parameters, already checked against
    ``settings`` by :func:`load_checkpoint` and :func:`check_architecture`.
    They are copied, not checked again: ``init`` is never written to, and
    no returned array shares memory with it.

    Returns the final parameters and the per-epoch history. The same
    (dataset, settings, init) always produces bitwise-identical results.
    """
    n = len(dataset)
    if n == 0:
        raise DataError("cannot train on an empty dataset")
    network = settings.network_config()
    weights = ClassWeights(settings.w_nobeat, settings.w_beat)
    rng = np.random.default_rng(settings.seed)
    if init is not None:
        params = {name: arr.copy() for name, arr in init.items()}
        inputs = trunk_features(network, params, dataset.X)
        step = forward_head
    else:
        params = init_params(network, rng)
        inputs = dataset.X
        step = forward
    y = dataset.y.astype(np.int64)
    state = AdaDeltaState(rho=settings.rho, eps=settings.eps, lr=settings.lr)
    history = TrainHistory()

    for epoch in range(settings.epochs):
        started = time.perf_counter()
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, settings.batch_size):
            batch_idx = order[start:start + settings.batch_size]
            yb = y[batch_idx]
            logits, cache = step(network, params, inputs[batch_idx],
                                 train=True, rng=rng)
            loss, dlogits = weighted_cross_entropy(
                logits, yb, weights, settings.reduction)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss {loss} in epoch {epoch + 1}, batch "
                    f"starting at segment {start}")
            grads = backward(network, params, cache, dlogits)
            adadelta_step(params, grads, state)
            for name, value in cache.bn_updates.items():
                params[name] = value
            loss_sum += loss * (len(batch_idx)
                                if settings.reduction == "mean" else 1.0)
        history.logits = nn.predict_logits(network, params, inputs, step)
        history.mean_loss.append(loss_sum / n)
        history.train_mcc.append(mcc_from_labels(
            history.logits.argmax(axis=1), y))
        history.seconds.append(time.perf_counter() - started)
    return params, history


def check_architecture(checkpoint_path, net_config: NetworkConfig,
                       settings: Settings) -> None:
    """Raise DataError unless ``net_config``, the architecture read from
    ``checkpoint_path``, is the one ``settings`` configures."""
    network = settings.network_config()
    if net_config != network:
        raise DataError(
            f"checkpoint architecture {net_config.to_dict()} in "
            f"{checkpoint_path} differs from configured {network.to_dict()}")


def save_checkpoint(params: dict, config: NetworkConfig, path) -> None:
    """Write parameters and architecture to a checkpoint file."""
    layout = param_layout(config)
    header = {
        "network": config.to_dict(),
        "params": [[name, list(shape)] for name, shape in layout],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [struct.pack("<I", len(header_bytes)), header_bytes]
    for name, shape in layout:
        arr = np.asarray(params[name], dtype=np.float32)
        if arr.shape != shape:
            raise DataError(f"{name}: shape {arr.shape} does not match "
                            f"layout {shape}")
        parts.append(arr.astype("<f4").tobytes())
    write_framed(path, _CKPT_MAGIC, _CKPT_VERSION, parts)


def load_checkpoint(path) -> tuple[dict, NetworkConfig]:
    """Read a checkpoint back; returns (params, architecture)."""
    rd = read_framed(path, _CKPT_MAGIC, _CKPT_VERSION)
    (header_len,) = rd.unpack("<I")
    header_bytes = rd.take(header_len)
    try:
        header = json.loads(bytes(header_bytes))
        config = NetworkConfig.from_dict(header["network"])
        declared = [(name, tuple(shape)) for name, shape in header["params"]]
    except (ValueError, KeyError, TypeError, RecursionError,
            DataError) as exc:
        raise DataError(f"unreadable checkpoint header in {path}: "
                        f"{exc}") from exc
    layout = param_layout(config)
    if declared != layout:
        raise DataError(f"checkpoint layout in {path} does not match its "
                        f"own architecture header")
    params = {}
    for name, shape in layout:
        raw = rd.take(4 * int(np.prod(shape)))
        params[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    rd.finish()
    return params, config
