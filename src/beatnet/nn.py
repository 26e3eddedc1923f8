"""A small 1-D CNN for beat detection, with hand-written backprop.

Architecture: four convolutional blocks, each BatchNorm -> Conv1d
(same padding, stride 1) -> ReLU -> MaxPool (kernel 2, stride 2), then
flatten, Dropout, and three fully connected layers with ReLU between
them; the final layer emits two logits. SoftMax is folded into the loss
(:mod:`beatnet.loss`). :func:`forward` is the one network pass: it
starts at layer ``start``, 0 for the whole network or ``HEAD`` (the
number of conv blocks) for Dropout and the FC layers on the trunk's
features, and the cache of a train-mode pass covers the layers it ran.
:func:`predict_logits` is the one scoring pass: callers keep its
logits, take their argmax as the class, and call it as
``nn.predict_logits``, and it calls ``forward`` through this module for
each chunk, so a wrapper set on this module sees every pass.

Everything is functional: parameters live in a plain dict of float32
arrays keyed by layer name, and no forward or backward call mutates
them. BatchNorm's train-mode forward returns candidate running-stat
updates; committing them is the trainer's job. Only a train-mode pass
records the intermediates :func:`backward` needs; an eval-mode pass
keeps none. :func:`trunk_features` is the trunk (the conv blocks and
the flatten): train mode given a cache, eval mode in ``TRUNK_ROWS``-row
blocks without one. :func:`forward` from 0 runs it and then the head;
from ``HEAD`` it takes features that the trunk gave once and runs the
head alone, as a frozen-trunk transfer run does.

Unconventional but deliberate: BatchNorm comes before the convolution
inside each block, and there is no ReLU after the final FC layer.

Layout: the network takes (n, L) rows, a dataset's ``X`` as it is,
and the trunk hands the head (n, flatten_width) features. The trunk is
channels-last: it views its rows as (n, L, 1), and every block passes
an (n, L, C) array on, so a conv's im2col GEMM output (n*L rows of
C_out) is the ReLU and max-pool input as it stands (Chellapilla et al.
2006). :func:`_im2col` fills the patch matrix tap by tap, one slice
copy per kernel offset. The trunk's last step, the flatten
(:func:`_flatten`, and its inverse in :func:`backward`), holds the one
layout change: it keeps fc0's column order c*L + l, so checkpoints are
unchanged. Conv weights stay (C_out, C_in, k). The per-channel
reductions of BatchNorm and of the conv bias gradient sum in the memory
order the earlier channels-first trunk used (see :func:`_channel_sum`),
so training gives the same float32 bytes as it did.

Memory-bound kernels: BatchNorm's shift and scale and the conv bias
apply a per-channel vector to an (n, L, C) array. Broadcast along the
last axis, each of NumPy's inner loops would run over only C elements,
so these kernels apply the vector repeated for each of the L positions
(:func:`_along_length`), which NumPy runs over whole L*C rows: the same
elementwise operations in the same order, and so the same bytes. Max-pool
takes ``np.maximum`` of its two lanes and builds its bool mask only
when a train-mode pass records a backward cache; its backward routes
the gradient with bit masks rather than ``np.where``.

Threads and blocks: an eval-mode :func:`trunk_features` runs over its
whole input in blocks of ``TRUNK_ROWS`` rows (the training batch size),
so that a block's conv intermediates stay in a 2 MiB L2 cache rather
than spilling tens of MiB (Goto & van de Geijn 2008). The blocks are
independent, so they are shared among the threads of
:func:`beatnet.segments.run_in_threads`, each writing its rows of one
output allocated before any block runs. :func:`predict_logits` runs
:func:`forward`, from either start, in chunks of ``EVAL_BATCH_ROWS``
rows. A trunk row gives the same bytes in a block of any size; fc0's
GEMM does not (its float32 logits at 1024 rows differ in the last bits
from those at 512 or fewer), so only the trunk is blocked and the head
keeps its chunks.
:func:`backward` hands each conv layer's weight and bias gradients to
one helper thread and walks on down the input-gradient chain, which the
next layer waits for (the split of Qi et al. 2023, Zero Bubble Pipeline
Parallelism). Every conv's input gradient runs in blocks of
``CONV_DX_ROWS`` rows, the last block taking the rest, for L2 again.
Both run on ``segments.WORKERS`` threads, the caller among them, and
start none on one CPU. No thread changes a byte: each computes what the
caller would, and every thread is joined before the call that started
it returns. The threads assume a one-thread BLAS, the package's default
(:mod:`beatnet`): two threads that call a multi-threaded OpenBLAS at
once wait on its one pool of threads.
"""

from __future__ import annotations

import contextvars
import math
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import segments
from .errors import DataError

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # running <- 0.9 * running + 0.1 * batch
EVAL_BATCH_ROWS = 1024  # rows per chunk of an eval-mode pass
TRUNK_ROWS = 64  # rows per block of an eval-mode trunk
CONV_DX_ROWS = 16  # rows per block of a conv's input-gradient GEMM
HEAD = 4  # forward's start past the four conv blocks: the head


@dataclass(frozen=True)
class NetworkConfig:
    """Complete network geometry; the sole source of parameter shapes.

    Every field but ``input_length`` is a ``[network]`` key of the run
    configuration, with its default. Block ``b`` maps the previous
    block's ``conv_channels`` (1 for the first) to ``conv_channels[b]``.
    """

    conv_channels: tuple = (8, 16, 32, 64)
    conv_kernels: tuple = (7, 5, 5, 3)
    fc_sizes: tuple = (128, 32, 2)
    dropout_p: float = 0.5
    input_length: int = 250
    bn_eps: float = BN_EPS
    bn_momentum: float = BN_MOMENTUM

    def __post_init__(self):
        if len(self.conv_channels) != 4 or len(self.conv_kernels) != 4:
            raise DataError(f"conv_channels and conv_kernels need exactly "
                            f"4 entries each, got {self.conv_channels} and "
                            f"{self.conv_kernels}")
        if min(self.conv_channels) < 1:
            raise DataError(f"conv_channels must all be >= 1, got "
                            f"{self.conv_channels}")
        if any(k < 1 or k % 2 == 0 for k in self.conv_kernels):
            raise DataError(f"conv_kernels must all be odd and >= 1, got "
                            f"{self.conv_kernels}")
        if (len(self.fc_sizes) != 3 or self.fc_sizes[-1] != 2
                or min(self.fc_sizes) < 1):
            raise DataError(f"fc_sizes must be 3 positive widths ending "
                            f"in 2, got {self.fc_sizes}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise DataError(f"dropout_p must be in [0, 1), got "
                            f"{self.dropout_p}")
        if not self.bn_eps > 0:
            raise DataError(f"bn_eps must be > 0, got {self.bn_eps}")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise DataError(f"bn_momentum must be in [0, 1], got "
                            f"{self.bn_momentum}")
        if self.conv_output_length < 1:
            raise DataError(f"input_length {self.input_length} pools "
                            f"away to nothing")

    @property
    def conv_blocks(self) -> tuple:
        """(in_channels, out_channels, kernel_size) of each conv block."""
        ins = (1, *self.conv_channels[:-1])
        return tuple(zip(ins, self.conv_channels, self.conv_kernels))

    @property
    def conv_output_length(self) -> int:
        return self.input_length // 2 ** len(self.conv_channels)

    @property
    def flatten_width(self) -> int:
        return self.conv_channels[-1] * self.conv_output_length

    def to_dict(self) -> dict:
        """The checkpoint header's form, with (in, out, kernel) blocks."""
        return {
            "conv_blocks": [list(b) for b in self.conv_blocks],
            "fc_sizes": list(self.fc_sizes),
            "dropout_p": self.dropout_p,
            "pool_kernel": 2,
            "input_length": self.input_length,
            "bn_eps": self.bn_eps,
            "bn_momentum": self.bn_momentum,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkConfig":
        """Read :meth:`to_dict` output (a checkpoint header's) back."""
        blocks = d["conv_blocks"]
        sizes = [*(v for b in blocks for v in b), *d["fc_sizes"],
                 d["pool_kernel"], d["input_length"]]
        if not all(type(v) is int for v in sizes):
            raise DataError(f"layer sizes must be integers, got {sizes}")
        if (any(len(b) != 3 for b in blocks) or [b[0] for b in blocks]
                != [1, *(b[1] for b in blocks[:-1])]):
            raise DataError(f"conv_blocks must be [in, out, kernel] triples, "
                            f"each block's in the previous block's out (1 "
                            f"for the first), got {blocks}")
        if d["pool_kernel"] != 2:
            raise DataError(f"only pool kernel 2 (stride 2) is supported, "
                            f"got {d['pool_kernel']}")
        return cls(
            conv_channels=tuple(b[1] for b in blocks),
            conv_kernels=tuple(b[2] for b in blocks),
            fc_sizes=tuple(d["fc_sizes"]),
            dropout_p=d["dropout_p"],
            input_length=d["input_length"],
            bn_eps=d["bn_eps"],
            bn_momentum=d["bn_momentum"],
        )


_BN_FIELDS = ("gamma", "beta", "running_mean", "running_var")


def param_layout(config: NetworkConfig) -> list[tuple[str, tuple]]:
    """Deterministic (name, shape) list defining parameter storage order."""
    layout = []
    for b, (c_in, c_out, k) in enumerate(config.conv_blocks):
        for f in _BN_FIELDS:
            layout.append((f"conv{b}.bn.{f}", (c_in,)))
        layout.append((f"conv{b}.weight", (c_out, c_in, k)))
        layout.append((f"conv{b}.bias", (c_out,)))
    in_width = config.flatten_width
    for i, out_width in enumerate(config.fc_sizes):
        layout.append((f"fc{i}.weight", (out_width, in_width)))
        layout.append((f"fc{i}.bias", (out_width,)))
        in_width = out_width
    return layout


def init_params(config: NetworkConfig,
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Seeded initialization: weights uniform in +-sqrt(1/fan_in), biases 0,
    BN gamma 1 / beta 0, running mean 0 / var 1.

    Weight tensors are drawn in layout order, so a seed fixes every value.
    """
    params: dict[str, np.ndarray] = {}
    for name, shape in param_layout(config):
        if name.endswith(".weight"):
            fan_in = int(np.prod(shape[1:]))
            bound = math.sqrt(1.0 / fan_in)
            params[name] = rng.uniform(-bound, bound, shape).astype(np.float32)
        elif name.endswith(("gamma", "running_var")):
            params[name] = np.ones(shape, dtype=np.float32)
        else:  # biases, beta, running_mean
            params[name] = np.zeros(shape, dtype=np.float32)
    return params


# ---------------------------------------------------------------------------
# layer kernels (dtype-preserving, pure; conv, BatchNorm and max-pool
# take channels-last (n, L, C) arrays)


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Per-channel sum of an (n, L, C) array over a C-contiguous
    (n, C, L) copy.

    A float32 sum depends on the memory order NumPy walks, and the
    channels-first trunk fixed that order for the checkpoints it wrote.
    Where it summed a C-contiguous (n, C, L) operand, the channels-last
    trunk sums this copy: BN's batch mean and variance (in
    batchnorm1d_forward), its dgamma and sum(dxhat * xhat), and the conv
    bias gradient. Where its operand was channels-last in memory already
    (BN's dbeta and sum(dxhat)), a plain ``sum(axis=(0, 1))`` walks the
    same order. Summing everything channels-last changes the bytes.
    """
    return np.ascontiguousarray(a.transpose(0, 2, 1)).sum(axis=(0, 2))


def _along_length(v: np.ndarray, length: int) -> np.ndarray:
    """A per-channel (C,) vector repeated for each of ``length``
    positions: a C-contiguous (L, C) array. Against a C-contiguous
    (n, L, C) array NumPy merges the last two axes of both, so one inner
    loop runs over each whole L*C row, not over C elements. One
    channel's (1,) vector is returned as it is: it broadcasts as a
    scalar."""
    if len(v) == 1:
        return v
    return v[None].repeat(length, axis=0)


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(n*L, C*k) same-padded patches of an (n, L, C) input; column
    c*k + j holds channel c at offset j - (k - 1) // 2, or 0 where that
    offset leaves [0, L).

    Filled tap by tap: tap j is one slice copy of x, shifted along L,
    into an (n, L, C, k) array, and its edge rows are zeroed. Each tap's
    range is clamped to [0, L], so a kernel wider than its input fills
    whole taps with zeros.
    """
    n, length, c = x.shape
    pad = (k - 1) // 2
    cols = np.empty((n, length, c, k), dtype=x.dtype)
    for j in range(k):
        shift = j - pad  # output row l reads input row l + shift
        lo = min(max(-shift, 0), length)
        hi = max(min(length - shift, length), lo)
        cols[:, :lo, :, j] = 0
        cols[:, lo:hi, :, j] = x[:, lo + shift:hi + shift]
        cols[:, hi:, :, j] = 0
    return cols.reshape(n * length, c * k)


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation: (n,L,Cin) -> (n,L,Cout).

    Weights stay (Cout, Cin, k). The GEMM output is the result, with no
    transpose."""
    if x.ndim != 3 or w.ndim != 3 or x.shape[2] != w.shape[1]:
        raise DataError(f"conv1d input {x.shape} vs weights {w.shape}")
    if b.shape != (w.shape[0],):
        raise DataError(f"conv1d bias {b.shape} vs {w.shape[0]} channels")
    n, length, c_in = x.shape
    c_out, _, k = w.shape
    y = (_im2col(x, k) @ w.reshape(c_out, c_in * k).T).reshape(
        n, length, c_out)
    y += _along_length(b, length)
    return y


def conv1d_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) for conv1d_forward, all channels-last.

    :func:`backward` calls its two halves, :func:`_conv_param_grads` and
    :func:`_conv_input_grad`, on two threads."""
    _check_conv_grad(x, w, dy)
    return _conv_input_grad(w, dy), *_conv_param_grads(x, w.shape, dy)


def _check_conv_grad(x: np.ndarray, w: np.ndarray, dy: np.ndarray) -> None:
    n, length, _ = x.shape
    if dy.shape != (n, length, w.shape[0]):
        raise DataError(f"conv1d gradient {dy.shape}, expected "
                        f"{(n, length, w.shape[0])}")


def _conv_param_grads(x: np.ndarray, shape: tuple, dy: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(dw, db) of conv1d_forward for (c_out, c_in, k) weights."""
    c_out, c_in, k = shape
    dy_flat = dy.reshape(-1, c_out)
    dw = (dy_flat.T @ _im2col(x, k)).reshape(c_out, c_in, k)
    return dw, _channel_sum(dy)


def _conv_input_grad(w: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dx of conv1d_forward: dy correlated with the flipped kernels,
    transposed over channels.

    One GEMM per block of ``CONV_DX_ROWS`` rows, the last block taking
    the rest (fewer than 2 * CONV_DX_ROWS rows make one block), so that
    a block's patch matrix stays in L2; every conv, the first (one
    input channel) included, is blocked by this one rule. A row's dx
    depends on that row alone, but a GEMM's float32 bytes may depend on
    its row count, so dx has the bytes of these blocks, which are not
    always those of one GEMM over every row."""
    n, length, c_out = dy.shape
    _, c_in, k = w.shape
    wflip = w[:, :, ::-1].transpose(1, 0, 2).reshape(c_in, c_out * k)
    dx = np.empty((n, length, c_in), dtype=np.result_type(dy, w))
    bounds = [0, *range(CONV_DX_ROWS, n - CONV_DX_ROWS + 1, CONV_DX_ROWS),
              n]
    for start, stop in zip(bounds, bounds[1:]):
        np.matmul(_im2col(dy[start:stop], k), wflip.T,
                  out=dx[start:stop].reshape(-1, c_in))
    return dx


def batchnorm1d_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                        running_mean: np.ndarray, running_var: np.ndarray,
                        train: bool, eps: float = BN_EPS,
                        momentum: float = BN_MOMENTUM):
    """Per-channel normalization of (n, L, C) inputs over (batch, length).

    Returns (y, cache, new_running_mean, new_running_var). In train mode
    batch statistics normalize and the returned running stats are the
    momentum blend (with the unbiased batch variance); callers decide
    whether to commit them. Eval mode normalizes by the running stats
    and returns them unchanged.
    """
    if x.ndim != 3 or x.shape[2] != gamma.shape[0]:
        raise DataError(f"batchnorm input {x.shape} vs "
                        f"{gamma.shape[0]} channels")
    n, length, c = x.shape
    if train:
        count = n * length
        if count < 2:
            raise DataError(
                f"batch statistics need >= 2 values per channel, got {count}")
        # mean and var on the channels-first copy (see _channel_sum), by
        # np.var's own steps with the mean summed once; with one channel
        # xt is x itself, so the deviations go to a new array
        xt = np.ascontiguousarray(x.transpose(0, 2, 1))
        mean = xt.sum(axis=(0, 2), keepdims=True)
        mean /= count
        dev = xt - mean
        np.square(dev, out=dev)
        var = dev.sum(axis=(0, 2)) / count
        mean = mean.reshape(c)
        unbiased = var * (count / (count - 1))
        new_mean = ((1.0 - momentum) * running_mean
                    + momentum * mean).astype(x.dtype)
        new_var = ((1.0 - momentum) * running_var
                   + momentum * unbiased).astype(x.dtype)
    else:
        mean, var = running_mean, running_var
        new_mean, new_var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = (x - _along_length(mean, length)) * _along_length(inv_std, length)
    y = _along_length(gamma, length) * xhat + _along_length(beta, length)
    cache = (xhat, inv_std.astype(x.dtype), gamma, train)
    return y.astype(x.dtype, copy=False), cache, new_mean, new_var


def batchnorm1d_backward(dy: np.ndarray, cache,
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dgamma, dbeta) for batchnorm1d_forward."""
    xhat, inv_std, gamma, train = cache
    if dy.shape != xhat.shape:
        raise DataError(f"batchnorm gradient {dy.shape}, expected "
                        f"{xhat.shape}")
    n, length, _ = dy.shape
    dgamma = _channel_sum(dy * xhat)
    dbeta = dy.sum(axis=(0, 1))
    dxhat = dy * _along_length(gamma, length)
    if not train:
        # running stats are constants, so the chain is elementwise
        return dxhat * _along_length(inv_std, length), dgamma, dbeta
    count = n * length
    sum_dxhat = dxhat.sum(axis=(0, 1))
    sum_dxhat_xhat = _channel_sum(dxhat * xhat)
    dx = (_along_length(inv_std / count, length)
          * (count * dxhat - _along_length(sum_dxhat, length)
             - xhat * _along_length(sum_dxhat_xhat, length)))
    return dx.astype(dy.dtype, copy=False), dgamma, dbeta


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient passes only where the input was strictly positive."""
    return dy * (x > 0)


def maxpool1d_forward(x: np.ndarray, train: bool = True,
                      ) -> tuple[np.ndarray, np.ndarray | None]:
    """Kernel-2 stride-2 max pooling along L of (n, L, C) inputs; a
    trailing odd row is dropped.

    Returns (y, second). In train mode the bool mask ``second`` is True
    where a window's second lane wins (strictly; ties take the first
    lane, as an argmax does), for the backward pass; in eval mode it is
    None and is not computed. A tie of -0.0 and +0.0 yields the first
    lane's zero. A NaN in either lane makes the window NaN (the NaN
    propagates, as ``np.maximum`` does), while the mask, whose compare
    is false against NaN, routes that window's gradient to the first
    lane.
    """
    if x.ndim != 3:
        raise DataError(f"maxpool expects (n, length, c), got {x.shape}")
    end = 2 * (x.shape[1] // 2)
    first, last = x[:, 0:end:2], x[:, 1:end:2]
    # this operand order keeps ``first`` on a signed-zero tie
    y = np.maximum(last, first)
    return y, (last > first if train else None)


def maxpool1d_backward(dy: np.ndarray, second: np.ndarray,
                       input_length: int) -> np.ndarray:
    """Routes each output gradient to its window's winning row.

    Works on the gradient's bits: each lane is ``dy`` ANDed with an
    all-ones or all-zeros word, so a losing lane holds +0.0 and a
    winning one ``dy`` exactly, signed zeros and NaNs included."""
    n, half, c = dy.shape
    bits = np.dtype(f"u{dy.itemsize}")
    dx = np.zeros((n, input_length, c), dtype=dy.dtype)
    to_first = second.astype(bits) - bits.type(1)  # all ones where not second
    dx_bits, dy_bits = dx.view(bits), dy.view(bits)
    np.bitwise_and(dy_bits, to_first, out=dx_bits[:, 0:2 * half:2])
    np.bitwise_and(dy_bits, ~to_first, out=dx_bits[:, 1:2 * half:2])
    return dx


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y = x W^T + b over (n, in) inputs."""
    if x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise DataError(f"linear input {x.shape} vs weights {w.shape}")
    if b.shape != (w.shape[0],):
        raise DataError(f"linear bias {b.shape} vs {w.shape[0]} outputs")
    return x @ w.T + b


def linear_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if dy.shape != (x.shape[0], w.shape[0]):
        raise DataError(f"linear gradient {dy.shape}, expected "
                        f"{(x.shape[0], w.shape[0])}")
    return dy @ w, dy.T @ x, dy.sum(axis=0)


def dropout_forward(x: np.ndarray, p: float, train: bool,
                    rng: np.random.Generator | None = None,
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: zero with probability p, scale survivors by
    1/(1-p). Identity in eval mode or at p = 0 (no random draw)."""
    if not 0.0 <= p < 1.0:
        raise DataError(f"dropout probability must be in [0, 1), "
                        f"got {p}")
    if not train or p == 0.0:
        return x, None
    if rng is None:
        raise DataError("train-mode dropout with p > 0 needs an rng")
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / np.asarray(
        1.0 - p, dtype=x.dtype)
    return x * mask, mask


def dropout_backward(dy: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return dy if mask is None else dy * mask


# ---------------------------------------------------------------------------
# whole-network forward / backward

@dataclass
class ForwardCache:
    """Intermediates a backward pass needs, one entry per layer. Only
    train-mode passes record one."""

    layers: list = field(default_factory=list)
    bn_updates: dict = field(default_factory=dict)


def trunk_features(config: NetworkConfig, params: dict, X: np.ndarray,
                   cache: ForwardCache | None = None) -> np.ndarray:
    """The four conv blocks on (n, input_length) rows; returns their
    flattened (n, flatten_width) output. Given a ``cache``, runs in
    train mode and appends its intermediates (the flatten last) and BN
    updates to it; without one, runs in eval mode, keeps no
    intermediates and works in blocks of ``TRUNK_ROWS`` rows, on
    ``segments.WORKERS`` threads. Eval mode
    makes each row's features independent of the rest of its batch, so
    a frozen trunk's can be computed once and reused."""
    if X.ndim != 2 or X.shape[1] != config.input_length:
        raise DataError(
            f"expected (n, {config.input_length}) input, got {X.shape}")
    if cache is None and len(X) > TRUNK_ROWS:
        # one block's dtype: the rows' promoted by the float32 parameters
        out = np.empty((len(X), config.flatten_width),
                       np.result_type(X.dtype, np.float32))

        def block(k):
            rows = slice(k * TRUNK_ROWS, (k + 1) * TRUNK_ROWS)
            out[rows] = trunk_features(config, params, X[rows])

        segments.run_in_threads(block, -(-len(X) // TRUNK_ROWS))
        return out
    h = X.reshape(len(X), config.input_length, 1)  # one channel: no copy
    for b in range(len(config.conv_blocks)):
        prefix = f"conv{b}"
        y, bn_cache, new_mean, new_var = batchnorm1d_forward(
            h, params[f"{prefix}.bn.gamma"], params[f"{prefix}.bn.beta"],
            params[f"{prefix}.bn.running_mean"],
            params[f"{prefix}.bn.running_var"],
            train=cache is not None, eps=config.bn_eps,
            momentum=config.bn_momentum)
        conv = conv1d_forward(y, params[f"{prefix}.weight"],
                              params[f"{prefix}.bias"])
        h, second = maxpool1d_forward(relu_forward(conv),
                                      train=cache is not None)
        if cache is not None:
            cache.bn_updates[f"{prefix}.bn.running_mean"] = new_mean
            cache.bn_updates[f"{prefix}.bn.running_var"] = new_var
            cache.layers += [("bn", prefix, bn_cache), ("conv", prefix, y),
                             ("relu", prefix, conv),
                             ("pool", prefix, (second, conv.shape[1]))]
    if cache is not None:
        cache.layers.append(("flatten", "", h.shape))
    return _flatten(h)


def _flatten(h: np.ndarray) -> np.ndarray:
    """(n, L, C) trunk output -> (n, C*L) in fc0's column order c*L + l:
    the one place the channels-last trunk changes layout."""
    return h.transpose(0, 2, 1).reshape(len(h), h.shape[1] * h.shape[2])


def forward(config: NetworkConfig, params: dict, x: np.ndarray,
            train: bool, rng: np.random.Generator | None = None,
            start: int = 0) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the network from layer ``start`` on; returns logits.

    At ``start = 0`` x holds (n, input_length) rows and the whole
    network runs. At ``start = HEAD`` x holds :func:`trunk_features`
    output and only Dropout and the FC layers run. In train mode the
    cache carries every intermediate :func:`backward` needs for the
    layers that ran, plus candidate BN running-stat updates (none from
    the head alone); in eval mode it is None. No parameter is mutated
    here.
    """
    if start not in (0, HEAD):
        raise DataError(f"forward starts at 0 or at HEAD ({HEAD}), "
                        f"got {start!r}")
    cache = ForwardCache() if train else None
    if start == 0:
        x = trunk_features(config, params, x, cache)
    if x.ndim != 2 or x.shape[1] != config.flatten_width:
        raise DataError(f"expected (n, {config.flatten_width}) features, "
                        f"got {x.shape}")
    h, mask = dropout_forward(x, config.dropout_p, train, rng)
    if train:
        cache.layers.append(("dropout", "", mask))
    last = len(config.fc_sizes) - 1
    for i in range(len(config.fc_sizes)):
        z = linear_forward(h, params[f"fc{i}.weight"], params[f"fc{i}.bias"])
        if train:
            cache.layers.append(("fc", f"fc{i}", h))
            if i != last:
                cache.layers.append(("relu", f"fc{i}", z))
        h = z if i == last else relu_forward(z)
    return h, cache


def backward(config: NetworkConfig, params: dict, cache: ForwardCache,
             dlogits: np.ndarray) -> dict:
    """Gradients of the loss w.r.t. the parameters the cache covers.

    Walks the cached layers in reverse. A cache from :func:`forward` at
    ``start = 0`` yields every trainable parameter; one from ``start =
    HEAD`` begins at its dropout entry, so the walk ends there and only
    FC gradients are returned. A conv layer's weight and bias gradients
    go to :func:`_side_thread` as soon as its ``dy`` is known, while the
    walk carries on down the input-gradient chain.
    """
    grads: dict[str, np.ndarray] = {}
    convs = []
    dy = dlogits
    with _side_thread() as submit:
        for kind, name, stored in reversed(cache.layers):
            if kind == "fc":
                dy, dw, db = linear_backward(stored,
                                             params[f"{name}.weight"], dy)
                grads[f"{name}.weight"] = dw
                grads[f"{name}.bias"] = db
            elif kind == "relu":
                dy = relu_backward(dy, stored)
            elif kind == "dropout":
                dy = dropout_backward(dy, stored)
            elif kind == "flatten":  # undo _flatten: (n, C*L) -> (n, L, C)
                n, length, c = stored
                dy = dy.reshape(n, c, length).transpose(0, 2, 1)
            elif kind == "pool":
                second, input_length = stored
                dy = maxpool1d_backward(dy, second, input_length)
            elif kind == "conv":
                w = params[f"{name}.weight"]
                _check_conv_grad(stored, w, dy)
                # filled in below; the keys keep the walk's order
                grads[f"{name}.weight"] = grads[f"{name}.bias"] = None
                convs.append((name, submit(_conv_param_grads, stored,
                                           w.shape, dy)))
                dy = _conv_input_grad(w, dy)
            elif kind == "bn":
                dy, dgamma, dbeta = batchnorm1d_backward(dy, stored)
                grads[f"{name}.bn.gamma"] = dgamma
                grads[f"{name}.bn.beta"] = dbeta
            else:  # pragma: no cover - layer kinds are fixed above
                raise DataError(f"unknown cached layer kind {kind!r}")
    for name, future in convs:
        grads[f"{name}.weight"], grads[f"{name}.bias"] = future.result()
    return grads


@contextmanager
def _side_thread():
    """Yields ``submit(fn, *args)``, which returns a future of
    ``fn(*args)``.

    On more than one CPU (``segments.WORKERS``), the calls run in turn on one
    helper thread, each in a copy of the caller's context (so the
    caller's ``np.errstate`` holds there), and the thread is joined when
    the block exits, before any future's result or failure is read.
    With one worker each call runs on the caller, at once, and no thread
    is started."""
    if segments.WORKERS < 2:
        yield _call_now
        return
    with ThreadPoolExecutor(1) as pool:
        yield lambda fn, *args: pool.submit(
            contextvars.copy_context().run, fn, *args)


def _call_now(fn, *args) -> Future:
    future = Future()
    future.set_result(fn(*args))
    return future


def predict_logits(config: NetworkConfig, params: dict, X: np.ndarray,
                   start: int = 0) -> np.ndarray:
    """Eval-mode logits of :func:`forward` from ``start``, computed in
    chunks of ``EVAL_BATCH_ROWS`` rows; no rows make one empty chunk."""
    return np.concatenate([
        forward(config, params, X[i:i + EVAL_BATCH_ROWS], train=False,
                start=start)[0]
        for i in range(0, max(len(X), 1), EVAL_BATCH_ROWS)])
