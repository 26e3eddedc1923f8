"""Finite-difference gradient checks for every layer and the full net.

Each check builds a random small configuration, projects the layer
output onto a fixed random tensor to get a scalar, and compares the
analytic backward pass against central differences. Inputs are
arranged so the comparison is meaningful: ReLU inputs keep a margin
from the kink at 0, and max-pool inputs are distinct integers so no
perturbation can flip a window's winner.

The conv, BatchNorm and max-pool kernels take channels-last (n, L, C)
arrays; their inputs are drawn channels-first and copied to C-contiguous
channels-last arrays (which numeric_grad can perturb in place), so the
draws are those of the channels-first kernels' checks.

Returns are worst-case relative errors, so callers just assert a bound.
"""

from __future__ import annotations

import numpy as np

from beatnet.loss import ClassWeights, weighted_cross_entropy
from beatnet.nn import (
    NetworkConfig,
    backward,
    batchnorm1d_backward,
    batchnorm1d_forward,
    conv1d_backward,
    conv1d_forward,
    forward,
    init_params,
    linear_backward,
    linear_forward,
    maxpool1d_backward,
    maxpool1d_forward,
    param_layout,
    relu_backward,
    relu_forward,
)

from helpers import channels_last, max_rel_err, numeric_grad

FD_EPS = 1e-3  # float64 central-difference step


def gradcheck_conv1d(rng: np.random.Generator) -> float:
    n = int(rng.integers(1, 4))
    c_in = int(rng.integers(1, 4))
    c_out = int(rng.integers(1, 5))
    length = int(rng.integers(4, 12))
    k = int(rng.choice([1, 3, 5]))
    x = channels_last(rng.normal(size=(n, c_in, length)))
    w = rng.normal(size=(c_out, c_in, k)) * 0.5
    b = rng.normal(size=c_out) * 0.1
    proj = channels_last(rng.normal(size=(n, c_out, length)))

    def f() -> float:
        return float((conv1d_forward(x, w, b) * proj).sum())

    dx, dw, db = conv1d_backward(x, w, proj)
    return max(max_rel_err(dx, numeric_grad(f, x, FD_EPS)),
               max_rel_err(dw, numeric_grad(f, w, FD_EPS)),
               max_rel_err(db, numeric_grad(f, b, FD_EPS)))


def gradcheck_batchnorm1d(rng: np.random.Generator, train: bool) -> float:
    n = int(rng.integers(2, 5))
    c = int(rng.integers(1, 4))
    length = int(rng.integers(2, 8))
    x = channels_last(rng.normal(size=(n, c, length)) * 2.0)
    gamma = rng.uniform(0.5, 1.5, c)
    beta = rng.normal(size=c)
    rm = rng.normal(size=c) * 0.3
    rv = rng.uniform(0.5, 2.0, c)
    proj = channels_last(rng.normal(size=(n, c, length)))

    def f() -> float:
        y, _, _, _ = batchnorm1d_forward(x, gamma, beta, rm, rv, train=train)
        return float((y * proj).sum())

    _, cache, _, _ = batchnorm1d_forward(x, gamma, beta, rm, rv, train=train)
    dx, dgamma, dbeta = batchnorm1d_backward(proj, cache)
    return max(max_rel_err(dx, numeric_grad(f, x, FD_EPS)),
               max_rel_err(dgamma, numeric_grad(f, gamma, FD_EPS)),
               max_rel_err(dbeta, numeric_grad(f, beta, FD_EPS)))


def gradcheck_relu(rng: np.random.Generator) -> float:
    shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)),
             int(rng.integers(3, 10)))
    # keep every input at least 0.2 from the kink at zero
    x = (0.2 + rng.uniform(0.0, 1.3, shape)) * rng.choice([-1.0, 1.0], shape)
    proj = rng.normal(size=shape)

    def f() -> float:
        return float((relu_forward(x) * proj).sum())

    dx = relu_backward(proj, x)
    return max_rel_err(dx, numeric_grad(f, x, FD_EPS))


def gradcheck_maxpool1d(rng: np.random.Generator) -> float:
    n = int(rng.integers(1, 4))
    c = int(rng.integers(1, 4))
    length = int(rng.integers(4, 11))
    # distinct integer values: unit gaps, so +-eps cannot flip a winner
    x = rng.permutation(n * c * length).astype(np.float64)
    x = channels_last((x.reshape(n, c, length) - x.mean()) * 0.1)
    half = length // 2
    proj = channels_last(rng.normal(size=(n, c, half)))

    def f() -> float:
        return float((maxpool1d_forward(x)[0] * proj).sum())

    _, second = maxpool1d_forward(x)
    dx = maxpool1d_backward(proj, second, length)
    return max_rel_err(dx, numeric_grad(f, x, FD_EPS))


def gradcheck_linear(rng: np.random.Generator) -> float:
    n = int(rng.integers(1, 5))
    d_in = int(rng.integers(1, 7))
    d_out = int(rng.integers(1, 6))
    x = rng.normal(size=(n, d_in))
    w = rng.normal(size=(d_out, d_in)) * 0.5
    b = rng.normal(size=d_out) * 0.1
    proj = rng.normal(size=(n, d_out))

    def f() -> float:
        return float((linear_forward(x, w, b) * proj).sum())

    dx, dw, db = linear_backward(x, w, proj)
    return max(max_rel_err(dx, numeric_grad(f, x, FD_EPS)),
               max_rel_err(dw, numeric_grad(f, w, FD_EPS)),
               max_rel_err(db, numeric_grad(f, b, FD_EPS)))


def gradcheck_loss(rng: np.random.Generator) -> float:
    n = int(rng.integers(1, 8))
    logits = rng.normal(size=(n, 2)) * 2.0
    labels = rng.integers(0, 2, n)
    weights = ClassWeights(float(rng.uniform(0.05, 1.0)),
                           float(rng.uniform(0.05, 1.0)))
    reduction = "mean" if rng.random() < 0.5 else "sum"

    def f() -> float:
        return weighted_cross_entropy(logits, labels, weights, reduction)[0]

    _, dlogits = weighted_cross_entropy(logits, labels, weights, reduction)
    return max_rel_err(dlogits, numeric_grad(f, logits, FD_EPS))


LAYER_CHECKS = {
    "conv1d": gradcheck_conv1d,
    "batchnorm1d_train": lambda rng: gradcheck_batchnorm1d(rng, True),
    "batchnorm1d_eval": lambda rng: gradcheck_batchnorm1d(rng, False),
    "relu": gradcheck_relu,
    "maxpool1d": gradcheck_maxpool1d,
    "linear": gradcheck_linear,
    "loss": gradcheck_loss,
}

# Small full network for whole-graph checks: same 4-block + 3-FC shape,
# shrunk so the forward pass stays cheap inside the FD loop.
SMALL_NET = NetworkConfig(conv_channels=(2, 3, 4, 4),
                          conv_kernels=(3, 3, 3, 3), fc_sizes=(8, 4, 2),
                          dropout_p=0.0, input_length=32)


def _coordinate_fd(f, arr: np.ndarray, flat_index: int, eps: float) -> float:
    flat = arr.reshape(-1)
    orig = flat[flat_index]
    flat[flat_index] = orig + eps
    f_plus = f()
    flat[flat_index] = orig - eps
    f_minus = f()
    flat[flat_index] = orig
    return (f_plus - f_minus) / (2.0 * eps)


def _activation_pattern(cache) -> list[np.ndarray]:
    """ReLU on/off masks and pool lane choices of one forward pass."""
    pattern = []
    for kind, _, payload in cache.layers:
        if kind == "relu":
            pattern.append(payload > 0)
        elif kind == "pool":
            pattern.append(payload[0])
    return pattern


def sampled_keys(config: NetworkConfig) -> list[str]:
    """The parameters the full-network check samples: every layout entry
    but the BatchNorm running statistics, which get no gradient."""
    return [name for name, _ in param_layout(config)
            if "running_" not in name]


def gradcheck_full_network(seed: int, dtype=np.float64,
                           eps: float = 1e-5, n_coords: int = 20,
                           config: NetworkConfig = SMALL_NET,
                           mag_floor: float = 1e-6,
                           ) -> float:
    """Compare backprop against FD at ``n_coords`` sampled parameters.

    Train-mode forward (batch statistics active) with dropout p = 0, so
    repeated evaluations are deterministic. The loss is only piecewise
    smooth, so central differences are an oracle for the gradient only
    when the whole interval [x-eps, x+eps] stays on one smooth piece: a
    sampled coordinate is accepted only if the ReLU on/off masks and
    pool lane choices are identical at x and x+-eps, and its gradient
    clears ``mag_floor`` (the dtype's FD round-off noise). Coordinates
    failing that screen say nothing about backprop and are resampled.
    """
    rng = np.random.default_rng(seed)
    params = {k: v.astype(dtype) for k, v in
              init_params(config, rng).items()}
    x = rng.normal(size=(3, config.input_length)).astype(dtype)
    labels = rng.integers(0, 2, 3)

    def probe() -> tuple[float, list[np.ndarray]]:
        logits, cache = forward(config, params, x, train=True)
        loss, _ = weighted_cross_entropy(logits, labels)
        return loss, _activation_pattern(cache)

    logits, cache = forward(config, params, x, train=True)
    _, dlogits = weighted_cross_entropy(logits, labels)
    grads = backward(config, params, cache, dlogits)
    base_pattern = _activation_pattern(cache)

    keys = sampled_keys(config)
    worst = 0.0
    accepted = 0
    for _ in range(60 * n_coords):
        if accepted == n_coords:
            break
        key = keys[int(rng.integers(0, len(keys)))]
        idx = int(rng.integers(0, params[key].size))
        analytic = float(grads[key].reshape(-1)[idx])
        if abs(analytic) < mag_floor:
            continue
        flat = params[key].reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + eps
        f_plus, pat_plus = probe()
        flat[idx] = orig - eps
        f_minus, pat_minus = probe()
        flat[idx] = orig
        smooth = all(
            np.array_equal(b, p) and np.array_equal(b, m)
            for b, p, m in zip(base_pattern, pat_plus, pat_minus))
        if not smooth:
            continue  # FD interval crosses a kink; not a valid oracle here
        numeric = (f_plus - f_minus) / (2.0 * eps)
        accepted += 1
        worst = max(worst,
                    abs(analytic - numeric) / max(abs(analytic), abs(numeric)))
    if accepted < n_coords:
        raise AssertionError(
            f"only {accepted}/{n_coords} coordinates passed the FD screen")
    return worst
