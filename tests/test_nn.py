"""Layer semantics, network geometry and forward-pass contract tests.

The conv, BatchNorm and max-pool kernels take channels-last (n, L, C)
arrays.
"""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from beatnet import nn, segments
from beatnet.errors import DataError
from beatnet.nn import (
    EVAL_BATCH_ROWS,
    HEAD,
    TRUNK_ROWS,
    NetworkConfig,
    backward,
    batchnorm1d_backward,
    batchnorm1d_forward,
    conv1d_backward,
    conv1d_forward,
    dropout_backward,
    dropout_forward,
    forward,
    init_params,
    linear_forward,
    maxpool1d_backward,
    maxpool1d_forward,
    param_layout,
    predict_logits,
    relu_backward,
    relu_forward,
    trunk_features,
)

from helpers import (
    channels_last,
    count_thread_starts,
    ref_batchnorm1d_backward,
    ref_batchnorm1d_forward,
    ref_conv1d_backward,
    ref_conv1d_forward,
    ref_maxpool1d_backward,
    ref_maxpool1d_forward,
)

NET = NetworkConfig()  # the default geometry


# --- convolution ---


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 10, 1))
    w = np.array([[[0.0, 1.0, 0.0]]])  # centered tap: same-padded identity
    y = conv1d_forward(x, w, np.zeros(1))
    np.testing.assert_allclose(y, x, atol=1e-12)


def test_conv_width_one_kernel_scales():
    x = np.arange(12.0).reshape(1, 12, 1)
    y = conv1d_forward(x, np.array([[[2.0]]]), np.array([1.0]))
    np.testing.assert_allclose(y, 2.0 * x + 1.0)


def test_conv_shift_kernel_zero_pads_edges():
    x = np.arange(1.0, 6.0).reshape(1, 5, 1)
    w = np.array([[[1.0, 0.0, 0.0]]])  # output t = input t-1
    y = conv1d_forward(x, w, np.zeros(1))
    np.testing.assert_allclose(y[0, :, 0], [0.0, 1.0, 2.0, 3.0, 4.0])


def test_conv_sums_input_channels():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 2, 8)).transpose(0, 2, 1)
    w = np.zeros((1, 2, 1))
    w[0, 0, 0] = 1.0
    w[0, 1, 0] = 10.0
    y = conv1d_forward(x, w, np.zeros(1))
    np.testing.assert_allclose(y[..., 0], x[..., 0] + 10.0 * x[..., 1],
                               atol=1e-12)


def test_conv_output_shape_and_dtype():
    x = np.zeros((4, 25, 3), dtype=np.float32)
    w = np.zeros((6, 3, 5), dtype=np.float32)
    y = conv1d_forward(x, w, np.zeros(6, dtype=np.float32))
    assert y.shape == (4, 25, 6)
    assert y.dtype == np.float32


def test_conv_shape_mismatch():
    with pytest.raises(DataError, match="conv1d input"):
        conv1d_forward(np.zeros((2, 10, 3)), np.zeros((4, 2, 3)), np.zeros(4))


# --- batch normalization ---


def test_batchnorm_normalizes_in_train_mode():
    rng = np.random.default_rng(2)
    x = rng.normal(3.0, 2.0, (8, 2, 50)).transpose(0, 2, 1)
    y, _, _, _ = batchnorm1d_forward(
        x, np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), train=True)
    np.testing.assert_allclose(y.mean(axis=(0, 1)), 0.0, atol=1e-10)
    np.testing.assert_allclose(y.std(axis=(0, 1)), 1.0, atol=1e-3)


def test_batchnorm_gamma_beta():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 20, 1))
    y, _, _, _ = batchnorm1d_forward(
        x, np.array([2.0]), np.array([5.0]), np.zeros(1), np.ones(1),
        train=True)
    np.testing.assert_allclose(y.mean(), 5.0, atol=1e-10)


def test_batchnorm_eval_uses_running_stats():
    x = np.full((1, 4, 1), 10.0)
    y, _, rm, rv = batchnorm1d_forward(
        x, np.ones(1), np.zeros(1), np.array([10.0]), np.array([4.0]),
        train=False)
    np.testing.assert_allclose(y, 0.0, atol=1e-7)
    # eval mode returns the running stats unchanged
    np.testing.assert_array_equal(rm, [10.0])
    np.testing.assert_array_equal(rv, [4.0])


def test_batchnorm_running_stats_momentum_blend():
    x = np.concatenate([np.zeros((1, 2, 1)), np.ones((1, 2, 1)) * 4.0])
    _, _, rm, rv = batchnorm1d_forward(
        x, np.ones(1), np.zeros(1), np.zeros(1), np.ones(1), train=True)
    # batch mean 2.0 -> 0.9*0 + 0.1*2; batch var 4.0 unbiased -> 16/3
    np.testing.assert_allclose(rm, [0.2], atol=1e-12)
    np.testing.assert_allclose(rv, [0.9 + 0.1 * 16.0 / 3.0], atol=1e-7)


def test_batchnorm_degenerate_batch():
    with pytest.raises(DataError, match="batch statistics need >= 2"):
        batchnorm1d_forward(np.zeros((1, 1, 1)), np.ones(1), np.zeros(1),
                            np.zeros(1), np.ones(1), train=True)


def test_batchnorm_preserves_float32():
    x = np.random.default_rng(4).normal(size=(2, 3, 8)).astype(
        np.float32).transpose(0, 2, 1)
    y, _, rm, rv = batchnorm1d_forward(
        x, np.ones(3, np.float32), np.zeros(3, np.float32),
        np.zeros(3, np.float32), np.ones(3, np.float32), train=True)
    assert y.dtype == np.float32
    assert rm.dtype == np.float32 and rv.dtype == np.float32


# --- relu / pooling / linear ---


def test_relu_values_and_gradient_at_zero():
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(relu_forward(x), [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(relu_backward(np.ones(3), x), [0.0, 0.0, 1.0])


def column(*values) -> np.ndarray:
    """A one-row, one-channel (1, L, 1) array."""
    return np.array(values, dtype=np.float64).reshape(1, -1, 1)


def test_maxpool_values():
    x = column(1.0, 3.0, 2.0, 5.0)
    y, second = maxpool1d_forward(x)
    np.testing.assert_array_equal(y, column(3.0, 5.0))
    np.testing.assert_array_equal(second, [[[True], [True]]])


def test_maxpool_drops_trailing_odd_element():
    x = np.arange(251.0).reshape(1, 251, 1)
    y, _ = maxpool1d_forward(x)
    assert y.shape == (1, 125, 1)
    assert y[0, -1, 0] == 249.0  # element 250 never participates


def test_maxpool_tie_routes_gradient_to_first():
    x = column(7.0, 7.0)
    y, second = maxpool1d_forward(x)
    np.testing.assert_array_equal(y, column(7.0))
    dx = maxpool1d_backward(column(1.0), second, 2)
    np.testing.assert_array_equal(dx, column(1.0, 0.0))


def test_maxpool_backward_zeroes_dropped_tail():
    x = column(1.0, 2.0, 9.0)
    y, second = maxpool1d_forward(x)
    dx = maxpool1d_backward(np.ones_like(y), second, 3)
    np.testing.assert_array_equal(dx, column(0.0, 1.0, 0.0))


def test_linear_identity_and_bias():
    x = np.arange(6.0).reshape(2, 3)
    y = linear_forward(x, np.eye(3), np.array([1.0, 0.0, -1.0]))
    np.testing.assert_allclose(y, x + np.array([1.0, 0.0, -1.0]))
    with pytest.raises(DataError, match="linear input"):
        linear_forward(x, np.eye(4), np.zeros(4))


# --- the channels-first kernels, bit for bit ---
# Each case gives the oracle the memory layout the channels-first trunk
# gave that kernel, and the kernel under test its channels-last copy.
# Blocks 1 and 3 of the default geometry pool odd lengths (125, 31).

ORACLE_CASES = [(rows, block) for rows in (2, 64, 1024) for block in range(4)]


def block_geometry(block: int) -> tuple[int, int, int, int]:
    """(c_in, c_out, k, input length) of a default-geometry block."""
    return (*NET.conv_blocks[block], NET.input_length // 2 ** block)


def draw(rng, shape) -> np.ndarray:
    return rng.normal(size=shape).astype(np.float32)


def assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows,block", ORACLE_CASES)
def test_conv_matches_channels_first_kernels(rows, block):
    rng = np.random.default_rng(block)
    c_in, c_out, k, length = block_geometry(block)
    x = draw(rng, (rows, c_in, length))
    w = draw(rng, (c_out, c_in, k))
    b = draw(rng, c_out)
    dy = draw(rng, (rows, c_out, length))
    # both kernels got C-contiguous channels-first arrays
    assert_same_bytes(conv1d_forward(channels_last(x), w, b),
                      channels_last(ref_conv1d_forward(x, w, b)))
    dx, dw, db = conv1d_backward(channels_last(x), w, channels_last(dy))
    ref_dx, ref_dw, ref_db = ref_conv1d_backward(x, w, dy)
    assert_same_bytes(dx, channels_last(ref_dx))
    assert_same_bytes(dw, ref_dw)
    assert_same_bytes(db, ref_db)


@pytest.mark.parametrize("rows", [2, 64])
@pytest.mark.parametrize("c_in,c_out,k,length", [
    (8, 16, 1, 62),    # the centre tap alone
    (32, 64, 71, 31),  # k > L: 10 taps lie wholly past an edge
    (1, 8, 7, 3)])     # 2 taps lie wholly past an edge
def test_conv_edge_kernels_match_channels_first_kernels(rows, c_in, c_out,
                                                        k, length):
    rng = np.random.default_rng(k)
    x = draw(rng, (rows, c_in, length))
    w = draw(rng, (c_out, c_in, k))
    b = draw(rng, c_out)
    dy = draw(rng, (rows, c_out, length))
    assert_same_bytes(conv1d_forward(channels_last(x), w, b),
                      channels_last(ref_conv1d_forward(x, w, b)))
    dx, dw, db = conv1d_backward(channels_last(x), w, channels_last(dy))
    ref_dx, ref_dw, ref_db = ref_conv1d_backward(x, w, dy)
    assert_same_bytes(dx, channels_last(ref_dx))
    assert_same_bytes(dw, ref_dw)
    assert_same_bytes(db, ref_db)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("rows,block", ORACLE_CASES)
def test_batchnorm_matches_channels_first_kernels(rows, block, train):
    rng = np.random.default_rng(10 + block)
    c, _, _, length = block_geometry(block)
    x = 2.0 * draw(rng, (rows, c, length)) + 1.0
    gamma, beta, running_mean = (draw(rng, c) for _ in range(3))
    running_var = rng.uniform(0.5, 2.0, c).astype(np.float32)
    # the forward got a C-contiguous channels-first input
    y, cache, new_mean, new_var = batchnorm1d_forward(
        channels_last(x), gamma, beta, running_mean, running_var, train)
    ref_y, ref_cache, ref_mean, ref_var = ref_batchnorm1d_forward(
        x, gamma, beta, running_mean, running_var, train)
    assert_same_bytes(y, channels_last(ref_y))
    assert_same_bytes(cache[0], channels_last(ref_cache[0]))
    assert_same_bytes(cache[1], ref_cache[1])
    assert cache[2] is gamma and cache[3] is train
    assert_same_bytes(new_mean, ref_mean)
    assert_same_bytes(new_var, ref_var)
    # its gradient was the conv's dx: channels-last in memory
    dy = draw(rng, (rows, length, c))
    grads = batchnorm1d_backward(dy, cache)
    ref_grads = ref_batchnorm1d_backward(dy.transpose(0, 2, 1), ref_cache)
    assert_same_bytes(grads[0], channels_last(ref_grads[0]))
    for grad, ref_grad in zip(grads[1:], ref_grads[1:]):
        assert_same_bytes(grad, ref_grad)


@pytest.mark.parametrize("rows,block", ORACLE_CASES)
def test_maxpool_matches_channels_first_kernels(rows, block):
    rng = np.random.default_rng(20 + block)
    _, c, _, length = block_geometry(block)
    # ReLU'd half-integers: many windows tie, at 0 and above it
    x = np.maximum(np.round(2.0 * draw(rng, (rows, length, c))) / 2.0, 0.0)
    half = length // 2
    assert (x[:, 0:2 * half:2] == x[:, 1:2 * half:2]).any()
    # the forward got the ReLU of a conv: channels-last in memory
    y, second = maxpool1d_forward(x)
    ref_y, ref_idx = ref_maxpool1d_forward(x.transpose(0, 2, 1))
    assert_same_bytes(y, channels_last(ref_y))
    assert second.dtype == np.bool_
    np.testing.assert_array_equal(second, channels_last(ref_idx) == 1)
    # the backward got a C-contiguous channels-first gradient
    dy = draw(rng, (rows, c, half))
    assert_same_bytes(maxpool1d_backward(channels_last(dy), second, length),
                      channels_last(ref_maxpool1d_backward(dy, ref_idx,
                                                           length)))



# --- the memory-bound kernels at their edges, bit for bit ---

# every ordered pair of these lanes: +-0 ties both ways, equal pairs,
# infinities and negatives
POOL_LANES = (-0.0, 0.0, -1.5, 1.5, 2.0, -np.inf, np.inf)


def pool_case(dtype, c: int, odd: bool):
    """(x, dy): every ordered lane pair in some window and channel, and
    a gradient with negative values and signed zeros."""
    pairs = np.array([(a, b) for a in POOL_LANES for b in POOL_LANES])
    rng = np.random.default_rng(c)
    windows = np.concatenate([pairs] * c)[rng.permutation(len(pairs) * c)]
    x = windows.reshape(1, c, -1).transpose(0, 2, 1)  # windows run along L
    if odd:
        x = np.concatenate([x, np.full((1, 1, c), 9.0)], axis=1)
    x = np.ascontiguousarray(x.reshape(1, -1, c), dtype=dtype)
    dy = rng.choice([-2.5, -0.0, 0.0, 1.25], size=(1, len(pairs), c))
    return x, dy.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c", [1, 8])
@pytest.mark.parametrize("odd", [False, True])
def test_maxpool_ties_and_signed_zeros_match_oracle(dtype, c, odd):
    x, dy = pool_case(dtype, c, odd)
    length = x.shape[1]
    y, second = maxpool1d_forward(x)
    ref_y, ref_idx = ref_maxpool1d_forward(x.transpose(0, 2, 1))
    assert_same_bytes(y, channels_last(ref_y))
    np.testing.assert_array_equal(second, channels_last(ref_idx) == 1)
    eval_y, no_mask = maxpool1d_forward(x, train=False)
    assert no_mask is None
    assert_same_bytes(eval_y, y)
    assert_same_bytes(maxpool1d_backward(dy, second, length),
                      channels_last(ref_maxpool1d_backward(
                          channels_last(dy), ref_idx, length)))


def test_maxpool_of_a_transposed_gradient():
    # the flatten's inverse hands the last pool a non-contiguous gradient
    x, dy = pool_case(np.float32, 8, True)
    _, second = maxpool1d_forward(x)
    strided = channels_last(dy).transpose(0, 2, 1)
    assert not strided.flags.c_contiguous
    assert_same_bytes(maxpool1d_backward(strided, second, x.shape[1]),
                      maxpool1d_backward(dy, second, x.shape[1]))


def test_maxpool_propagates_nan_and_routes_its_gradient_first():
    nan = np.nan
    x = column(nan, 1.0, 1.0, nan, nan, nan, -0.0, nan)
    y, second = maxpool1d_forward(x)
    assert np.isnan(y).all()  # np.where(last > first, ...) kept 1.0, -0.0
    assert not second.any()   # no compare with NaN is true
    dx = maxpool1d_backward(column(1.0, 2.0, 3.0, 4.0), second, 8)
    np.testing.assert_array_equal(
        dx, column(1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0))


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("c", [1, 8, 64])
def test_batchnorm_channel_counts_match_channels_first_kernels(c, train):
    rng = np.random.default_rng(30 + c)
    x = 2.0 * draw(rng, (5, c, 7)) + 1.0
    gamma, beta, running_mean = (draw(rng, c) for _ in range(3))
    running_var = rng.uniform(0.5, 2.0, c).astype(np.float32)
    y, cache, new_mean, new_var = batchnorm1d_forward(
        channels_last(x), gamma, beta, running_mean, running_var, train)
    ref_y, ref_cache, ref_mean, ref_var = ref_batchnorm1d_forward(
        x, gamma, beta, running_mean, running_var, train)
    assert_same_bytes(y, channels_last(ref_y))
    assert_same_bytes(cache[0], channels_last(ref_cache[0]))
    assert_same_bytes(new_mean, ref_mean)
    assert_same_bytes(new_var, ref_var)
    dy = draw(rng, (5, 7, c))
    grads = batchnorm1d_backward(dy, cache)
    ref_grads = ref_batchnorm1d_backward(dy.transpose(0, 2, 1), ref_cache)
    assert_same_bytes(grads[0], channels_last(ref_grads[0]))
    for grad, ref_grad in zip(grads[1:], ref_grads[1:]):
        assert_same_bytes(grad, ref_grad)


@pytest.mark.parametrize("c_in", [1, 3])
def test_conv_bias_of_one_output_channel_matches_oracle(c_in):
    rng = np.random.default_rng(40 + c_in)
    x = draw(rng, (4, c_in, 9))
    w = draw(rng, (1, c_in, 3))
    b = draw(rng, 1)
    assert_same_bytes(conv1d_forward(channels_last(x), w, b),
                      channels_last(ref_conv1d_forward(x, w, b)))


# --- dropout ---


def test_dropout_eval_and_p0_are_identity_without_rng():
    x = np.random.default_rng(5).normal(size=(3, 7))
    y, mask = dropout_forward(x, 0.5, train=False)
    assert y is x and mask is None
    y, mask = dropout_forward(x, 0.0, train=True)  # no rng needed at p=0
    assert y is x and mask is None
    np.testing.assert_array_equal(dropout_backward(x, None), x)


def test_dropout_statistics():
    rng = np.random.default_rng(6)
    x = np.ones((100, 1000), dtype=np.float64)
    y, mask = dropout_forward(x, 0.5, train=True, rng=rng)
    dropped = np.mean(y == 0.0)
    assert abs(dropped - 0.5) < 0.01          # drop rate within 1%
    assert abs(y.mean() - 1.0) < 0.01         # inverted scaling keeps E[y]=x
    np.testing.assert_array_equal(y, x * mask)


def test_dropout_requires_rng_in_train_mode():
    with pytest.raises(DataError, match="needs an rng"):
        dropout_forward(np.ones((2, 2)), 0.5, train=True)
    with pytest.raises(DataError, match="dropout probability must be in"):
        dropout_forward(np.ones((2, 2)), 1.0, train=True)


# --- network geometry ---


def test_default_config_geometry():
    cfg = NET
    assert cfg.input_length == 250
    assert cfg.conv_output_length == 15          # 250->125->62->31->15
    assert cfg.flatten_width == 64 * 15
    assert cfg.conv_blocks == ((1, 8, 7), (8, 16, 5), (16, 32, 5),
                               (32, 64, 3))
    assert cfg.fc_sizes == (128, 32, 2)
    assert cfg.dropout_p == 0.5


def test_config_round_trip():
    cfg = NetworkConfig(conv_channels=(4, 4, 8, 8), conv_kernels=(3, 3, 3, 3),
                        fc_sizes=(16, 8, 2), dropout_p=0.25, input_length=64)
    d = cfg.to_dict()
    assert d["conv_blocks"] == [[1, 4, 3], [4, 4, 3], [4, 8, 3], [8, 8, 3]]
    assert d["pool_kernel"] == 2
    assert NetworkConfig.from_dict(d) == cfg


def test_config_validation():
    for kwargs, match in [
            ({"conv_channels": (8, 16, 32)},
             "conv_channels and conv_kernels need exactly 4 entries"),
            ({"conv_kernels": (7, 5, 5, 3, 3)}, "conv_channels and "
                                                "conv_kernels"),
            ({"conv_channels": (8, 0, 32, 64)},
             "conv_channels must all be >= 1"),
            ({"conv_kernels": (7, 5, 4, 3)}, "conv_kernels must all be odd"),
            ({"conv_kernels": (7, 5, -1, 3)}, "conv_kernels must all be odd"),
            ({"fc_sizes": (128, 32, 3)},  # must end with 2 classes
             "fc_sizes must be 3 positive"),
            ({"dropout_p": 1.0}, r"dropout_p must be in \[0, 1\)"),
            ({"input_length": 8}, "input_length 8 pools away to nothing")]:
        with pytest.raises(DataError, match=match):
            NetworkConfig(**kwargs)


def test_param_layout_shapes():
    shapes = dict(param_layout(NET))
    assert shapes["conv0.weight"] == (8, 1, 7)
    assert shapes["conv0.bn.gamma"] == (1,)
    assert shapes["conv3.weight"] == (64, 32, 3)
    assert shapes["fc0.weight"] == (128, 960)
    assert shapes["fc2.weight"] == (2, 32)
    assert shapes["fc2.bias"] == (2,)
    names = [name for name, _ in param_layout(NET)]
    assert all(name.startswith(("conv", "fc")) for name in names)
    # a whole-network backward covers every entry but the running stats
    rng = np.random.default_rng(9)
    params = init_params(NET, rng)
    logits, cache = forward(NET, params, rng.normal(size=(2, 250)),
                            train=True, rng=rng)
    grads = backward(NET, params, cache, np.ones_like(logits))
    assert set(grads) == {name for name in names if "running_" not in name}


def test_init_params_distribution_and_determinism():
    rng = np.random.default_rng(8)
    params = init_params(NET, rng)
    assert set(params) == {n for n, _ in param_layout(NET)}
    for name, shape in param_layout(NET):
        assert params[name].shape == shape
        assert params[name].dtype == np.float32
    # bounds: fc0 fan-in is 960
    w = params["fc0.weight"]
    bound = np.sqrt(1.0 / 960.0)
    assert np.all(np.abs(w) <= bound)
    assert w.std() > 0.4 * bound                 # actually spread out
    np.testing.assert_array_equal(params["conv0.bias"], 0.0)
    np.testing.assert_array_equal(params["conv1.bn.gamma"], 1.0)
    np.testing.assert_array_equal(params["conv1.bn.running_var"], 1.0)

    again = init_params(NET, np.random.default_rng(8))
    for k in params:
        np.testing.assert_array_equal(params[k], again[k])


# --- full forward pass ---


def test_forward_output_shape_and_determinism():
    rng = np.random.default_rng(9)
    params = init_params(NET, rng)
    x = rng.normal(size=(5, 250)).astype(np.float32)
    logits, _ = forward(NET, params, x, train=False)
    assert logits.shape == (5, 2)
    assert np.all(np.isfinite(logits))
    again, _ = forward(NET, params, x, train=False)
    np.testing.assert_array_equal(logits, again)


def test_forward_eval_does_not_mutate_params():
    rng = np.random.default_rng(10)
    params = init_params(NET, rng)
    before = {k: v.copy() for k, v in params.items()}
    x = rng.normal(size=(3, 250)).astype(np.float32)
    forward(NET, params, x, train=False)
    forward(NET, params, x, train=True,
            rng=np.random.default_rng(0))
    for k in params:
        np.testing.assert_array_equal(params[k], before[k])


def test_forward_train_reports_bn_updates_without_committing():
    rng = np.random.default_rng(11)
    params = init_params(NET, rng)
    x = rng.normal(size=(4, 250)).astype(np.float32)
    _, cache = forward(NET, params, x, train=True,
                       rng=np.random.default_rng(1))
    assert set(cache.bn_updates) == {
        f"conv{b}.bn.running_{s}" for b in range(4) for s in ("mean", "var")}
    # at least the first block's running mean must move off its init
    assert not np.array_equal(cache.bn_updates["conv0.bn.running_mean"],
                              params["conv0.bn.running_mean"])


def test_forward_head_keeps_bn_frozen():
    rng = np.random.default_rng(12)
    params = init_params(NET, rng)
    h = rng.normal(size=(4, NET.flatten_width)).astype(np.float32)
    logits, cache = forward(NET, params, h, train=True,
                            rng=np.random.default_rng(1), start=HEAD)
    assert cache.bn_updates == {}
    # a head-only cache ends at dropout, so backward yields FC grads only
    grads = backward(NET, params, cache, np.ones_like(logits))
    assert set(grads) == {name for name, _ in param_layout(NET)
                          if name.startswith("fc")}


@pytest.mark.parametrize("n", [1, 63, 65, 1024, 1025, 2050])
def test_trunk_features_equal_forward_trunk(n):
    rng = np.random.default_rng(15)
    params = init_params(NET, rng)
    X = rng.normal(size=(n, 250)).astype(np.float32)
    features = trunk_features(NET, params, X)
    assert features.shape == (n, NET.flatten_width)
    # the training batches of 64 rows give the features of the whole input
    np.testing.assert_array_equal(features, np.concatenate(
        [trunk_features(NET, params, X[i:i + 64]) for i in range(0, n, 64)]))
    # the head on the features gives the logits of the whole network
    np.testing.assert_array_equal(
        forward(NET, params, features, train=False, start=HEAD)[0],
        forward(NET, params, X, train=False)[0])


def test_eval_pass_records_no_cache():
    """An eval-mode chunk keeps no backward intermediates, so its memory
    peak stays well below a train-mode pass over the same rows."""
    params = init_params(NET, np.random.default_rng(17))
    X = np.random.default_rng(18).normal(size=(EVAL_BATCH_ROWS, 250)
                                         ).astype(np.float32)
    assert forward(NET, params, X[:4], train=False)[1] is None
    features = trunk_features(NET, params, X[:4])
    assert forward(NET, params, features, train=False, start=HEAD)[1] is None

    def traced_peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    train_peak = traced_peak(lambda: forward(
        NET, params, X, train=True, rng=np.random.default_rng(0)))
    eval_peak = traced_peak(lambda: predict_logits(NET, params, X))
    assert eval_peak < 0.8 * train_peak, (eval_peak, train_peak)


def test_eval_pass_memory_is_bounded():
    """An eval-mode trunk runs in blocks of TRUNK_ROWS rows, so the
    traced peak of a whole EVAL_BATCH_ROWS chunk stays far below the
    tens of MiB its conv intermediates would take at once."""
    params = init_params(NET, np.random.default_rng(17))
    X = np.random.default_rng(18).normal(size=(EVAL_BATCH_ROWS, 250)
                                         ).astype(np.float32)
    tracemalloc.start()
    try:
        predict_logits(NET, params, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_eval_pass_memory_is_bounded_on_two_threads(monkeypatch):
    # each thread holds one block's intermediates at a time
    monkeypatch.setattr(segments, "WORKERS", 2)
    test_eval_pass_memory_is_bounded()


def test_trunk_features_of_no_rows():
    params = init_params(NET, np.random.default_rng(16))
    features = trunk_features(NET, params,
                              np.empty((0, 250), dtype=np.float32))
    assert features.shape == (0, NET.flatten_width)
    # predict_logits gives no rows of logits from either start, as one
    # empty chunk: float64 rows give float64 logits, as one row of them
    # does (test_blocked_eval_trunk_keeps_a_blocks_dtype)
    for X, start, dtype in (
            (np.empty((0, 250), dtype=np.float32), 0, np.float32),
            (np.empty((0, 250), dtype=np.float64), 0, np.float64),
            (features, HEAD, np.float32)):
        logits = predict_logits(NET, params, X, start)
        assert logits.shape == (0, 2) and logits.dtype == dtype
    # zero rows of a wrong shape are refused, as one row of it is
    for X, start, match in (
            (np.empty((0, 1, 250)), 0, r"expected \(n, 250\) input"),
            (np.empty((0, 7)), 0, r"expected \(n, 250\) input"),
            (np.empty((0, 1, 250)), HEAD, r"expected \(n, 960\) features"),
            (np.empty((0, 7)), HEAD, r"expected \(n, 960\) features")):
        for rows in (X, np.zeros((1, *X.shape[1:]))):
            with pytest.raises(DataError, match=match):
                predict_logits(NET, params, rows, start)


def test_forward_refuses_other_starts():
    # only 0 and HEAD are starts, also for a scoring pass of no rows
    params = init_params(NET, np.random.default_rng(16))
    X = np.zeros((1, 250), np.float32)
    for run in (lambda: forward(NET, params, X, train=False, start=2),
                lambda: predict_logits(NET, params, X[:0], 2)):
        with pytest.raises(DataError, match=r"HEAD \(4\), got 2"):
            run()


def test_forward_rejects_wrong_length():
    rng = np.random.default_rng(13)
    params = init_params(NET, rng)
    with pytest.raises(DataError, match=r"expected \(n, 250\) input"):
        forward(NET, params, rng.normal(size=(2, 100)),
                train=False)
    # the network takes a dataset's rows as they are, with no channel axis
    rows = rng.normal(size=(2, 1, 250))
    for run in (lambda: forward(NET, params, rows, train=False),
                lambda: trunk_features(NET, params, rows),
                lambda: predict_logits(NET, params, rows)):
        with pytest.raises(DataError, match=r"expected \(n, 250\) input"):
            run()
    # and the head takes only the trunk's flattened features
    with pytest.raises(DataError, match=r"expected \(n, 960\) features"):
        forward(NET, params, rng.normal(size=(4, 959)), train=False,
                start=HEAD)


def test_predict_logits_accepts_2d_and_batches():
    rng = np.random.default_rng(14)
    params = init_params(NET, rng)
    X = rng.normal(size=(2050, 250)).astype(np.float32)
    logits = predict_logits(NET, params, X)
    assert logits.shape == (2050, 2)
    # batching must not change results
    np.testing.assert_allclose(
        logits, forward(NET, params, X, train=False)[0],
        atol=1e-6)


# --- threads and blocks ---


def conv_geometries(net):
    """(c_in, c_out, k, length) of each of a network's convs."""
    return [(c_in, c_out, k, net.input_length // 2 ** b)
            for b, (c_in, c_out, k) in enumerate(net.conv_blocks)]


# the default network's convs, the small training-test network's, and
# two whose blocks may give other bytes than one GEMM over every row:
# one of at most 10**6 multiply-adds per 16-row block, whose GEMMs
# OpenBLAS runs through its small-matrix kernel, and one of one input
# channel, a matrix-vector product
DX_GEOMETRIES = [
    *conv_geometries(NET),
    *conv_geometries(NetworkConfig(conv_channels=(2, 3, 4, 4),
                                   conv_kernels=(3, 3, 3, 3))),
    (2, 8, 5, 31), (1, 64, 9, 250)]

# the rows of each block of CONV_DX_ROWS = 16, the last taking the rest
DX_BLOCKS = {1: [1], 17: [17], 63: [16, 16, 31], 64: [16, 16, 16, 16],
             65: [16, 16, 16, 17]}


@pytest.mark.parametrize("geometry", DX_GEOMETRIES,
                         ids=lambda g: "x".join(map(str, g)))
@pytest.mark.parametrize("n", list(DX_BLOCKS))
def test_conv_dx_blocks_equal_one_gemm(n, geometry):
    # every conv, whatever its size, runs its input gradient as one GEMM
    # per block, so each block has the bytes of a GEMM over its own rows
    assert nn.CONV_DX_ROWS == 16
    c_in, c_out, k, length = geometry
    rng = np.random.default_rng(24)
    w = rng.normal(size=(c_out, c_in, k)).astype(np.float32)
    dy = rng.normal(size=(n, length, c_out)).astype(np.float32)
    wflip = w[:, :, ::-1].transpose(1, 0, 2).reshape(c_in, c_out * k)
    dx, _, _ = conv1d_backward(np.zeros((n, length, c_in), np.float32),
                               w, dy)
    stops = np.cumsum(DX_BLOCKS[n])
    for start, stop in zip([0, *stops], stops):
        one_gemm = nn._im2col(dy[start:stop], k) @ wflip.T
        assert dx[start:stop].tobytes() == one_gemm.tobytes(), (start, stop)


def test_blocked_eval_trunk_keeps_a_blocks_dtype():
    # the output is allocated before any block runs, in the dtype one
    # block returns: float64 rows through float32 parameters stay float64
    params = init_params(NET, np.random.default_rng(28))
    X = np.random.default_rng(29).normal(size=(TRUNK_ROWS + 3, 250))
    one_block = trunk_features(NET, params, X[:TRUNK_ROWS])
    features = trunk_features(NET, params, X)
    assert one_block.dtype == features.dtype == np.float64
    assert features[:TRUNK_ROWS].tobytes() == one_block.tobytes()
    logits = predict_logits(NET, params, X)
    assert logits.dtype == np.float64
    assert logits.tobytes() == forward(NET, params, features, train=False,
                                       start=HEAD)[0].tobytes()


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_eval_bytes_do_not_depend_on_workers(monkeypatch, workers):
    rng = np.random.default_rng(25)
    params = init_params(NET, rng)
    X = rng.normal(size=(EVAL_BATCH_ROWS + 77, 250)).astype(np.float32)

    def run():
        return (predict_logits(NET, params, X).tobytes(),
                trunk_features(NET, params, X).tobytes())

    monkeypatch.setattr(segments, "WORKERS", 1)
    started = count_thread_starts(monkeypatch)
    alone = run()
    assert started == []
    monkeypatch.setattr(segments, "WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the blocks race for the output
    try:
        assert run() == alone
    finally:
        sys.setswitchinterval(interval)
    assert started


def test_backward_runs_conv_weight_grads_on_one_helper(monkeypatch):
    rng = np.random.default_rng(26)
    params = init_params(NET, rng)
    logits, cache = forward(NET, params, rng.normal(size=(65, 250)).astype(
        np.float32), train=True, rng=rng)
    dlogits = rng.normal(size=logits.shape).astype(np.float32)
    started = count_thread_starts(monkeypatch)
    monkeypatch.setattr(segments, "WORKERS", 1)
    alone = backward(NET, params, cache, dlogits)
    assert started == []
    monkeypatch.setattr(segments, "WORKERS", 2)
    grads = backward(NET, params, cache, dlogits)
    assert len(started) == 1
    assert list(grads) == list(alone)  # the keys in the walk's order
    assert all(grads[k].tobytes() == alone[k].tobytes() for k in alone)


def test_backward_raises_a_helper_failure_after_joining(monkeypatch):
    monkeypatch.setattr(segments, "WORKERS", 2)
    rng = np.random.default_rng(27)
    params = init_params(NET, rng)
    logits, cache = forward(NET, params, rng.normal(size=(8, 250)).astype(
        np.float32), train=True, rng=rng)
    helpers = []

    def failing(x, shape, dy):
        helpers.append(threading.get_ident())
        time.sleep(0.02)  # still running when the caller's walk ends
        raise DataError(f"weight gradient {shape} failed")

    monkeypatch.setattr(nn, "_conv_param_grads", failing)
    before = threading.active_count()
    with pytest.raises(DataError, match=r"\(64, 32, 3\) failed"):
        backward(NET, params, cache, np.ones_like(logits))
    assert threading.active_count() == before
    assert len(helpers) == 4
    assert threading.get_ident() not in helpers


def test_helper_thread_keeps_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(segments, "WORKERS", 2)
    with np.errstate(divide="raise"):
        with nn._side_thread() as submit:
            where = submit(threading.get_ident)
            divided = submit(np.divide, np.ones(1), np.zeros(1))
    assert where.result() != threading.get_ident()
    with pytest.raises(FloatingPointError):
        divided.result()
