"""Weighted cross-entropy and AdaDelta update tests."""

import math

import numpy as np
import pytest

from beatnet.errors import DataError, NumericError
from beatnet.loss import ClassWeights, weighted_cross_entropy
from beatnet.optim import AdaDeltaState, adadelta_step

from helpers import max_rel_err, numeric_grad


def logits_for_probabilities(p_true, labels):
    """Two-class logits whose true-class softmax equals p_true."""
    out = np.zeros((len(p_true), 2), dtype=np.float64)
    for i, (p, y) in enumerate(zip(p_true, labels)):
        out[i, y] = math.log(p / (1.0 - p))
    return out


# --- loss values ---


def test_loss_worked_example():
    # true-class probabilities 0.9 (label 0) and 0.6 (label 1)
    logits = logits_for_probabilities([0.9, 0.6], [0, 1])
    labels = np.array([0, 1])
    loss, _ = weighted_cross_entropy(logits, labels)
    expect = (0.06 * -math.log(0.9) + 0.94 * -math.log(0.6)) / 1.0
    assert abs(loss - expect) < 1e-9
    assert abs(loss - 0.4865) < 5e-5


def test_loss_confident_correct_is_tiny():
    logits = np.array([[25.0, 0.0], [0.0, 25.0], [40.0, 0.0]])
    labels = np.array([0, 1, 0])
    loss, _ = weighted_cross_entropy(logits, labels)
    assert 0.0 <= loss < 1e-6


def test_loss_extreme_logits_stay_finite():
    logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
    labels = np.array([1, 0])  # maximally wrong
    loss, dlogits = weighted_cross_entropy(logits, labels)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(dlogits))


def test_loss_shift_invariance():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(16, 2)) * 3
    labels = rng.integers(0, 2, 16)
    base, dbase = weighted_cross_entropy(logits, labels)
    shifted, dshift = weighted_cross_entropy(logits + 123.0, labels)
    assert abs(base - shifted) < 1e-6
    np.testing.assert_allclose(dbase, dshift, atol=1e-9)


def test_loss_equal_weights_match_unweighted_mean():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(32, 2)) * 2
    labels = rng.integers(0, 2, 32)
    loss, _ = weighted_cross_entropy(logits, labels, ClassWeights(0.5, 0.5))
    # plain mean cross-entropy, computed independently
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    plain = float(np.mean(-np.log(p[np.arange(32), labels])))
    assert abs(loss - plain) < 1e-6


def test_loss_sum_reduction():
    logits = logits_for_probabilities([0.9, 0.6], [0, 1])
    labels = np.array([0, 1])
    mean_loss, dmean = weighted_cross_entropy(logits, labels)
    sum_loss, dsum = weighted_cross_entropy(logits, labels, reduction="sum")
    # weights sum to 1.0 here, so the two reductions coincide
    assert abs(mean_loss - sum_loss) < 1e-12
    w = ClassWeights(0.3, 0.9)
    mean_loss, dmean = weighted_cross_entropy(logits, labels, w)
    sum_loss, dsum = weighted_cross_entropy(logits, labels, w,
                                            reduction="sum")
    assert abs(sum_loss - mean_loss * 1.2) < 1e-9
    np.testing.assert_allclose(dsum, dmean * 1.2, atol=1e-12)


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for reduction in ("mean", "sum"):
        logits = rng.normal(size=(6, 2)) * 2
        labels = rng.integers(0, 2, 6)

        def f():
            return weighted_cross_entropy(logits, labels,
                                           reduction=reduction)[0]

        _, dlogits = weighted_cross_entropy(logits, labels,
                                            reduction=reduction)
        assert max_rel_err(dlogits, numeric_grad(f, logits)) < 1e-3


def test_loss_gradient_sums_to_zero_per_sample():
    # d/dlogit0 + d/dlogit1 = 0: shifting both logits changes nothing
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(10, 2))
    labels = rng.integers(0, 2, 10)
    _, dlogits = weighted_cross_entropy(logits, labels)
    np.testing.assert_allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)


def test_loss_errors():
    with pytest.raises(DataError, match="loss over zero samples"):
        weighted_cross_entropy(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(DataError, match=r"expected \(n, 2\) logits"):
        weighted_cross_entropy(np.zeros((3, 3)), np.zeros(3, dtype=int))
    with pytest.raises(DataError, match="labels must be 0"):
        weighted_cross_entropy(np.zeros((3, 2)), np.array([0, 1, 2]))
    with pytest.raises(DataError, match="does not match 3 logit rows"):
        weighted_cross_entropy(np.zeros((3, 2)), np.zeros(2, dtype=int))
    with pytest.raises(DataError, match="unknown reduction 'median'"):
        weighted_cross_entropy(np.zeros((2, 2)), np.zeros(2, dtype=int),
                               reduction="median")
    with pytest.raises(DataError, match="class weights must be > 0"):
        ClassWeights(0.0, 1.0)


def test_loss_preserves_dtype():
    logits = np.zeros((4, 2), dtype=np.float32)
    labels = np.array([0, 1, 0, 1])
    _, dlogits = weighted_cross_entropy(logits, labels)
    assert dlogits.dtype == np.float32


# --- AdaDelta ---


def test_adadelta_first_step_worked_example():
    params = {"x": np.array([0.0])}
    state = AdaDeltaState()
    adadelta_step(params, {"x": np.array([1.0])}, state)
    # E[g2]=0.1, delta = -sqrt(1e-6)/sqrt(0.1+1e-6) ~= -3.1623e-3
    delta = -math.sqrt(1e-6) / math.sqrt(0.1 + 1e-6)
    assert abs(delta - -3.1623e-3) < 1e-6
    assert abs(params["x"][0] - 0.01 * delta) < 1e-12
    assert abs(params["x"][0] - -3.1623e-5) < 1e-8
    np.testing.assert_allclose(state.sq_grad["x"], [0.1], atol=1e-12)
    np.testing.assert_allclose(state.sq_delta["x"], [0.1 * delta ** 2],
                               atol=1e-15)


def test_adadelta_zero_gradient_is_noop():
    params = {"w": np.array([1.0, -2.0])}
    state = AdaDeltaState()
    adadelta_step(params, {"w": np.array([1.0, 1.0])}, state)
    moved = params["w"].copy()
    sq = state.sq_grad["w"].copy()
    adadelta_step(params, {"w": np.zeros(2)}, state)
    np.testing.assert_array_equal(params["w"], moved)
    # accumulators decay toward zero
    np.testing.assert_allclose(state.sq_grad["w"], 0.9 * sq, atol=1e-15)


def test_adadelta_update_opposes_gradient():
    rng = np.random.default_rng(4)
    params = {"w": rng.normal(size=50)}
    state = AdaDeltaState()
    for _ in range(5):
        g = rng.normal(size=50)
        before = params["w"].copy()
        adadelta_step(params, {"w": g}, state)
        step = params["w"] - before
        nz = g != 0
        assert np.all(np.sign(step[nz]) == -np.sign(g[nz]))


def test_adadelta_lr_zero_freezes_params():
    params = {"w": np.array([3.0])}
    state = AdaDeltaState(lr=0.0)
    for _ in range(3):
        adadelta_step(params, {"w": np.array([5.0])}, state)
    np.testing.assert_array_equal(params["w"], [3.0])


def test_adadelta_descends_quadratic():
    # f(x) = x^2, grad 2x: iterates must strictly reduce f
    params = {"x": np.array([2.0])}
    state = AdaDeltaState(lr=1.0)
    losses = []
    for _ in range(200):
        losses.append(float(params["x"][0] ** 2))
        adadelta_step(params, {"x": 2.0 * params["x"]}, state)
    assert losses[-1] < losses[0] * 0.5
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_adadelta_skips_frozen_keys():
    params = {"a": np.array([1.0]), "b": np.array([1.0])}
    state = AdaDeltaState()
    adadelta_step(params, {"a": np.array([1.0])}, state)
    assert params["b"][0] == 1.0
    assert "b" not in state.sq_grad


def test_adadelta_errors():
    state = AdaDeltaState()
    with pytest.raises(DataError, match="a: gradient shape"):
        adadelta_step({"a": np.zeros(2)}, {"a": np.zeros(3)}, state)
    with pytest.raises(DataError, match="gradient for unknown parameter"):
        adadelta_step({"a": np.zeros(2)}, {"zzz": np.zeros(2)}, state)
    with pytest.raises(NumericError, match="non-finite gradient for 'a'"):
        adadelta_step({"a": np.zeros(2)}, {"a": np.array([1.0, np.nan])},
                      state)
    with pytest.raises(DataError, match=r"rho must be in \[0, 1\)"):
        AdaDeltaState(rho=1.0)
    with pytest.raises(DataError, match="eps must be > 0"):
        AdaDeltaState(eps=0.0)


def test_adadelta_preserves_dtype():
    params = {"w": np.ones(4, dtype=np.float32)}
    state = AdaDeltaState()
    adadelta_step(params, {"w": np.ones(4, dtype=np.float32)}, state)
    assert params["w"].dtype == np.float32
    assert state.sq_grad["w"].dtype == np.float32
