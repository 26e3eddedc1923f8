"""Finite-difference validation of every backward pass.

Layer checks run in float64 with a 1e-3 step and must agree with
central differences to a relative error below 1e-3. The full network
is checked at sampled parameter coordinates, in float64 and again in
float32 (where finite differences themselves are noisier, hence the
looser 1e-2 bound).
"""

import numpy as np
import pytest

from gradcheck import (
    LAYER_CHECKS,
    SMALL_NET,
    gradcheck_full_network,
    sampled_keys,
)

LAYER_TOL = 1e-3
N_CONFIGS = 20


@pytest.mark.parametrize("layer", sorted(LAYER_CHECKS))
def test_layer_gradients_match_finite_differences(layer):
    check = LAYER_CHECKS[layer]
    rng = np.random.default_rng(hash(layer) % (2**32))
    worst = max(check(rng) for _ in range(N_CONFIGS))
    assert worst < LAYER_TOL, f"{layer}: worst rel err {worst:.2e}"


@pytest.mark.parametrize("seed", range(3))
def test_full_network_gradients_float64(seed):
    worst = gradcheck_full_network(seed, dtype=np.float64, eps=1e-5,
                                   n_coords=30)
    assert worst < LAYER_TOL, f"worst rel err {worst:.2e}"


@pytest.mark.parametrize("seed", range(3))
def test_full_network_gradients_float32(seed):
    worst = gradcheck_full_network(seed, dtype=np.float32, eps=5e-3,
                                   n_coords=20, mag_floor=5e-3)
    assert worst < 1e-2, f"worst rel err {worst:.2e}"


def test_full_network_gradcheck_covers_all_parameter_kinds():
    # the sampler must be able to land on conv, bn and fc entries
    kinds = {k.split(".")[-1] for k in sampled_keys(SMALL_NET)}
    assert kinds == {"weight", "bias", "gamma", "beta"}
