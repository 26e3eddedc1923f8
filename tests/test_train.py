"""Training loop, transfer learning and checkpoint persistence tests."""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from beatnet.config import Settings
from beatnet.errors import DataError, NumericError, UsageError
from beatnet.nn import (
    NetworkConfig,
    init_params,
    param_layout,
    predict_logits,
)
from beatnet.segments import TRAIN, build_labeled_dataset, build_subsets
from beatnet.synthetic import make_synthetic_records
from beatnet.train import (
    TrainHistory,
    load_checkpoint,
    save_checkpoint,
    train,
    transfer,
)

from helpers import BAD_GEOMETRY, edit_checkpoint_header

# Small architecture (same block structure, fewer channels) so the
# training-behavior tests stay fast.
SMALL = Settings(conv_channels=(2, 3, 4, 4), conv_kernels=(3, 3, 3, 3),
                 fc_sizes=(16, 8, 2))
SMALL_NET = SMALL.network_config()
CONV_KEYS = [n for n, _ in param_layout(SMALL_NET) if n.startswith("conv")]
FC_KEYS = [n for n, _ in param_layout(SMALL_NET) if n.startswith("fc")]


def small_dataset(seed=0, n_subjects=3):
    records = make_synthetic_records(n_subjects=n_subjects, seed=seed)
    return build_labeled_dataset(records, "NormalSinus+LongTerm", TRAIN,
                                 {r.subject_id for r in records})


def small(**changes) -> Settings:
    return dataclasses.replace(SMALL, **changes)


def params_equal(a, b):
    return set(a) == set(b) and all(
        a[k].tobytes() == b[k].tobytes() for k in a)


# --- core loop ---


def test_train_is_deterministic():
    ds = small_dataset()
    cfg = small(epochs=3, batch_size=32, seed=11)
    p1, h1 = train(ds, cfg)
    p2, h2 = train(ds, cfg)
    assert params_equal(p1, p2)
    assert h1.mean_loss == h2.mean_loss
    assert h1.train_mcc == h2.train_mcc
    # a different seed must lead elsewhere
    p3, _ = train(ds, small(epochs=3, batch_size=32, seed=12))
    assert not params_equal(p1, p3)


def test_train_history_shape():
    ds = small_dataset()
    cfg = small(epochs=4, batch_size=32)
    _, history = train(ds, cfg)
    assert len(history) == 4
    assert len(history.train_mcc) == 4
    assert len(history.seconds) == 4
    assert all(s >= 0 for s in history.seconds)
    assert all(np.isfinite(v) for v in history.mean_loss)
    assert all(-1.0 <= v <= 1.0 for v in history.train_mcc)


def test_train_loss_decreases():
    ds = small_dataset(seed=1, n_subjects=4)
    cfg = small(epochs=10, batch_size=32, seed=0)
    _, history = train(ds, cfg)
    assert history.mean_loss[-1] < history.mean_loss[0]


def test_train_zero_epochs_returns_init_copy():
    ds = small_dataset()
    init = init_params(SMALL_NET, np.random.default_rng(5))
    cfg = small(epochs=0)
    params, history = train(ds, cfg, init=init)
    assert len(history) == 0
    assert params_equal(params, init)
    params["fc0.bias"][0] = 99.0  # returned params are a private copy
    assert init["fc0.bias"][0] == 0.0


def test_train_empty_dataset():
    records = make_synthetic_records(n_subjects=2, seed=2)
    empty = build_labeled_dataset(records, "NormalSinus+LongTerm", TRAIN,
                                  set())
    with pytest.raises(DataError, match="cannot train on an empty dataset"):
        train(empty, small(epochs=1))


def test_train_rejects_negative_epochs_and_bad_batch():
    with pytest.raises(UsageError, match="epochs must be >= 0"):
        small(epochs=-1)
    with pytest.raises(UsageError, match="batch_size must be >= 1"):
        small(batch_size=0)


def test_train_non_finite_loss_raises():
    ds = small_dataset()
    init = init_params(SMALL_NET, np.random.default_rng(6))
    init["fc2.weight"][0, 0] = np.nan
    with pytest.raises(NumericError):
        train(ds, small(epochs=1, batch_size=32), init=init)


def test_train_updates_bn_running_stats():
    ds = small_dataset()
    cfg = small(epochs=1, batch_size=32, seed=7)
    # training from scratch starts from init_params on the seeded rng
    init = init_params(SMALL_NET, np.random.default_rng(7))
    params, _ = train(ds, cfg)
    assert not np.array_equal(params["conv0.bn.running_mean"],
                              init["conv0.bn.running_mean"])


# --- freezing / transfer ---


def test_train_with_init_trains_only_fc_head():
    ds = small_dataset(seed=3)
    init = init_params(SMALL_NET, np.random.default_rng(8))
    cfg = small(epochs=2, batch_size=32)
    params, _ = train(ds, cfg, init=init)
    for key in CONV_KEYS:
        assert params[key].tobytes() == init[key].tobytes(), key
    changed = [k for k in FC_KEYS
               if params[k].tobytes() != init[k].tobytes()]
    assert changed  # the head must actually move


def test_transfer_freezes_trunk_and_matches_checkpoint_arch(tmp_path):
    ds = small_dataset(seed=4)
    base_cfg = small(epochs=2, batch_size=32)
    base_params, _ = train(ds, base_cfg)
    ckpt = tmp_path / "base.hbdl"
    save_checkpoint(base_params, SMALL_NET, ckpt)

    target = small_dataset(seed=5)
    tuned, history = transfer(ckpt, target, base_cfg)
    assert len(history) == 2
    for key in CONV_KEYS:
        assert tuned[key].tobytes() == base_params[key].tobytes(), key

    with pytest.raises(DataError, match="checkpoint architecture .* differs"):
        transfer(ckpt, target, small(epochs=1, fc_sizes=(8, 4, 2)))


def test_transfer_zero_epochs_reproduces_checkpoint(tmp_path):
    ds = small_dataset(seed=6)
    params, _ = train(ds, small(epochs=1, batch_size=32))
    ckpt = tmp_path / "m.hbdl"
    save_checkpoint(params, SMALL_NET, ckpt)
    back, history = transfer(ckpt, ds, small(epochs=0))
    assert len(history) == 0
    assert params_equal(back, params)


# --- checkpoints ---


def test_checkpoint_round_trip_bitwise(tmp_path):
    ds = small_dataset(seed=7)
    params, _ = train(ds, small(epochs=1, batch_size=32))
    path = tmp_path / "w.hbdl"
    save_checkpoint(params, SMALL_NET, path)
    loaded, config = load_checkpoint(path)
    assert config == SMALL_NET
    assert params_equal(loaded, params)
    # logits from the reloaded model are bitwise identical
    X = ds.X[:32]
    np.testing.assert_array_equal(
        predict_logits(SMALL_NET, params, X),
        predict_logits(config, loaded, X))


def test_checkpoint_save_is_deterministic(tmp_path):
    params = init_params(SMALL_NET, np.random.default_rng(9))
    save_checkpoint(params, SMALL_NET, tmp_path / "a")
    save_checkpoint(params, SMALL_NET, tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_checkpoint_detects_damage(tmp_path):
    params = init_params(SMALL_NET, np.random.default_rng(10))
    path = tmp_path / "w.hbdl"
    save_checkpoint(params, SMALL_NET, path)
    raw = bytearray(path.read_bytes())
    for flip_at in (0, 4, 20, len(raw) // 2, len(raw) - 1):
        bad = bytearray(raw)
        bad[flip_at] ^= 0x01
        (tmp_path / "bad").write_bytes(bytes(bad))
        with pytest.raises(DataError, match="checksum mismatch"):
            load_checkpoint(tmp_path / "bad")
    (tmp_path / "bad").write_bytes(bytes(raw[: len(raw) // 2]))
    with pytest.raises(DataError, match="checksum mismatch"):
        load_checkpoint(tmp_path / "bad")
    with pytest.raises(DataError, match="cannot read .*never-written"):
        load_checkpoint(tmp_path / "never-written")


def test_checkpoint_version_gate(tmp_path):
    params = init_params(SMALL_NET, np.random.default_rng(11))
    path = tmp_path / "w.hbdl"
    save_checkpoint(params, SMALL_NET, path)
    payload = bytearray(path.read_bytes()[:-8])
    payload[4:6] = struct.pack("<H", 2)  # future format version
    payload += hashlib.blake2b(bytes(payload), digest_size=8).digest()
    path.write_bytes(bytes(payload))
    with pytest.raises(DataError, match="has format version 2, expected 1"):
        load_checkpoint(path)


def test_checkpoint_float_layer_sizes_are_corrupt(tmp_path):
    path = tmp_path / "w.hbdl"
    save_checkpoint(init_params(SMALL_NET, np.random.default_rng(11)),
                    SMALL_NET, path)

    def floats_for_sizes(header):
        blocks = header["network"]["conv_blocks"]
        blocks[0][1] = blocks[1][0] = float(blocks[0][1])
        for entry in header["params"]:
            entry[1] = [float(d) for d in entry[1]]

    edit_checkpoint_header(path, floats_for_sizes)
    with pytest.raises(DataError, match="layer sizes must be integers"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit,match", BAD_GEOMETRY)
def test_checkpoint_bad_geometry_is_corrupt(tmp_path, edit, match):
    # checksum-valid headers whose architecture no network can have
    net = NetworkConfig()
    path = tmp_path / "w.hbdl"
    save_checkpoint(init_params(net, np.random.default_rng(0)), net, path)
    edit_checkpoint_header(path, lambda h: h["network"].update(edit))
    with pytest.raises(DataError,
                       match=f"unreadable checkpoint header in .*{match}"):
        load_checkpoint(path)


def test_checkpoint_requires_layout_match(tmp_path):
    params = init_params(SMALL_NET, np.random.default_rng(12))
    del params["fc2.bias"]
    with pytest.raises(KeyError):
        save_checkpoint(params, SMALL_NET, tmp_path / "w")
    params = init_params(SMALL_NET, np.random.default_rng(12))
    params["fc2.bias"] = np.zeros(7, dtype=np.float32)
    with pytest.raises(DataError, match="fc2.bias: shape .* does not match"):
        save_checkpoint(params, SMALL_NET, tmp_path / "w")


# --- history CSV ---


def test_history_csv():
    h = TrainHistory(mean_loss=[0.5, 0.4], train_mcc=[0.1, 0.3],
                     seconds=[1.25, 1.5])
    lines = h.to_csv().strip().split("\n")
    assert lines[0] == "epoch,mean_loss,train_mcc,seconds"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == 0.5


def test_train_subject_split_pipeline_end_to_end():
    # build_subsets -> train -> evaluate shapes line up
    records = make_synthetic_records(n_subjects=4, seed=13)
    subsets = build_subsets(records, seed=0)
    ds = subsets[("NormalSinus+LongTerm", TRAIN)]
    params, history = train(ds, small(epochs=2, batch_size=32, seed=1))
    assert len(history) == 2
    logits = predict_logits(SMALL_NET, params, ds.X)
    assert logits.shape == (len(ds), 2)
