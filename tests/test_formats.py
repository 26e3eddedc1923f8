"""The shared file frame, and on-disk format pins for caches and checkpoints.

The digests below were recorded from the files these inputs produce.
Every value is drawn from a seeded PCG64 generator with exactly
specified arithmetic (no transcendental functions), so the bytes do not
depend on the BLAS or libm of the machine. A deliberate format change
must update the digests, and bump the version in the file header.
"""

import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beatnet
from beatnet.config import Settings
from beatnet.container import pack_str, read_framed, write_framed, \
    write_text
from beatnet.errors import DataError
from beatnet.nn import NetworkConfig, init_params, predict_logits
from beatnet.records import EcgRecord
from beatnet.segments import (
    SEGMENT_LENGTH,
    TRAIN,
    LabeledDataset,
    build_labeled_dataset,
    load_cache,
    save_cache,
    segment_arrays,
)
from beatnet.synthetic import make_synthetic_records
from beatnet.train import load_checkpoint, save_checkpoint, train, \
    transfer

from gradcheck import SMALL_NET
from helpers import reframe

CACHE_BLAKE2B = "9335046c047c31297a37e37cd26e048f"
CHECKPOINT_BLAKE2B = "4c86e0dcaf8ab27ad138482899a47591"

# A fine-tuned head goes through BLAS GEMMs and the exp/log of the loss,
# so unlike the two pins above this one assumes the float32 results of
# the machine it was recorded on (x86-64, OpenBLAS, 1 or 2 threads).
# It pins the transfer path as a whole: frozen-trunk features, dropout
# draws, head-only AdaDelta and the per-epoch train-MCC pass.
TRANSFER_BLAKE2B = "4708f0e77d036b9aca7252e60a6f9289"
TRANSFER_MEAN_LOSS = [0.6932830532391866, 0.6930174215634664,
                      0.6929511857032776]
TRANSFER_TRAIN_MCC = [0.04880953245633801, 0.7308635239791557, 0.0]

# Training from scratch at the default geometry, under the same machine
# assumption as TRANSFER_BLAKE2B (x86-64, OpenBLAS). It pins what the
# transfer pin cannot: the train-mode trunk, whose BatchNorm and conv
# reductions change their float32 sums if their summation order
# changes, with dropout on and a short final batch. Its bytes depend on
# the BLAS thread count: the conv weight gradient's GEMM
# (``dy_flat.T @ _im2col(x, k)`` in ``conv1d_backward``, whose inner
# dimension is every batch position) sums in another order on 2 OpenBLAS
# threads than on 1. So each thread count has its own pin, and each is
# checked in a child process that sets OPENBLAS_NUM_THREADS, since
# OpenBLAS reads it once, when it loads.
SCRATCH_PINS = {  # threads: (checkpoint digest, mean_loss, train_mcc)
    1: ("5b3114c53f401f614481bbde436a6d47",
        [0.6803714386622111, 0.6060801871617635, 0.5108700076738993],
        [0.6756639246921762, 0.9190867733214366, 0.9190867733214366]),
    2: ("9fcf27d87642c814ede4751bdacb6a84",
        [0.6803714323043824, 0.6060801847775777, 0.5108699981371562],
        [0.6756639246921762, 0.9190867733214366, 0.9190867733214366]),
}

# Eval-mode logits of 2500 rows at the default geometry, under the same
# machine assumption. The head sees chunks of 1024 + 1024 + 452 rows,
# and fc0's GEMM gives other low bits at 1024 rows than at 512 or
# fewer, so this pins how the head is chunked as well as the trunk.
PREDICT_BLAKE2B = "b00ee39a2c024f24ca83d10dad214be9"


# Windows and labels of a seeded 60 s, 360 Hz record. Resampling is
# only float64 subtraction, division, multiplication and addition, so
# like the cache pin this holds on any IEEE machine. It pins how every
# window is cut, interpolated and labeled.
SEGMENTS_BLAKE2B = "0d4c172211e795bb9b8756e81b68ff71"


def seeded_dataset(seed: int = 0) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    n_records, per_record = 3, 7
    n = n_records * per_record
    table = tuple((f"rec{k}", f"subj{k % 2}") for k in range(n_records))
    return LabeledDataset(
        "Arrhythmia", TRAIN,
        rng.random((n, SEGMENT_LENGTH), dtype=np.float32),
        rng.integers(0, 2, n).astype(np.uint8),
        np.repeat(np.arange(n_records, dtype=np.uint32), per_record),
        np.tile(np.arange(per_record, dtype=np.uint32), n_records),
        table, frozenset({"subj0", "subj1", "subj9"}))


def file_digest(path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def test_cache_bytes_pinned(tmp_path):
    path = tmp_path / "pin.hbds"
    save_cache(seeded_dataset(), path)
    assert file_digest(path) == CACHE_BLAKE2B


def test_segment_arrays_pinned():
    rng = np.random.default_rng(23)
    samples = rng.random(60 * 360, dtype=np.float32) * 4 - 2
    beats = np.cumsum(rng.integers(250, 360, 60))
    X, y = segment_arrays(EcgRecord("pin", "s", "Arrhythmia", 360.0,
                                    samples, beats))
    assert X.shape == (240, SEGMENT_LENGTH) and int(y.sum()) == 12
    assert hashlib.blake2b(X.tobytes() + y.tobytes(),
                           digest_size=16).hexdigest() == SEGMENTS_BLAKE2B


def test_checkpoint_bytes_pinned(tmp_path):
    path = tmp_path / "pin.hbdl"
    save_checkpoint(init_params(SMALL_NET, np.random.default_rng(0)),
                    SMALL_NET, path)
    assert file_digest(path) == CHECKPOINT_BLAKE2B


def test_transfer_result_pinned(tmp_path):
    source = tmp_path / "source.hbdl"
    save_checkpoint(init_params(NetworkConfig(), np.random.default_rng(1)),
                    NetworkConfig(), source)
    records = make_synthetic_records(n_subjects=3, seed=5)
    target = build_labeled_dataset(records, "NormalSinus+LongTerm", TRAIN,
                                   {r.subject_id for r in records})
    assert len(target) == 150  # 9 batches of 16, then a short one of 6
    params, history = transfer(source, target, Settings(
        epochs=3, batch_size=16, lr=0.1, seed=3))
    path = tmp_path / "head.hbdl"
    save_checkpoint(params, NetworkConfig(), path)
    assert file_digest(path) == TRANSFER_BLAKE2B
    assert history.mean_loss == TRANSFER_MEAN_LOSS
    assert history.train_mcc == TRANSFER_TRAIN_MCC


SCRATCH_TRAIN = """
import json, sys
from beatnet.config import Settings
from beatnet.nn import NetworkConfig
from beatnet.segments import TRAIN, build_labeled_dataset
from beatnet.synthetic import make_synthetic_records
from beatnet.train import save_checkpoint, train

# the transfer pin's target: 9 batches of 16, then a short one of 6
records = make_synthetic_records(n_subjects=3, seed=5)
target = build_labeled_dataset(records, "NormalSinus+LongTerm", TRAIN,
                               {r.subject_id for r in records})
params, history = train(target, Settings(
    epochs=3, batch_size=16, lr=0.1, seed=7))
save_checkpoint(params, NetworkConfig(), sys.argv[1])
print(json.dumps([history.mean_loss, history.train_mcc]))
"""


def test_scratch_train_pinned(tmp_path):
    src = Path(beatnet.__file__).resolve().parents[1]
    for threads, pin in SCRATCH_PINS.items():
        path = tmp_path / f"scratch-{threads}.hbdl"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", SCRATCH_TRAIN, str(path)],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        mean_loss, train_mcc = json.loads(done.stdout)
        assert (file_digest(path), mean_loss, train_mcc) == pin, threads


def test_predict_logits_pinned():
    rng = np.random.default_rng(19)
    net = NetworkConfig()
    params = init_params(net, rng)
    for b, (c, _, _) in enumerate(net.conv_blocks):  # BN off its init
        params[f"conv{b}.bn.gamma"] = rng.uniform(0.5, 1.5, c).astype(
            np.float32)
        params[f"conv{b}.bn.beta"] = rng.normal(0, 0.1, c).astype(np.float32)
        params[f"conv{b}.bn.running_mean"] = rng.normal(0, 0.1, c).astype(
            np.float32)
        params[f"conv{b}.bn.running_var"] = rng.uniform(0.5, 2.0, c).astype(
            np.float32)
    X = rng.normal(size=(2500, SEGMENT_LENGTH)).astype(np.float32)
    logits = predict_logits(net, params, X)
    assert logits.shape == (2500, 2) and logits.dtype == np.float32
    assert hashlib.blake2b(logits.tobytes(), digest_size=16).hexdigest() \
        == PREDICT_BLAKE2B


# --- the shared frame ---


def test_frame_layout(tmp_path):
    path = tmp_path / "f.bin"
    write_framed(path, b"TEST", 3, [b"ab", b"", pack_str("hé")])
    raw = path.read_bytes()
    payload = b"TEST" + struct.pack("<H", 3) + b"ab" + b"\x03\x00h\xc3\xa9"
    assert raw == payload + hashlib.blake2b(payload, digest_size=8).digest()
    rd = read_framed(path, b"TEST", 3)
    assert bytes(rd.take(2)) == b"ab"
    assert rd.take_str() == "hé"
    rd.finish()


def test_frame_errors(tmp_path):
    path = tmp_path / "f.bin"
    write_framed(path, b"TEST", 3, [b"abc"])
    with pytest.raises(DataError, match="has format version 3, expected 4"):
        read_framed(path, b"TEST", 4)
    with pytest.raises(DataError, match="has format version 3, expected 2"):
        read_framed(path, b"TEST", 2)
    with pytest.raises(DataError, match="bad magic"):
        read_framed(path, b"ELSE", 3)
    rd = read_framed(path, b"TEST", 3)
    with pytest.raises(DataError, match="3 trailing bytes"):
        rd.finish()  # three body bytes left
    with pytest.raises(DataError, match="is truncated"):
        rd.take(4)
    (tmp_path / "short").write_bytes(b"TEST\x03")
    with pytest.raises(DataError, match="is too small"):
        read_framed(tmp_path / "short", b"TEST", 3)


def test_write_is_atomic(tmp_path):
    path = tmp_path / "f.bin"
    write_framed(path, b"TEST", 1, [b"old"])
    before = path.read_bytes()

    def parts():
        yield b"new" * 1000
        raise KeyboardInterrupt  # interrupted halfway through the body

    with pytest.raises(KeyboardInterrupt):
        write_framed(path, b"TEST", 1, parts())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]


def test_text_write_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "report.csv"
    write_text(path, "old\n")
    assert path.read_bytes() == b"old\n"

    # fails while writing: a lone surrogate has no UTF-8 encoding
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "new \ud800\n")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    # fails after writing, at the rename
    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr("beatnet.container.os.replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_text(path, "new\n")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_cache_with_non_utf8_string_is_corrupt(tmp_path):
    path = tmp_path / "pin.hbds"
    save_cache(seeded_dataset(), path)
    name_at = 4 + 2 + 3 + 2  # magic, version, <HB, subset-name length

    def damage(payload):
        assert payload[name_at:name_at + 10] == b"Arrhythmia"
        payload[name_at] = 0xFF

    reframe(path, damage)
    with pytest.raises(DataError, match="holds a string that is not UTF-8"):
        load_cache(path)


def test_cache_version_gate(tmp_path):
    path = tmp_path / "pin.hbds"
    save_cache(seeded_dataset(), path)
    reframe(path, lambda p: p.__setitem__(slice(4, 6), struct.pack("<H", 2)))
    with pytest.raises(DataError, match="has format version 2, expected 1"):
        load_cache(path)


def test_checkpoint_trailing_bytes_are_corrupt(tmp_path):
    path = tmp_path / "pin.hbdl"
    save_checkpoint(init_params(SMALL_NET, np.random.default_rng(0)),
                    SMALL_NET, path)
    reframe(path, lambda p: p.extend(b"\x00" * 4))
    with pytest.raises(DataError, match="4 trailing bytes"):
        load_checkpoint(path)


def test_inconsistent_cache_and_checkpoint_errors_name_the_file(tmp_path):
    cache = tmp_path / "pin.hbds"
    save_cache(seeded_dataset(), cache)
    # the last four payload bytes are the last sample of X
    reframe(cache, lambda p: p.__setitem__(slice(-4, None),
                                           struct.pack("<f", np.nan)))
    with pytest.raises(DataError, match=f"cache content inconsistent in "
                       f"{re.escape(str(cache))}: .*non-finite"):
        load_cache(cache)

    ckpt = tmp_path / "pin.hbdl"
    save_checkpoint(init_params(SMALL_NET, np.random.default_rng(0)),
                    SMALL_NET, ckpt)

    def misdeclare(payload):
        at = payload.index(b'["fc2.bias", [2]]')
        payload[at:at + 17] = b'["fc2.bias", [3]]'

    reframe(ckpt, misdeclare)
    with pytest.raises(DataError, match=f"checkpoint layout in "
                       f"{re.escape(str(ckpt))} does not match"):
        load_checkpoint(ckpt)
