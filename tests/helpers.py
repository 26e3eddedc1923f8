"""Shared test oracles, deliberately independent of the package code.

The byte-format helpers here are scalar, loop-based transcriptions of
the on-disk layouts, so they share no code with the vectorized decoders
they check. The finite-difference helper is the gradient oracle for
every backward pass. The ``ref_*`` layer kernels are the channels-first
``(n, C, L)`` kernels the network used before its trunk went
channels-last; the channels-last kernels must reproduce their bytes.
``ref_segment_arrays`` is the per-window windowing loop, one
``np.interp`` call per window, that the block resampling kernel must
reproduce byte for byte. ``count_thread_starts`` records the threads a
call starts.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from beatnet import segments
from beatnet.errors import DataError

# --- reference format-212 bit packing (two 12-bit samples per 3 bytes) ---


def ref_pack_212(values) -> bytes:
    out = bytearray()
    vals = list(values)
    if len(vals) % 2:
        vals.append(0)
    for i in range(0, len(vals), 2):
        a, b = vals[i], vals[i + 1]
        if a < 0:
            a += 4096
        if b < 0:
            b += 4096
        out.append(a & 0xFF)
        out.append(((a >> 8) & 0x0F) | (((b >> 8) & 0x0F) << 4))
        out.append(b & 0xFF)
    return bytes(out)


def ref_unpack_212(data: bytes, total: int) -> list[int]:
    vals = []
    for g in range((total + 1) // 2):
        b0, b1, b2 = data[3 * g], data[3 * g + 1], data[3 * g + 2]
        for s in (((b1 & 0x0F) << 8) | b0, ((b1 & 0xF0) << 4) | b2):
            vals.append(s - 4096 if s > 2047 else s)
    return vals[:total]


def ref_pack_16(values) -> bytes:
    out = bytearray()
    for v in values:
        if v < 0:
            v += 65536
        out.append(v & 0xFF)
        out.append(v >> 8)
    return bytes(out)


# --- MIT annotation stream construction ---


def ann_word(code: int, delta: int) -> bytes:
    assert 0 <= delta < 1024 and 0 <= code < 64
    word = (code << 10) | delta
    return bytes([word & 0xFF, word >> 8])


def skip_block(interval: int) -> bytes:
    """SKIP pseudo-word plus its 4-byte interval (high LE word first)."""
    iv = interval & 0xFFFFFFFF
    high, low = (iv >> 16) & 0xFFFF, iv & 0xFFFF
    return (ann_word(59, 0)
            + bytes([high & 0xFF, high >> 8, low & 0xFF, low >> 8]))


def aux_block(payload: bytes) -> bytes:
    padded = payload + (b"\x00" if len(payload) % 2 else b"")
    return ann_word(63, len(payload)) + padded


def end_marker() -> bytes:
    return b"\x00\x00"


def simple_annotation_stream(events) -> bytes:
    """Encode (sample_index, code) events whose gaps all fit one word."""
    out = bytearray()
    prev = 0
    for sample, code in events:
        delta = sample - prev
        assert 0 <= delta < 1024, "use skip_block for large gaps"
        out += ann_word(code, delta)
        prev = sample
    out += end_marker()
    return bytes(out)


# --- minimal WFDB record writer for ingestion tests ---


def write_wfdb_record(directory, name: str, fs: float, adc_channels,
                      fmt: int = 212, gain: float = 200.0,
                      baseline: int = 0, annotation_bytes: bytes = b"",
                      units: str = "mV") -> None:
    """Write name.hea, name.dat and name.atr under ``directory``.

    All channels share one .dat file (samples interleaved), one format
    and one gain/baseline, which is all the ingestion tests need.
    """
    n_sig = len(adc_channels)
    n_samples = len(adc_channels[0])
    lines = [f"{name} {n_sig} {fs:g} {n_samples}"]
    for ch in range(n_sig):
        lines.append(f"{name}.dat {fmt} {gain:g}({baseline})/{units} "
                     f"12 0 0 0 0 ch{ch}")
    (directory / f"{name}.hea").write_text("\n".join(lines) + "\n")

    interleaved = []
    for i in range(n_samples):
        for ch in range(n_sig):
            interleaved.append(int(adc_channels[ch][i]))
    packer = ref_pack_212 if fmt == 212 else ref_pack_16
    (directory / f"{name}.dat").write_bytes(packer(interleaved))
    (directory / f"{name}.atr").write_bytes(annotation_bytes)


# --- finite-difference gradient oracle ---


def numeric_grad(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar-valued f() w.r.t. x.

    ``f`` must read ``x`` afresh on every call; ``x`` is perturbed in
    place and restored.
    """
    grad = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray,
                floor: float = 1e-6) -> float:
    """Worst elementwise relative error, with a floor against 0/0."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


# --- channels-first reference layer kernels ---
# Transcribed from the channels-first network, input checks left out.
# Their float32 sums run in the memory order of the arrays they are
# given, so a byte comparison must give them the layouts the
# channels-first network gave them (see tests/test_nn.py).


def channels_last(a: np.ndarray) -> np.ndarray:
    """A C-contiguous (n, L, C) copy of an (n, C, L) array, or back."""
    return np.ascontiguousarray(a.transpose(0, 2, 1))



def ref_conv1d_forward(x, w, b):
    n, c_in, length = x.shape
    c_out, _, k = w.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    cols = sliding_window_view(xp, k, axis=2)        # (n, Cin, L, k)
    cols = cols.transpose(0, 2, 1, 3).reshape(n * length, c_in * k)
    y = cols @ w.reshape(c_out, c_in * k).T
    y = y.reshape(n, length, c_out).transpose(0, 2, 1)
    return y + b[None, :, None]


def ref_conv1d_backward(x, w, dy):
    n, c_in, length = x.shape
    c_out, _, k = w.shape
    pad = (k - 1) // 2
    db = dy.sum(axis=(0, 2))
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    cols = sliding_window_view(xp, k, axis=2)
    cols = cols.transpose(0, 2, 1, 3).reshape(n * length, c_in * k)
    dy_flat = dy.transpose(0, 2, 1).reshape(n * length, c_out)
    dw = (dy_flat.T @ cols).reshape(c_out, c_in, k)
    dyp = np.pad(dy, ((0, 0), (0, 0), (pad, pad)))
    dcols = sliding_window_view(dyp, k, axis=2)
    dcols = dcols.transpose(0, 2, 1, 3).reshape(n * length, c_out * k)
    wflip = w[:, :, ::-1].transpose(1, 0, 2).reshape(c_in, c_out * k)
    dx = (dcols @ wflip.T).reshape(n, length, c_in).transpose(0, 2, 1)
    return dx, dw, db


def ref_batchnorm1d_forward(x, gamma, beta, running_mean, running_var,
                            train, eps=1e-5, momentum=0.1):
    n, c, length = x.shape
    if train:
        count = n * length
        mean = x.mean(axis=(0, 2))
        var = x.var(axis=(0, 2))
        unbiased = var * (count / (count - 1))
        new_mean = ((1.0 - momentum) * running_mean
                    + momentum * mean).astype(x.dtype)
        new_var = ((1.0 - momentum) * running_var
                   + momentum * unbiased).astype(x.dtype)
    else:
        mean, var = running_mean, running_var
        new_mean, new_var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
    y = gamma[None, :, None] * xhat + beta[None, :, None]
    cache = (xhat, inv_std.astype(x.dtype), gamma, train)
    return y.astype(x.dtype), cache, new_mean, new_var


def ref_batchnorm1d_backward(dy, cache):
    xhat, inv_std, gamma, train = cache
    dgamma = (dy * xhat).sum(axis=(0, 2))
    dbeta = dy.sum(axis=(0, 2))
    dxhat = dy * gamma[None, :, None]
    if not train:
        return dxhat * inv_std[None, :, None], dgamma, dbeta
    n, _, length = dy.shape
    count = n * length
    sum_dxhat = dxhat.sum(axis=(0, 2))[None, :, None]
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2))[None, :, None]
    dx = (inv_std[None, :, None] / count
          * (count * dxhat - sum_dxhat - xhat * sum_dxhat_xhat))
    return dx.astype(dy.dtype), dgamma, dbeta


def ref_maxpool1d_forward(x):
    n, c, length = x.shape
    half = length // 2
    v = x[:, :, :2 * half].reshape(n, c, half, 2)
    idx = v.argmax(axis=3)
    y = np.take_along_axis(v, idx[..., None], axis=3)[..., 0]
    return y, idx


def ref_maxpool1d_backward(dy, idx, input_length):
    n, c, half = dy.shape
    dv = np.zeros((n, c, half, 2), dtype=dy.dtype)
    np.put_along_axis(dv, idx[..., None], dy[..., None], axis=3)
    dx = np.zeros((n, c, input_length), dtype=dy.dtype)
    dx[:, :, :2 * half] = dv.reshape(n, c, 2 * half)
    return dx


# --- brute-force window labeling oracle ---


def brute_force_labels(n_windows: int, beat_times) -> list[int]:
    """Label every window by scanning every beat against its interval."""
    labels = []
    for i in range(n_windows):
        t0 = i * 0.25
        hit = any(t0 + 0.10 <= b < t0 + 0.15 for b in beat_times)
        labels.append(1 if hit else 0)
    return labels


# --- per-window windowing oracle ---


def ref_segment_arrays(record, max_duration: float = 3600.0):
    """Window, label and resample one record one window at a time, with
    one ``np.interp`` call and two ``searchsorted`` calls per window: the
    loop ``segments.segment_arrays`` ran before it worked in blocks."""
    beats = record.beat_times
    n_windows = int(min(record.duration, max_duration) / 0.25 + 1e-9)
    n = record.samples.size
    fs = record.fs
    span = math.ceil(0.25 * fs) + 1
    x = np.arange(250, dtype=np.float64) / 1000
    X = np.empty((n_windows, 250), dtype=np.float32)
    y = np.empty(n_windows, dtype=np.uint8)
    for i in range(n_windows):
        t0 = i * 0.25
        i0 = int(math.floor(t0 * fs + 0.5))
        i1 = min(n, i0 + span)
        window = record.samples[i0:i1]
        if window.size < 2:
            raise DataError(f"need at least 2 samples to interpolate, "
                            f"got {window.size}")
        xp = np.arange(window.size, dtype=np.float64) / fs
        X[i] = np.interp(x, xp, window.astype(np.float64)).astype(np.float32)
        lo = np.searchsorted(beats, t0 + 0.10, side="left")
        hi = np.searchsorted(beats, t0 + 0.15, side="left")
        y[i] = 1 if hi > lo else 0
    return X, y


# --- re-signing a framed cache or checkpoint ---


def reframe(path, mutate) -> None:
    """Apply ``mutate`` to a framed file's payload and re-sign it."""
    payload = bytearray(path.read_bytes()[:-8])
    mutate(payload)
    path.write_bytes(bytes(payload)
                     + hashlib.blake2b(bytes(payload), digest_size=8).digest())


def edit_checkpoint_header(path, edit) -> None:
    """Apply ``edit`` to a checkpoint's decoded JSON header and re-sign
    the file."""
    def mutate(payload):
        (n,) = struct.unpack("<I", payload[6:10])  # after magic, version
        header = json.loads(bytes(payload[10:10 + n]))
        edit(header)
        raw = json.dumps(header, sort_keys=True).encode()
        payload[6:10 + n] = struct.pack("<I", len(raw)) + raw

    reframe(path, mutate)


# Malformed geometry for a default-architecture checkpoint header: each
# entry replaces keys of its "network" object, with a pattern the
# resulting DataError matches.
BAD_GEOMETRY = [
    ({"conv_blocks": [[1, 8], [8, 16], [16, 32], [32, 64]]},
     "conv_blocks must be .* triples"),
    ({"conv_blocks": [[1, 8, 7], [4, 16, 5], [16, 32, 5], [32, 64, 3]]},
     "each block's in the previous block's out"),
    ({"conv_blocks": [[1, 8, 7], [8, 16, 5], [16, 32, 5]]},
     "need exactly 4 entries"),
    ({"pool_kernel": 3}, "only pool kernel 2"),
]


# --- threads ---


def count_thread_starts(monkeypatch) -> list[str]:
    """The names of the threads started from here on, in start order."""
    started = []
    real = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started

