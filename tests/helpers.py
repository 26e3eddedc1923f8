"""Shared test oracles, deliberately independent of the package code.

The byte-format helpers here are scalar, loop-based transcriptions of
the on-disk layouts, so they share no code with the vectorized decoders
they check. The finite-difference helper is the gradient oracle for
every backward pass.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

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


# --- brute-force window labeling oracle ---


def brute_force_labels(n_windows: int, beat_times) -> list[int]:
    """Label every window by scanning every beat against its interval."""
    labels = []
    for i in range(n_windows):
        t0 = i * 0.25
        hit = any(t0 + 0.10 <= b < t0 + 0.15 for b in beat_times)
        labels.append(1 if hit else 0)
    return labels


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
