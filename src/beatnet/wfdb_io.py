"""Decoders for PhysioNet WFDB files: .hea text headers, bit-packed .dat
signal files (formats 212 and 16) and MIT-format binary annotation files.

Only single-segment records are supported, and only signal formats 212
(two 12-bit two's-complement samples packed into three bytes) and 16
(little-endian 16-bit two's complement). Everything else is rejected
loudly rather than decoded approximately.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError

SUPPORTED_FORMATS = (212, 16)

# WFDB default gain (ADC units per millivolt) used when a header stores 0
# or omits the gain field entirely.
DEFAULT_GAIN = 200.0

# Annotation code numbers for the standard mnemonics (annot.c table).
SYMBOL_TO_CODE = {
    "N": 1, "L": 2, "R": 3, "a": 4, "V": 5, "F": 6, "J": 7, "A": 8,
    "S": 9, "E": 10, "j": 11, "/": 12, "Q": 13, "~": 14, "|": 16,
    "s": 18, "T": 19, "*": 20, "D": 21, '"': 22, "=": 23, "p": 24,
    "B": 25, "^": 26, "t": 27, "+": 28, "u": 29, "?": 30, "!": 31,
    "[": 32, "]": 33, "e": 34, "n": 35, "@": 36, "x": 37, "f": 38,
    "(": 39, ")": 40, "r": 41,
}

# Default set of annotation mnemonics counted as heart beats. Configurable
# wherever a beat code set is accepted; paced beats ('/') are not included
# by default.
DEFAULT_BEAT_SYMBOLS = ("N", "L", "R", "B", "A", "a", "J", "S", "V", "r",
                        "F", "e", "j", "n", "E", "f", "Q", "?")

# Pseudo annotation codes that carry fields instead of events.
_SKIP, _NUM, _SUB, _CHN, _AUX = 59, 60, 61, 62, 63


@dataclass(frozen=True)
class SignalSpec:
    """One signal line of a WFDB header."""

    file_name: str
    format_code: int
    gain: float        # ADC units per millivolt
    baseline: int      # ADC value corresponding to 0 mV
    units: str
    description: str


@dataclass(frozen=True)
class WfdbHeader:
    record_name: str
    n_signals: int
    fs: float
    n_samples: int
    signals: tuple[SignalSpec, ...]


@dataclass(frozen=True)
class BeatAnnotations:
    """Ordered annotation events decoded from a MIT annotation stream.

    ``samples`` holds cumulative sample indices, ``codes`` the raw
    annotation code of each event. All event codes are retained;
    restricting to beats is :func:`filter_beats`'s job.
    """

    samples: np.ndarray  # int64, one index per event
    codes: np.ndarray    # int16, parallel to samples

    def __len__(self) -> int:
        return len(self.samples)


_FORMAT_FIELD_RE = re.compile(r"^(\d+)(x(\d+))?(:(\d+))?(\+(\d+))?$")
# a decimal float (as float() reads it), optionally "(baseline)"
_GAIN_FIELD_RE = re.compile(
    r"^([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(\((-?\d+)\))?$")


def _parse_format_field(field: str) -> int:
    """Parse a header format field like ``212`` or ``212x1``.

    Samples-per-frame, skew and byte-offset modifiers other than their
    defaults describe layouts this decoder does not handle.
    """
    m = _FORMAT_FIELD_RE.match(field)
    if m is None:
        raise DataError(f"unparseable signal format field {field!r}")
    code = int(m.group(1))
    spf = int(m.group(3)) if m.group(3) else 1
    skew = int(m.group(5)) if m.group(5) else 0
    offset = int(m.group(7)) if m.group(7) else 0
    if code not in SUPPORTED_FORMATS:
        raise DataError(f"signal format {code} not supported "
                        f"(supported: {SUPPORTED_FORMATS})")
    if spf != 1 or skew != 0 or offset != 0:
        raise DataError(
            f"format modifiers in {field!r} (samples/frame, skew or byte "
            f"offset) are not supported")
    return code


def _parse_gain_field(field: str) -> tuple[float, int | None, str]:
    """Split a gain field like ``200``, ``200(1024)`` or ``200(1024)/mV``.

    Returns (gain, baseline or None, units). A stored gain of 0 means
    "unspecified" and is replaced by the WFDB default.
    """
    units = "mV"
    if "/" in field:
        field, units = field.split("/", 1)
    baseline = None
    m = _GAIN_FIELD_RE.match(field)
    if m is None:
        raise DataError(f"unparseable gain field {field!r}")
    gain = float(m.group(1))
    if m.group(3) is not None:
        baseline = int(m.group(3))
    if gain == 0.0:
        gain = DEFAULT_GAIN
    if gain < 0:
        raise DataError(f"negative gain {gain}")
    return gain, baseline, units


def parse_header(header_text: str) -> WfdbHeader:
    """Parse WFDB .hea text into a :class:`WfdbHeader`.

    Comment lines (leading ``#``) and blank lines are tolerated anywhere.
    Multi-segment records and unsupported signal formats are rejected.
    """
    lines = [ln.strip() for ln in header_text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise DataError("empty header")

    rec_tokens = lines[0].split()
    if len(rec_tokens) < 4:
        raise DataError(
            f"record line needs name, n_signals, fs and n_samples; "
            f"got {lines[0]!r}")
    name = rec_tokens[0]
    if "/" in name:
        raise DataError(f"multi-segment record {name!r} not supported")
    try:
        n_signals = int(rec_tokens[1])
        # fs may carry a counter frequency after '/': "360/21600(0)"
        fs = float(rec_tokens[2].split("/", 1)[0])
        n_samples = int(rec_tokens[3])
    except ValueError as exc:
        raise DataError(f"non-numeric record line field: {exc}") from exc
    if n_signals < 1:
        raise DataError(f"n_signals must be >= 1, got {n_signals}")
    if not 0 < fs < np.inf:
        raise DataError(f"fs must be a finite rate > 0, got {fs}")
    if n_samples < 1:
        raise DataError(f"n_samples must be >= 1, got {n_samples}")

    sig_lines = lines[1:]
    if len(sig_lines) < n_signals:
        raise DataError(
            f"header declares {n_signals} signals but has "
            f"{len(sig_lines)} signal lines")

    signals = []
    for ln in sig_lines[:n_signals]:
        tokens = ln.split()
        if len(tokens) < 2:
            raise DataError(f"signal line too short: {ln!r}")
        file_name = tokens[0]
        fmt = _parse_format_field(tokens[1])
        gain, baseline, units = DEFAULT_GAIN, None, "mV"
        if len(tokens) >= 3:
            gain, baseline, units = _parse_gain_field(tokens[2])
        adc_zero = 0
        if len(tokens) >= 5:
            try:
                adc_zero = int(tokens[4])
            except ValueError as exc:
                raise DataError(f"non-numeric ADC zero in {ln!r}") from exc
        if baseline is None:
            baseline = adc_zero
        description = " ".join(tokens[8:]) if len(tokens) > 8 else ""
        signals.append(SignalSpec(file_name, fmt, gain, baseline,
                                  units, description))

    return WfdbHeader(name, n_signals, fs, n_samples, tuple(signals))


def _decode_212(raw: bytes, total: int) -> np.ndarray:
    """Unpack `total` 12-bit two's-complement samples from 3-byte groups.

    Layout per group: byte0 = low 8 bits of s0; low nibble of byte1 =
    high 4 bits of s0; high nibble of byte1 = high 4 bits of s1;
    byte2 = low 8 bits of s1.
    """
    need = (3 * total + 1) // 2
    if len(raw) < need:
        raise DataError(
            f"format 212 needs {need} bytes for {total} samples, "
            f"file has {len(raw)}")
    groups = (total + 1) // 2
    buf = np.zeros(groups * 3, dtype=np.uint8)
    avail = min(len(raw), groups * 3)
    buf[:avail] = np.frombuffer(raw, dtype=np.uint8, count=avail)
    b0 = buf[0::3].astype(np.int32)
    b1 = buf[1::3].astype(np.int32)
    b2 = buf[2::3].astype(np.int32)
    s0 = ((b1 & 0x0F) << 8) | b0
    s1 = ((b1 & 0xF0) << 4) | b2
    adc = np.empty(groups * 2, dtype=np.int32)
    adc[0::2] = s0
    adc[1::2] = s1
    adc = adc[:total]
    adc[adc > 2047] -= 4096
    return adc


def encode_212(adc: np.ndarray) -> bytes:
    """Pack 12-bit two's-complement samples into format-212 bytes.

    Exists for round-trip validation and synthetic test records; values
    must lie in [-2048, 2047]. An odd sample count leaves the final
    group's second sample as zero padding, matching the on-disk layout
    for odd-length streams (the trailing pad byte is still written).
    """
    adc = np.asarray(adc, dtype=np.int64)
    if adc.size and (adc.min() < -2048 or adc.max() > 2047):
        raise ValueError("format 212 values must fit 12-bit two's complement")
    total = adc.size
    groups = (total + 1) // 2
    vals = np.zeros(groups * 2, dtype=np.int64)
    vals[:total] = adc
    vals = np.where(vals < 0, vals + 4096, vals)
    s0, s1 = vals[0::2], vals[1::2]
    out = np.empty(groups * 3, dtype=np.uint8)
    out[0::3] = s0 & 0xFF
    out[1::3] = ((s0 >> 8) & 0x0F) | (((s1 >> 8) & 0x0F) << 4)
    out[2::3] = s1 & 0xFF
    return out.tobytes()


def encode_16(adc: np.ndarray) -> bytes:
    """Pack samples as little-endian int16 (format 16)."""
    adc = np.asarray(adc, dtype=np.int64)
    if adc.size and (adc.min() < -32768 or adc.max() > 32767):
        raise ValueError("format 16 values must fit 16-bit two's complement")
    return adc.astype("<i2").tobytes()


def decode_signal(raw_bytes: bytes, header: WfdbHeader, channel: int) -> np.ndarray:
    """Decode one channel of a signal file into millivolt values.

    ``raw_bytes`` is the content of the .dat file named by the channel's
    signal line. Samples of all signals sharing that file are interleaved
    sample-by-sample; the output is ``(adc - baseline) / gain`` as float32,
    with exactly ``header.n_samples`` values.
    """
    if not 0 <= channel < header.n_signals:
        raise DataError(
            f"channel {channel} not in record with {header.n_signals} signals")
    spec = header.signals[channel]
    group = [i for i, s in enumerate(header.signals)
             if s.file_name == spec.file_name]
    n_group = len(group)
    pos = group.index(channel)
    total = header.n_samples * n_group

    if spec.format_code == 212:
        adc = _decode_212(raw_bytes, total)
    elif spec.format_code == 16:
        need = 2 * total
        if len(raw_bytes) < need:
            raise DataError(
                f"format 16 needs {need} bytes for {total} samples, "
                f"file has {len(raw_bytes)}")
        adc = np.frombuffer(raw_bytes, dtype="<i2", count=total).astype(np.int32)
    else:  # unreachable via parse_header, defensive for hand-built headers
        raise DataError(f"signal format {spec.format_code}")

    adc_ch = adc[pos::n_group]
    mv = (adc_ch - np.int32(spec.baseline)).astype(np.float32)
    mv /= np.float32(spec.gain)
    return mv


def parse_annotations(raw_bytes: bytes) -> BeatAnnotations:
    """Decode a MIT annotation byte stream into cumulative sample indices.

    The stream is a sequence of little-endian 16-bit words: the top 6 bits
    carry the annotation code, the low 10 bits a sample-interval increment.
    SKIP (59) extends the increment with a 4-byte interval (high 16-bit
    word first, each word little-endian) and the annotation itself follows
    in the next word. NUM/SUB/CHN field words and AUX payloads attach to
    the preceding event and are skipped. A zero word terminates the stream.
    """
    n = len(raw_bytes)
    if n % 2 != 0:
        raise DataError("annotation stream has an odd byte count")

    samples: list[int] = []
    codes: list[int] = []
    t = 0
    i = 0  # byte offset, always even
    terminated = False
    while i + 1 < n:
        word = raw_bytes[i] | (raw_bytes[i + 1] << 8)
        code = word >> 10
        delta = word & 0x3FF
        i += 2
        if word == 0:
            terminated = True
            break
        if code == _SKIP:
            if i + 4 > n:
                raise DataError("SKIP interval cut short")
            interval = ((raw_bytes[i] << 16) | (raw_bytes[i + 1] << 24)
                        | raw_bytes[i + 2] | (raw_bytes[i + 3] << 8))
            if interval >= 1 << 31:
                interval -= 1 << 32
            t += interval
            i += 4
            # the annotation this interval belongs to is in the next word
        elif code in (_NUM, _SUB, _CHN):
            continue  # field attached to the previous event
        elif code == _AUX:
            aux_bytes = delta + (delta & 1)  # payload is word-padded
            if i + aux_bytes > n:
                raise DataError("AUX payload cut short")
            i += aux_bytes
        else:
            t += delta
            if t < 0:
                raise DataError(
                    f"cumulative sample index {t} after SKIP underflow")
            samples.append(t)
            codes.append(code)
    if not terminated:
        raise DataError("annotation stream ended without a zero word")

    return BeatAnnotations(np.asarray(samples, dtype=np.int64),
                           np.asarray(codes, dtype=np.int16))


def resolve_beat_codes(beat_codes) -> frozenset[int]:
    """Normalise a non-empty beat code set given as mnemonics and/or
    integers."""
    out = set()
    for item in beat_codes:
        if isinstance(item, str):
            if item not in SYMBOL_TO_CODE:
                raise DataError(f"unknown annotation mnemonic {item!r}")
            out.add(SYMBOL_TO_CODE[item])
        else:
            out.add(int(item))
    if not out:
        raise DataError("beat code set must be non-empty")
    return frozenset(out)


def filter_beats(annotations: BeatAnnotations, beat_code_set) -> np.ndarray:
    """Sample indices of the events whose code is in ``beat_code_set``.

    The set may contain mnemonics ('N', 'V', ...) or raw integer codes and
    must be non-empty.
    """
    codes = resolve_beat_codes(beat_code_set)
    mask = np.isin(annotations.codes, np.asarray(sorted(codes), dtype=np.int16))
    return annotations.samples[mask].copy()
