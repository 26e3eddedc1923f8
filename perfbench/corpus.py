"""Seeded WFDB corpus laid out like the three PhysioNet databases.

The ingest workload needs recordings that go through the real decoders,
so this module writes them: for each record a ``.hea`` header, a
format-212 ``.dat`` file with two channels interleaved sample by sample,
and a MIT-format ``.atr`` annotation stream, plus one manifest for
``run_ingest``. The annotation streams carry non-beat codes, AUX
payloads and a SKIP so that every branch of ``parse_annotations`` that
real files use is taken.

Each record is decoded back as soon as it is written, before anything
is timed, and the generator keeps the truth it wrote (every annotation
event and the beat samples) so the benchmark can check the windowing
against it. Only ``beatnet.wfdb_io.encode_212`` is borrowed
from the package; the annotation encoder and the label oracle are
written here from the format descriptions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from beatnet import wfdb_io

# (name, database directory, dataset tag, fs, seconds, ADC zero).
# MIT-BIH Arrhythmia is 360 Hz with ADC zero 1024; NSRDB and LTDB are
# 128 Hz with ADC zero 0. Record 14134 runs past the 3600 s cap, so
# part of what it decodes is never windowed.
LAYOUT = (
    ("100", "mitdb", "Arrhythmia", 360, 3600, 1024),
    ("101", "mitdb", "Arrhythmia", 360, 3600, 1024),
    ("102", "mitdb", "Arrhythmia", 360, 3600, 1024),
    ("16265", "nsrdb", "NormalSinus", 128, 3600, 0),
    ("16272", "nsrdb", "NormalSinus", 128, 3600, 0),
    ("16273", "nsrdb", "NormalSinus", 128, 3600, 0),
    ("14046", "ltdb", "LongTerm", 128, 3600, 0),
    ("14134", "ltdb", "LongTerm", 128, 4500, 0),
)

GAIN = 200.0  # ADC units per millivolt, as in all three databases
MAX_SECONDS = 3600  # the windowing cap of the protocol
WINDOWS_PER_SECOND = 4  # 0.25 s windows
PAUSE_SECONDS = 10.0  # a beat-free stretch long enough to need a SKIP

# MIT annotation codes (annot.c numbering).
NORMAL, PVC, ARTIFACT, NOISE, NOTE, RHYTHM = 1, 5, 16, 14, 22, 28
SKIP, AUX = 59, 63


@dataclass(frozen=True)
class CorpusRecord:
    """What was written for one record, kept as the checks' truth."""

    name: str
    directory: str
    tag: str
    fs: int
    adc_zero: int
    n_samples: int
    event_samples: np.ndarray  # int64, every annotation event in stream order
    event_codes: np.ndarray    # int16, parallel to event_samples
    beat_samples: np.ndarray   # int64, the events with a beat code

    @property
    def n_windows(self) -> int:
        return WINDOWS_PER_SECOND * min(self.n_samples // self.fs, MAX_SECONDS)


def _wave(t: np.ndarray, parts) -> np.ndarray:
    return sum(amp * np.exp(-(((t - off) / sigma) ** 2))
               for amp, off, sigma in parts)


# Gaussian (amplitude mV, offset s, sigma s) parts of each beat shape.
_NORMAL_SHAPE = ((1.1, 0.0, 0.012), (-0.15, -0.02, 0.01),
                 (-0.25, 0.025, 0.01), (0.2, 0.2, 0.04))
_PVC_SHAPE = ((-0.9, 0.0, 0.035), (0.5, 0.06, 0.03), (-0.3, 0.25, 0.05))


def _beat_times(duration: float, rng: np.random.Generator,
                pause_at: float) -> np.ndarray:
    times = []
    pos = 0.4 + rng.uniform(0.0, 0.3)
    while pos < duration - 0.5:
        times.append(pos)
        pos += rng.uniform(0.55, 0.95)
        if times[-1] < pause_at <= pos:
            pos = pause_at + PAUSE_SECONDS
    return np.asarray(times)


def synth_record(name: str, directory: str, tag: str, fs: int, seconds: int,
                 adc_zero: int, rng: np.random.Generator,
                 ) -> tuple[CorpusRecord, np.ndarray, list]:
    """One record's truth, its (n_samples, 2) ADC values (channel 0
    carries the beats) and the (sample, code, aux) events of its
    annotation stream."""
    n = seconds * fs
    pause_at = float(rng.uniform(0.3, 0.6) * seconds)
    beats = np.unique(np.round(_beat_times(seconds, rng, pause_at) * fs)
                      .astype(np.int64))
    codes = np.full(beats.size, NORMAL, dtype=np.int16)
    if tag == "Arrhythmia":  # one ventricular beat in forty
        codes[rng.integers(0, 40)::40] = PVC

    half = int(0.45 * fs)
    offsets = np.arange(-half, half + 1) / fs
    shapes = {NORMAL: _wave(offsets, _NORMAL_SHAPE),
              PVC: _wave(offsets, _PVC_SHAPE)}
    t = np.arange(n) / fs
    mv = (0.1 * np.sin(2 * np.pi * 0.3 * t + rng.uniform(0, 2 * np.pi))
          + 0.05 * np.sin(2 * np.pi * 0.05 * t + rng.uniform(0, 2 * np.pi)))
    for b, code in zip(beats.tolist(), codes.tolist()):
        lo, hi = max(0, b - half), min(n, b + half + 1)
        mv[lo:hi] += shapes[code][lo - (b - half):hi - (b - half)]
    ch0 = mv + rng.normal(0.0, 0.03, n)
    ch1 = 0.6 * mv + rng.normal(0.0, 0.05, n)
    adc = np.stack([ch0, ch1], axis=1) * GAIN
    adc = np.clip(np.rint(adc), -2048 - adc_zero, 2047 - adc_zero)
    adc = adc.astype(np.int64) + adc_zero

    events = [(int(b), int(c), b"") for b, c in zip(beats, codes)]
    events.append((0, RHYTHM, b"(N"))
    # non-beat events sit midway between two beats, never on one
    pause_beat = int(np.searchsorted(beats, pause_at * fs))
    events.append((int(beats[pause_beat - 1]) + fs, NOISE, b""))
    events.append((int(beats[pause_beat]) - fs // 2, NOISE, b""))
    for k in range(50, beats.size - 1, 500):
        events.append(((int(beats[k]) + int(beats[k + 1])) // 2, ARTIFACT, b""))
    events.append(((int(beats[7]) + int(beats[8])) // 2, NOTE, b"synthetic"))
    events.sort(key=lambda e: e[0])
    samples = np.asarray([e[0] for e in events], dtype=np.int64)
    ev_codes = np.asarray([e[1] for e in events], dtype=np.int16)
    return (CorpusRecord(name, directory, tag, fs, adc_zero, n, samples,
                         ev_codes, beats), adc, events)


def _word(code: int, delta: int) -> bytes:
    return ((code << 10) | delta).to_bytes(2, "little")


def encode_annotations(events) -> bytes:
    """MIT annotation stream for (sample, code, aux) events in order.

    A gap wider than the 10-bit interval field is written as a SKIP
    word followed by its 32-bit interval, high 16-bit word first; the
    event itself then follows with a zero interval. An AUX payload is
    word-padded after the event it belongs to.
    """
    out = bytearray()
    prev = 0
    for sample, code, aux in events:
        delta = sample - prev
        if delta > 0x3FF:
            out += _word(SKIP, 0)
            out += (delta >> 16).to_bytes(2, "little")
            out += (delta & 0xFFFF).to_bytes(2, "little")
            delta = 0
        out += _word(code, delta)
        if aux:
            out += _word(AUX, len(aux)) + aux + b"\0" * (len(aux) & 1)
        prev = sample
    out += b"\0\0"
    return bytes(out)


def _header(rec: CorpusRecord, adc: np.ndarray) -> str:
    lines = [f"{rec.name} 2 {rec.fs} {rec.n_samples}"]
    for ch, label in enumerate(("MLII", "V5")):
        col = adc[:, ch]
        checksum = int(col.sum()) & 0xFFFF
        if checksum >= 0x8000:
            checksum -= 0x10000
        lines.append(f"{rec.name}.dat 212 {GAIN:g} 11 {rec.adc_zero} "
                     f"{int(col[0])} {checksum} 0 {label}")
    return "\n".join(lines) + "\n"


def write_record(root: Path, rec: CorpusRecord, adc: np.ndarray,
                 events) -> None:
    folder = root / rec.directory
    folder.mkdir(parents=True, exist_ok=True)
    (folder / f"{rec.name}.hea").write_text(_header(rec, adc))
    (folder / f"{rec.name}.dat").write_bytes(wfdb_io.encode_212(adc.reshape(-1)))
    (folder / f"{rec.name}.atr").write_bytes(encode_annotations(events))


def verify_record(root: Path, rec: CorpusRecord, adc: np.ndarray) -> list[str]:
    """Decode one record back; returns one message per mismatch.

    ``decode_signal`` must give back exactly the ADC values written on
    both channels, and ``parse_annotations`` every event, so a timing of
    the decoders never times a wrong answer.
    """
    problems = []
    folder = root / rec.directory
    header = wfdb_io.parse_header((folder / f"{rec.name}.hea").read_text())
    raw = (folder / f"{rec.name}.dat").read_bytes()
    for ch in range(2):
        mv = wfdb_io.decode_signal(raw, header, ch)
        back = np.rint(mv.astype(np.float64) * GAIN).astype(np.int64)
        if not np.array_equal(back + rec.adc_zero, adc[:, ch]):
            problems.append(f"{rec.name}: channel {ch} ADC values differ")
    ann = wfdb_io.parse_annotations((folder / f"{rec.name}.atr").read_bytes())
    if not (np.array_equal(ann.samples, rec.event_samples)
            and np.array_equal(ann.codes, rec.event_codes)):
        problems.append(f"{rec.name}: annotation events differ")
    beats = wfdb_io.filter_beats(ann, wfdb_io.DEFAULT_BEAT_SYMBOLS)
    if not np.array_equal(beats, rec.beat_samples):
        problems.append(f"{rec.name}: beat samples differ")
    return problems


def write_corpus(root: Path, seed: int) -> tuple[list[CorpusRecord], list[str]]:
    """Write and verify every record of :data:`LAYOUT`, then
    ``manifest.txt``; returns the records and any verification problems.

    Each record's ADC values are dropped once verified, so the
    benchmark's own memory stays small beside the package's.
    """
    rng = np.random.default_rng(seed)
    records, problems, manifest = [], [], []
    for name, directory, tag, fs, seconds, adc_zero in LAYOUT:
        rec, adc, events = synth_record(name, directory, tag, fs, seconds,
                                        adc_zero, rng)
        write_record(root, rec, adc, events)
        problems += verify_record(root, rec, adc)
        manifest.append(f"record={name} subject={name} tag={tag} "
                        f"hea={directory}/{name}.hea "
                        f"ann={directory}/{name}.atr channel=0")
        records.append(rec)
    (root / "manifest.txt").write_text("\n".join(manifest) + "\n")
    return records, problems


def expected_labels(beat_samples: np.ndarray, fs: float,
                    n_windows: int) -> np.ndarray:
    """BEAT (1) where a beat lies in [t0 + 0.10 s, t0 + 0.15 s) of a window."""
    beats = beat_samples / fs
    t0 = np.arange(n_windows) * 0.25
    lo = np.searchsorted(beats, t0 + 0.10, side="left")
    hi = np.searchsorted(beats, t0 + 0.15, side="left")
    return (hi > lo).astype(np.uint8)


def file_digest(path: Path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    """blake2b of every file under root, keyed by its relative path.

    Training logs are left out: they hold wall-clock times and are the
    package's one deliberately non-reproducible output.
    """
    return {str(p.relative_to(root)): file_digest(p)
            for p in sorted(root.rglob("*"))
            if p.is_file() and not p.name.startswith("train_log")}
