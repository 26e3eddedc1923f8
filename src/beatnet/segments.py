"""Fixed-length labeled ECG segments and dataset assembly.

Records are cut into non-overlapping 0.25 s windows starting at t = 0.
A window starting at t0 is labeled BEAT when some annotated beat lies in
[t0 + 0.10 s, t0 + 0.15 s), half-open so a beat on a boundary matches a
single window. Each window is resampled to 250 samples on a 1000 Hz grid
with linear interpolation. Only the first 3600 s of a record are used and
a trailing partial window is dropped.

Subjects are partitioned before segments are pooled, so no subject
contributes windows to both Train and Test of the same subset.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .container import pack_str, read_framed, write_framed
from .records import SUBSET_NAMES, SUBSET_OF_TAG, EcgRecord

NO_BEAT = 0
BEAT = 1

WINDOW_SECONDS = 0.25
RESAMPLE_HZ = 1000
SEGMENT_LENGTH = 250
MAX_RECORD_SECONDS = 3600.0
BEAT_WINDOW_LOW = 0.10   # seconds after window start
BEAT_WINDOW_HIGH = 0.15  # exclusive

TRAIN, TEST = "Train", "Test"
PARTITIONS = (TRAIN, TEST)

_CACHE_MAGIC = b"HBDS"
_CACHE_VERSION = 1


def label_window(t0: float, beats: np.ndarray) -> int:
    """BEAT when a beat time falls in [t0+0.10, t0+0.15), else NO_BEAT.

    ``beats`` holds beat times in seconds, sorted ascending.
    """
    lo = np.searchsorted(beats, t0 + BEAT_WINDOW_LOW, side="left")
    hi = np.searchsorted(beats, t0 + BEAT_WINDOW_HIGH, side="left")
    return BEAT if hi > lo else NO_BEAT


def resample_linear(samples: np.ndarray, fs_in: float) -> np.ndarray:
    """Resample onto a 1000 Hz grid by linear interpolation.

    Returns ``SEGMENT_LENGTH`` values: output k is the input evaluated at
    k/1000 s from the first sample; queries past the last sample clamp
    to its value.
    """
    samples = np.asarray(samples)
    if samples.size < 2:
        raise DataError(
            f"need at least 2 samples to interpolate, got {samples.size}")
    if fs_in <= 0:
        raise DataError(f"fs must be > 0, got {fs_in}")
    xp = np.arange(samples.size, dtype=np.float64) / fs_in
    x = np.arange(SEGMENT_LENGTH, dtype=np.float64) / RESAMPLE_HZ
    return np.interp(x, xp, samples.astype(np.float64)).astype(np.float32)


def window_count(duration: float, max_duration: float = MAX_RECORD_SECONDS) -> int:
    """Number of whole 0.25 s windows in min(duration, max_duration)."""
    usable = min(duration, max_duration)
    # tiny epsilon so durations that are exact multiples of 0.25 in real
    # arithmetic are not undercounted through float representation
    return int(usable / WINDOW_SECONDS + 1e-9)


def segment_arrays(record: EcgRecord,
                   max_duration: float = MAX_RECORD_SECONDS,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Window, label and resample one record.

    Returns (X, y): X is (n_windows, 250) float32, y is (n_windows,)
    uint8 of BEAT/NO_BEAT labels from the record's own beat times.
    """
    beats = record.beat_times
    n_windows = window_count(record.duration, max_duration)
    n = record.samples.size
    fs = record.fs
    span = math.ceil(WINDOW_SECONDS * fs) + 1

    X = np.empty((n_windows, SEGMENT_LENGTH), dtype=np.float32)
    y = np.empty(n_windows, dtype=np.uint8)
    for i in range(n_windows):
        t0 = i * WINDOW_SECONDS
        i0 = int(math.floor(t0 * fs + 0.5))
        i1 = min(n, i0 + span)
        X[i] = resample_linear(record.samples[i0:i1], fs)
        y[i] = label_window(t0, beats)
    return X, y


def split_subjects(subject_ids, train_fraction: float = 2 / 3,
                   seed: int = 0) -> tuple[frozenset, frozenset]:
    """Deterministic subject-level train/test split.

    Subject ids are sorted, shuffled with a seeded generator, and the
    first round(train_fraction * n) go to train (half rounds up), the
    rest to test.
    """
    ids = sorted(set(subject_ids))
    n = len(ids)
    if n < 2:
        raise DataError(f"need at least 2 subjects to split, got {n}")
    if not 0 < train_fraction < 1:
        raise DataError(f"train_fraction must be in (0, 1), "
                        f"got {train_fraction}")
    n_train = int(math.floor(train_fraction * n + 0.5))
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    shuffled = [ids[k] for k in order]
    return frozenset(shuffled[:n_train]), frozenset(shuffled[n_train:])


@dataclass(frozen=True)
class LabeledDataset:
    """Segments of one subset partition, stored columnwise.

    ``record_table`` maps the per-segment ``record_index`` to
    (record_id, subject_id); ``window_index`` recovers each segment's
    start time as index * 0.25 s.
    """

    subset_name: str
    partition: str
    X: np.ndarray             # (n, 250) float32
    y: np.ndarray             # (n,) uint8, values BEAT/NO_BEAT
    record_index: np.ndarray  # (n,) uint32 into record_table
    window_index: np.ndarray  # (n,) uint32
    record_table: tuple       # ((record_id, subject_id), ...)
    subject_ids: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        n = self.y.size
        if self.partition not in PARTITIONS:
            raise DataError(f"partition must be one of {PARTITIONS}, "
                            f"got {self.partition!r}")
        if self.X.shape != (n, SEGMENT_LENGTH):
            raise DataError(f"X shape {self.X.shape} does not match "
                            f"{n} labels x {SEGMENT_LENGTH} samples")
        if self.record_index.shape != (n,) or self.window_index.shape != (n,):
            raise DataError("index arrays must parallel labels")
        if n and not np.all(np.isfinite(self.X)):
            raise DataError("dataset contains non-finite sample values")
        if n and not np.all((self.y == NO_BEAT) | (self.y == BEAT)):
            raise DataError("labels must be BEAT or NO_BEAT")
        if n and self.record_index.max() >= len(self.record_table):
            raise DataError("record_index points past record_table")
        table_subjects = {subj for _, subj in self.record_table}
        if not table_subjects <= set(self.subject_ids):
            raise DataError("record_table references subjects outside "
                            "subject_ids")

    def __len__(self) -> int:
        return int(self.y.size)


def class_stats(dataset: LabeledDataset) -> tuple[int, int, float]:
    """(n_segments, n_beat, percent_beat); an empty dataset reports 0.0%."""
    n = len(dataset)
    n_beat = int(np.count_nonzero(dataset.y == BEAT))
    pct = 100.0 * n_beat / n if n else 0.0
    return n, n_beat, pct


def build_labeled_dataset(records: list[EcgRecord], subset_name: str,
                          partition: str, subjects,
                          max_duration: float = MAX_RECORD_SECONDS,
                          ) -> LabeledDataset:
    """Pool segments of the records whose subject is in ``subjects``.

    Records are processed in their given (manifest) order so the result
    does not depend on how per-record work is scheduled.
    """
    subjects = frozenset(subjects)
    chosen = [r for r in records if r.subject_id in subjects]
    table = tuple((r.record_id, r.subject_id) for r in chosen)
    xs, ys, recs, wins = [], [], [], []
    for k, rec in enumerate(chosen):
        X, y = segment_arrays(rec, max_duration=max_duration)
        xs.append(X)
        ys.append(y)
        recs.append(np.full(y.size, k, dtype=np.uint32))
        wins.append(np.arange(y.size, dtype=np.uint32))
    if xs:
        X = np.concatenate(xs)
        y = np.concatenate(ys)
        record_index = np.concatenate(recs)
        window_index = np.concatenate(wins)
    else:
        X = np.empty((0, SEGMENT_LENGTH), dtype=np.float32)
        y = np.empty(0, dtype=np.uint8)
        record_index = np.empty(0, dtype=np.uint32)
        window_index = np.empty(0, dtype=np.uint32)
    return LabeledDataset(subset_name, partition, X, y, record_index,
                          window_index, table, subjects)


def build_subsets(records: list[EcgRecord], train_fraction: float = 2 / 3,
                  seed: int = 0, max_duration: float = MAX_RECORD_SECONDS,
                  ) -> dict[tuple[str, str], LabeledDataset]:
    """Assemble every subset present in ``records`` with its Train/Test split.

    Returns a mapping keyed by (subset_name, partition). Subsets are
    split independently; a subset with fewer than 2 subjects is an error.
    """
    by_subset: dict[str, list[EcgRecord]] = {}
    for rec in records:
        subset = SUBSET_OF_TAG[rec.dataset_tag]
        by_subset.setdefault(subset, []).append(rec)

    out: dict[tuple[str, str], LabeledDataset] = {}
    for subset in SUBSET_NAMES:
        if subset not in by_subset:
            continue
        recs = by_subset[subset]
        train_ids, test_ids = split_subjects(
            {r.subject_id for r in recs}, train_fraction, seed)
        out[(subset, TRAIN)] = build_labeled_dataset(
            recs, subset, TRAIN, train_ids, max_duration)
        out[(subset, TEST)] = build_labeled_dataset(
            recs, subset, TEST, test_ids, max_duration)
    return out


def stats_csv(datasets) -> str:
    """Render per-partition class statistics as CSV text.

    One row per dataset: subset, partition, n_subjects, n_segments,
    percent_beat (4 decimal places). Input order is preserved.
    """
    lines = ["subset,partition,n_subjects,n_segments,percent_beat"]
    for ds in datasets:
        n, _, pct = class_stats(ds)
        lines.append(f"{ds.subset_name},{ds.partition},"
                     f"{len(ds.subject_ids)},{n},{pct:.4f}")
    return "\n".join(lines) + "\n"


def save_cache(dataset: LabeledDataset, path) -> None:
    """Write a dataset to a binary cache file.

    The file uses the shared frame of :mod:`beatnet.container` with
    magic "HBDS". Its body is all little-endian: u16 segment length, u8
    partition (0=Train, 1=Test), subset name, subject ids, record table,
    u32 segment count, then the column arrays (record index u32, window
    index u32, labels u8, samples f32).
    """
    subjects = sorted(dataset.subject_ids)
    parts = [struct.pack("<HB", SEGMENT_LENGTH,
                         PARTITIONS.index(dataset.partition)),
             pack_str(dataset.subset_name),
             struct.pack("<H", len(subjects))]
    parts.extend(pack_str(s) for s in subjects)
    parts.append(struct.pack("<I", len(dataset.record_table)))
    for rec_id, subj in dataset.record_table:
        parts.append(pack_str(rec_id))
        parts.append(pack_str(subj))
    parts.append(struct.pack("<I", len(dataset)))
    # contiguous arrays go to the frame as buffers, without a bytes copy
    parts.append(np.ascontiguousarray(dataset.record_index, "<u4"))
    parts.append(np.ascontiguousarray(dataset.window_index, "<u4"))
    parts.append(np.ascontiguousarray(dataset.y, np.uint8))
    parts.append(np.ascontiguousarray(dataset.X, "<f4"))
    write_framed(path, _CACHE_MAGIC, _CACHE_VERSION, parts)


def load_cache(path) -> LabeledDataset:
    """Read a cache file back; any structural damage raises DataError."""
    rd = read_framed(path, _CACHE_MAGIC, _CACHE_VERSION)
    seg_len, part_code = rd.unpack("<HB")
    if seg_len != SEGMENT_LENGTH:
        raise DataError(f"cache segment length {seg_len} != "
                        f"{SEGMENT_LENGTH} in {path}")
    if part_code >= len(PARTITIONS):
        raise DataError(f"bad partition code {part_code} in {path}")
    subset_name = rd.take_str()
    (n_subjects,) = rd.unpack("<H")
    subjects = frozenset(rd.take_str() for _ in range(n_subjects))
    (n_records,) = rd.unpack("<I")
    table = tuple((rd.take_str(), rd.take_str()) for _ in range(n_records))
    (n,) = rd.unpack("<I")
    record_index = np.frombuffer(rd.take(4 * n), dtype="<u4").copy()
    window_index = np.frombuffer(rd.take(4 * n), dtype="<u4").copy()
    y = np.frombuffer(rd.take(n), dtype=np.uint8).copy()
    X = np.frombuffer(rd.take(4 * n * SEGMENT_LENGTH), dtype="<f4")
    X = X.reshape(n, SEGMENT_LENGTH).copy()
    rd.finish()
    try:
        return LabeledDataset(subset_name, PARTITIONS[part_code], X, y,
                              record_index, window_index, table, subjects)
    except DataError as exc:
        raise DataError(f"cache content inconsistent in {path}: "
                        f"{exc}") from exc
