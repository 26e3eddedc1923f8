"""Fixed-length labeled ECG segments and dataset assembly.

Records are cut into non-overlapping 0.25 s windows starting at t = 0.
A window starting at t0 is labeled BEAT when some annotated beat lies in
[t0 + 0.10 s, t0 + 0.15 s), half-open so a beat on a boundary matches a
single window. Each window is resampled to 250 samples on a 1000 Hz grid
with linear interpolation. Only the first 3600 s of a record are used and
a trailing partial window is dropped.

A record is windowed in blocks of ``WINDOW_BLOCK`` windows by one
interpolation kernel: every full window shares the same sample grid, so
the interval each output point falls in is found once per record, and a
block gathers its samples and evaluates ``np.interp``'s own formula on
them at once. The result is bit-equal to ``np.interp`` run per window.
A record of more than one block shares its blocks among ``WORKERS``
threads, the calling thread among them (:func:`run_in_threads`). Each
block writes only its own rows, and NumPy releases the interpreter lock
inside the kernel's array operations. The threads split one block's
worth of windows between them, so together they hold the temporaries of
one ``WINDOW_BLOCK`` block, however many there are.

Subjects are partitioned before segments are pooled, so no subject
contributes windows to both Train and Test of the same subset. A
partition's columns are sized once from ``window_count`` of its records,
and each record's windows are resampled straight into its own rows.
"""

from __future__ import annotations

import contextvars
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

WINDOW_BLOCK = 1024  # windows per block of the resampling kernel

# Threads that ingest and the network run on, the calling thread among
# them: the CPUs this process may run on.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

_CACHE_MAGIC = b"HBDS"
_CACHE_VERSION = 1


def run_in_threads(task, n_tasks: int) -> None:
    """Call ``task(k)`` once for each k in ``range(n_tasks)``, on up to
    ``WORKERS`` threads of which the calling thread is one.

    Each thread takes the next k until none is left or a call has
    failed. Every thread started is joined before this returns, and a
    failed call's exception is raised here. With one task or one worker
    no thread is started. Each helper thread runs in a copy of the
    caller's context, so the caller's ``np.errstate``, a context variable
    that new threads do not inherit, holds in every task.
    """
    lock = threading.Lock()
    pending = iter(range(n_tasks))
    failed = threading.Event()

    def work():
        while not failed.is_set():
            with lock:
                k = next(pending, None)
            if k is None:
                return
            try:
                task(k)
            except BaseException:
                failed.set()  # the other threads take no further task
                raise

    helpers = min(WORKERS, n_tasks) - 1
    if helpers < 1:
        work()
        return
    with ThreadPoolExecutor(helpers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, work)
                   for _ in range(helpers)]
        work()
    for future in futures:
        future.result()


def _label_windows(t0: np.ndarray, beats: np.ndarray) -> np.ndarray:
    """BEAT/NO_BEAT (uint8) for windows starting at the times ``t0``: BEAT
    when a beat time falls in [t0+0.10, t0+0.15).

    ``beats`` holds beat times in seconds, sorted ascending.
    """
    lo = np.searchsorted(beats, t0 + BEAT_WINDOW_LOW, side="left")
    hi = np.searchsorted(beats, t0 + BEAT_WINDOW_HIGH, side="left")
    return np.where(hi > lo, BEAT, NO_BEAT).astype(np.uint8)


def label_window(t0: float, beats: np.ndarray) -> int:
    """BEAT when a beat time falls in [t0+0.10, t0+0.15), else NO_BEAT.

    ``beats`` holds beat times in seconds, sorted ascending.
    """
    return int(_label_windows(np.array([t0]), beats)[0])


def _resample_windows(samples: np.ndarray, starts: np.ndarray, size: int,
                      fs: float, out: np.ndarray) -> None:
    """Resample the windows ``samples[start:start + size]`` into the rows
    of ``out``, in blocks of windows shared among the threads of
    :func:`run_in_threads`.

    Each row is bit-equal to ``np.interp(x, xp, window)`` with ``xp =
    arange(size) / fs`` and ``x = arange(250) / 1000``: in float64, the
    slope of the interval holding x times x's offset into it, plus the
    interval's left sample. Points on a grid point or past the last one
    copy the sample, as np.interp does (the formula would turn a -0.0
    sample into +0.0). Samples are finite (EcgRecord checks them), so
    np.interp's retry for a NaN result never applies.
    """
    if size < 2:
        raise DataError(f"need at least 2 samples to interpolate, got {size}")
    if fs <= 0:
        raise DataError(f"fs must be > 0, got {fs}")
    xp = np.arange(size, dtype=np.float64) / fs
    x = np.arange(SEGMENT_LENGTH, dtype=np.float64) / RESAMPLE_HZ
    # x[k] lies in [xp[j[k]], xp[j[k] + 1]), or past the last sample
    j = np.minimum(np.searchsorted(xp, x, side="right") - 1, size - 1)
    copied = np.flatnonzero((xp[j] == x) | (j == size - 1))
    interval = np.minimum(j, size - 2)
    offset = x - xp[j]
    dxp = np.diff(xp)
    windows = sliding_window_view(samples, size)
    n = len(starts)
    rows = WINDOW_BLOCK
    if n > WINDOW_BLOCK:
        # each of the WORKERS threads takes 1/WORKERS of a block at a
        # time, so that their temporaries add up to one block's
        rows = max(1, WINDOW_BLOCK // WORKERS)

    def resample_block(k):
        block = slice(k * rows, (k + 1) * rows)
        w = windows[starts[block]]
        slope = np.subtract(w[:, 1:], w[:, :-1], dtype=np.float64)
        slope /= dxp
        left = np.take(w, j, axis=1)
        v = np.take(slope, interval, axis=1)
        v *= offset
        v += left
        v[:, copied] = left[:, copied]
        out[block] = v

    run_in_threads(resample_block, -(-n // rows))


def resample_linear(samples: np.ndarray, fs_in: float) -> np.ndarray:
    """Resample onto a 1000 Hz grid by linear interpolation.

    Returns ``SEGMENT_LENGTH`` values: output k is the input evaluated at
    k/1000 s from the first sample; queries past the last sample clamp
    to its value.
    """
    samples = np.asarray(samples)
    out = np.empty((1, SEGMENT_LENGTH), dtype=np.float32)
    _resample_windows(samples, np.zeros(1, dtype=np.intp), samples.size,
                      fs_in, out)
    return out[0]


def window_count(duration: float, max_duration: float = MAX_RECORD_SECONDS) -> int:
    """Number of whole 0.25 s windows in min(duration, max_duration)."""
    usable = min(duration, max_duration)
    # tiny epsilon so durations that are exact multiples of 0.25 in real
    # arithmetic are not undercounted through float representation
    return int(usable / WINDOW_SECONDS + 1e-9)


def segment_arrays(record: EcgRecord,
                   max_duration: float = MAX_RECORD_SECONDS,
                   out: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Window, label and resample one record.

    Returns (X, y): X is (n_windows, 250) float32, y is (n_windows,)
    uint8 of BEAT/NO_BEAT labels from the record's own beat times.
    Window i starts at t0 = 0.25 i s, at sample round(t0 * fs) (halves
    up), and spans ceil(0.25 fs) + 1 samples, fewer where the record
    ends first. Given ``out``, an (n_windows, 250) float32 array such as
    a partition's rows, the windows are written into it and X is ``out``.
    """
    n_windows = window_count(record.duration, max_duration)
    X = (np.empty((n_windows, SEGMENT_LENGTH), dtype=np.float32)
         if out is None else out)
    if X.shape != (n_windows, SEGMENT_LENGTH) or X.dtype != np.float32:
        raise DataError(f"out is {X.dtype} {X.shape}, expected float32 "
                        f"({n_windows}, {SEGMENT_LENGTH})")
    t0 = np.arange(n_windows) * WINDOW_SECONDS
    y = _label_windows(t0, record.beat_times)
    samples = record.samples
    n = samples.size
    fs = record.fs
    span = math.ceil(WINDOW_SECONDS * fs) + 1
    starts = np.floor(t0 * fs + 0.5).astype(np.intp)
    # windows that hold a whole span come first; the rest end at n
    n_full = int(np.searchsorted(starts, n - span, side="right"))
    if n_full:
        _resample_windows(samples, starts[:n_full], span, fs, X[:n_full])
    for i in range(n_full, n_windows):
        _resample_windows(samples, starts[i:i + 1], int(n - starts[i]), fs,
                          X[i:i + 1])
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
        # block by block: a mask of the whole of X would take a quarter
        # of X's own bytes
        if not all(np.isfinite(self.X[k:k + WINDOW_BLOCK]).all()
                   for k in range(0, n, WINDOW_BLOCK)):
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
    counts = np.array([window_count(r.duration, max_duration) for r in chosen],
                      dtype=np.intp)
    starts = np.cumsum(counts) - counts
    n = int(counts.sum())
    X = np.empty((n, SEGMENT_LENGTH), dtype=np.float32)
    y = np.empty(n, dtype=np.uint8)
    for k, rec in enumerate(chosen):
        rows = slice(starts[k], starts[k] + counts[k])
        try:
            _, y[rows] = segment_arrays(rec, max_duration=max_duration,
                                        out=X[rows])
        except DataError as exc:
            raise DataError(f"record {rec.record_id!r}: {exc}") from exc
    record_index = np.repeat(np.arange(len(chosen), dtype=np.uint32), counts)
    window_index = (np.arange(n) - np.repeat(starts, counts)).astype(np.uint32)
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
        try:
            train_ids, test_ids = split_subjects(
                {r.subject_id for r in recs}, train_fraction, seed)
        except DataError as exc:
            raise DataError(f"subset {subset}: {exc}") from exc
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


def save_cache(dataset: LabeledDataset, path, parts=None) -> None:
    """Write a dataset to a binary cache file.

    The file uses the shared frame of :mod:`beatnet.container` with
    magic "HBDS". Its body is all little-endian: u16 segment length, u8
    partition (0=Train, 1=Test), subset name, subject ids, record table,
    u32 segment count, then the column arrays (record index u32, window
    index u32, labels u8, samples f32): ``parts``, else the dataset's
    :func:`cache_parts`, built before the file is opened.
    """
    write_framed(path, _CACHE_MAGIC, _CACHE_VERSION,
                 cache_parts(dataset) if parts is None else parts)


def cache_parts(dataset: LabeledDataset) -> list:
    """The body of ``dataset``'s cache; a count or string too large for
    its field raises DataError naming the subset and partition."""
    subjects, table = sorted(dataset.subject_ids), dataset.record_table
    try:
        head = [struct.pack("<HB", SEGMENT_LENGTH,
                            PARTITIONS.index(dataset.partition)),
                pack_str(dataset.subset_name),
                struct.pack("<H", len(subjects)), *map(pack_str, subjects),
                struct.pack("<I", len(table)),
                *(pack_str(s) for row in table for s in row),
                struct.pack("<I", len(dataset))]
    except (DataError, struct.error) as exc:
        raise DataError(f"cannot cache {dataset.subset_name} "
                        f"{dataset.partition} of {len(subjects)} subjects: "
                        f"{exc}") from exc
    # contiguous arrays go to the frame as buffers, without a bytes copy
    return [*head, np.ascontiguousarray(dataset.record_index, "<u4"),
            np.ascontiguousarray(dataset.window_index, "<u4"),
            np.ascontiguousarray(dataset.y, np.uint8),
            np.ascontiguousarray(dataset.X, "<f4")]


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
