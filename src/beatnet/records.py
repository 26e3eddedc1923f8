"""In-memory ECG record model, CSV ingestion and the dataset manifest.

A manifest is a plain text file, one record per line, made of
whitespace-separated ``key=value`` tokens. ``#`` starts a comment. Two
source kinds exist:

WFDB record::

    record=100 subject=100 tag=Arrhythmia hea=mitdb/100.hea ann=mitdb/100.atr channel=0

CSV record::

    record=w01 subject=p01 tag=BaselineFlexComp csv=wcs/p01.csv fs=256 \
        value_col=ecg marker_col=beat header=true

Relative paths resolve against the manifest's directory, or against the
``BEATNET_DATA_ROOT`` environment variable when it is set.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import wfdb_io
from .errors import DataError

# Subset each record tag contributes to; two tags pool into one subset.
SUBSET_OF_TAG = {
    "NormalSinus": "NormalSinus+LongTerm",
    "LongTerm": "NormalSinus+LongTerm",
    "Arrhythmia": "Arrhythmia",
    "BaselineFlexComp": "BaselineFlexComp",
    "BaselineComfTech": "BaselineComfTech",
    "MovementComfTech": "MovementComfTech",
}
DATASET_TAGS = tuple(SUBSET_OF_TAG)
SUBSET_NAMES = tuple(dict.fromkeys(SUBSET_OF_TAG.values()))

DATA_ROOT_ENV = "BEATNET_DATA_ROOT"

_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class EcgRecord:
    """One ECG channel with its beat annotations, in millivolts."""

    record_id: str
    subject_id: str
    dataset_tag: str
    fs: float
    samples: np.ndarray       # float32 mV
    beat_samples: np.ndarray  # int64, strictly increasing sample indices

    def __post_init__(self):
        if self.dataset_tag not in DATASET_TAGS:
            raise DataError(f"unknown dataset tag {self.dataset_tag!r} "
                            f"(expected one of {DATASET_TAGS})")
        if not 0 < self.fs < np.inf:
            raise DataError(f"record {self.record_id}: sampling rate must "
                            f"be finite and > 0, got {self.fs}")
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise DataError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(self.samples)):
            raise DataError(f"record {self.record_id}: non-finite sample values")
        beats = self.beat_samples
        if beats.size:
            if beats[0] < 0 or beats[-1] >= self.samples.size:
                raise DataError(
                    f"record {self.record_id}: beat index outside "
                    f"[0, {self.samples.size})")
            if not np.all(np.diff(beats) > 0):
                raise DataError(
                    f"record {self.record_id}: beat indices not strictly "
                    f"increasing")

    @property
    def duration(self) -> float:
        """Record length in seconds."""
        return self.samples.size / self.fs

    @property
    def beat_times(self) -> np.ndarray:
        """Beat positions in seconds from the start of the record."""
        return self.beat_samples.astype(np.float64) / self.fs


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for CSV ingestion.

    Columns are named when the file has a header row, otherwise given as
    0-based integer indices (as strings). ``marker_col`` flags beat rows
    with a non-zero value; alternatively beat times in seconds can come
    from a separate text file (one float per line).
    """

    value_col: str
    time_col: str | None = None
    marker_col: str | None = None
    has_header: bool = True


def _csv_column_index(name: str, header_row: list[str] | None,
                      n_cols: int) -> int:
    if header_row is not None:
        if name in header_row:
            return header_row.index(name)
        # fall through: allow numeric indices even with a header present
    try:
        idx = int(name)
    except ValueError:
        raise DataError(f"column {name!r} not found in CSV header "
                        f"{header_row}") from None
    if not 0 <= idx < n_cols:
        raise DataError(f"column index {idx} out of range for "
                        f"{n_cols}-column CSV")
    return idx


def ingest_csv(csv_text: str, schema: CsvSchema, fs: float,
               record_id: str = "csv", subject_id: str = "csv",
               dataset_tag: str = "BaselineFlexComp",
               beat_times: np.ndarray | None = None) -> EcgRecord:
    """Build an :class:`EcgRecord` from CSV text.

    Beat positions come from ``schema.marker_col`` (any value other than
    empty or 0 marks that row's sample as a beat) or from ``beat_times``
    (seconds, converted with round(t * fs)); supplying both is rejected.
    When ``schema.time_col`` is set, its values must be strictly
    increasing; the column is only validated, sampling is uniform at fs.
    """
    if not 0 < fs < np.inf:
        raise DataError(f"fs must be a finite rate > 0, got {fs}")
    if schema.marker_col is not None and beat_times is not None:
        raise DataError("beats given twice: marker column and time file")

    reader = csv.reader(io.StringIO(csv_text))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"CSV line {reader.line_num}: {exc}") from None
    header_row = None
    if schema.has_header:
        if not rows:
            raise DataError("CSV is empty")
        header_row = [c.strip() for c in rows[0]]
        rows = rows[1:]
    if not rows:
        raise DataError("CSV has no data rows")

    n_cols = len(rows[0])
    v_idx = _csv_column_index(schema.value_col, header_row, n_cols)
    t_idx = (None if schema.time_col is None
             else _csv_column_index(schema.time_col, header_row, n_cols))
    m_idx = (None if schema.marker_col is None
             else _csv_column_index(schema.marker_col, header_row, n_cols))

    values = np.empty(len(rows), dtype=np.float32)
    times = np.empty(len(rows), dtype=np.float64) if t_idx is not None else None
    marks: list[int] = []
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise DataError(
                f"row {i + 1} has {len(row)} columns, expected {n_cols}")
        try:
            value = float(row[v_idx])
        except ValueError:
            raise DataError(
                f"row {i + 1}: non-numeric sample value {row[v_idx]!r}") from None
        if not abs(value) <= _FLOAT32_MAX:  # false for nan too
            raise DataError(f"row {i + 1}: sample value {row[v_idx]!r} is "
                            f"not a finite float32")
        values[i] = value
        if times is not None:
            try:
                times[i] = float(row[t_idx])
            except ValueError:
                raise DataError(
                    f"row {i + 1}: non-numeric time {row[t_idx]!r}") from None
        if m_idx is not None:
            cell = row[m_idx].strip()
            if cell not in ("", "0", "0.0"):
                marks.append(i)

    # increasing order is checked by comparison: a difference can overflow
    if times is not None and not np.all(times[1:] > times[:-1]):
        raise DataError("CSV time column is not strictly increasing")

    if beat_times is not None:
        bt = np.asarray(beat_times, dtype=np.float64)
        if not np.all(np.isfinite(bt)):
            raise DataError(f"bad beat time {bt[~np.isfinite(bt)][0]}: not "
                            f"a finite number of seconds")
        if not np.all(bt[1:] > bt[:-1]):
            raise DataError("beat times are not strictly increasing")
        duration = len(values) / fs
        if bt.size and not 0 <= bt[0] <= bt[-1] < duration:
            raise DataError(f"bad beat time: beats from {bt[0]} to {bt[-1]} "
                            f"s are not all within the record's "
                            f"[0, {duration}) s")
        beats = np.round(bt * fs).astype(np.int64)
        # rounding may merge two beats closer than one sample; keep one
        beats = np.unique(beats)
    else:
        beats = np.asarray(marks, dtype=np.int64)

    return EcgRecord(record_id, subject_id, dataset_tag, float(fs),
                     values, beats)


@dataclass(frozen=True)
class RecordSource:
    """One manifest line: where a record's files live and how to read them."""

    record_id: str
    subject_id: str
    dataset_tag: str
    kind: str                       # "wfdb" or "csv"
    paths: dict = field(default_factory=dict)
    channel: int = 0
    fs: float | None = None
    schema: CsvSchema | None = None


_WFDB_KEYS = {"hea", "ann", "channel"}
_CSV_KEYS = {"csv", "fs", "value_col", "time_col", "marker_col", "beats",
             "header"}
_COMMON_KEYS = {"record", "subject", "tag"}


def parse_manifest(text: str) -> list[RecordSource]:
    """Parse manifest text into record sources (no file access)."""
    sources = []
    seen_ids = set()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        kv = {}
        for token in line.split():
            if "=" not in token:
                raise DataError(
                    f"line {line_no}: token {token!r} is not key=value")
            key, value = token.split("=", 1)
            if key in kv:
                raise DataError(f"line {line_no}: duplicate key {key!r}")
            kv[key] = value
        unknown = set(kv) - _COMMON_KEYS - _WFDB_KEYS - _CSV_KEYS
        if unknown:
            raise DataError(
                f"line {line_no}: unknown keys {sorted(unknown)}")
        for req in ("record", "subject", "tag"):
            if req not in kv:
                raise DataError(f"line {line_no}: missing {req}=")
        if kv["tag"] not in DATASET_TAGS:
            raise DataError(
                f"line {line_no}: unknown tag {kv['tag']!r} "
                f"(expected one of {DATASET_TAGS})")
        if kv["record"] in seen_ids:
            raise DataError(
                f"line {line_no}: duplicate record id {kv['record']!r}")
        seen_ids.add(kv["record"])

        if "hea" in kv:
            if "csv" in kv:
                raise DataError(
                    f"line {line_no}: record is both WFDB (hea=) and CSV (csv=)")
            if "ann" not in kv:
                raise DataError(f"line {line_no}: WFDB record needs ann=")
            try:
                channel = int(kv.get("channel", "0"))
            except ValueError:
                raise DataError(
                    f"line {line_no}: channel must be an integer") from None
            sources.append(RecordSource(
                kv["record"], kv["subject"], kv["tag"], "wfdb",
                paths={"hea": kv["hea"], "ann": kv["ann"]}, channel=channel))
        elif "csv" in kv:
            if "fs" not in kv or "value_col" not in kv:
                raise DataError(
                    f"line {line_no}: CSV record needs fs= and value_col=")
            try:
                fs = float(kv["fs"])
            except ValueError:
                raise DataError(f"line {line_no}: fs must be numeric") from None
            header_flag = kv.get("header", "true").lower()
            if header_flag not in ("true", "false"):
                raise DataError(
                    f"line {line_no}: header= must be true or false")
            schema = CsvSchema(
                value_col=kv["value_col"],
                time_col=kv.get("time_col"),
                marker_col=kv.get("marker_col"),
                has_header=header_flag == "true")
            paths = {"csv": kv["csv"]}
            if "beats" in kv:
                paths["beats"] = kv["beats"]
            sources.append(RecordSource(
                kv["record"], kv["subject"], kv["tag"], "csv",
                paths=paths, fs=fs, schema=schema))
        else:
            raise DataError(
                f"line {line_no}: record needs either hea= or csv=")
    return sources


def load_manifest(manifest_path: str | Path) -> tuple[list[RecordSource], Path]:
    """Read a manifest file; returns its sources and the data root.

    The data root is the manifest's directory unless the environment
    variable named by :data:`DATA_ROOT_ENV` overrides it.
    """
    manifest_path = Path(manifest_path)
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read manifest {manifest_path}: {exc}") from exc
    root_env = os.environ.get(DATA_ROOT_ENV)
    root = Path(root_env) if root_env else manifest_path.parent
    return parse_manifest(text), root


def _read_bytes(root: Path, rel: str, what: str) -> bytes:
    path = root / rel
    try:
        return path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc


def _read_text(root: Path, rel: str, what: str) -> str:
    try:
        return _read_bytes(root, rel, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} file {root / rel} is not UTF-8 text: "
                        f"{exc}") from exc


def load_record(source: RecordSource, root: Path,
                beat_codes=wfdb_io.DEFAULT_BEAT_SYMBOLS) -> EcgRecord:
    """Load and decode one record from disk per its manifest entry."""
    if source.kind == "wfdb":
        header_bytes = _read_bytes(root, source.paths["hea"], "header")
        header = wfdb_io.parse_header(header_bytes.decode("ascii", "replace"))
        if not 0 <= source.channel < header.n_signals:
            raise DataError(
                f"record {source.record_id}: channel {source.channel} not in "
                f"record with {header.n_signals} signals")
        dat_name = header.signals[source.channel].file_name
        dat_rel = str(Path(source.paths["hea"]).parent / dat_name)
        dat_bytes = _read_bytes(root, dat_rel, "signal")
        samples = wfdb_io.decode_signal(dat_bytes, header, source.channel)
        ann_bytes = _read_bytes(root, source.paths["ann"], "annotation")
        annotations = wfdb_io.parse_annotations(ann_bytes)
        beats = wfdb_io.filter_beats(annotations, beat_codes)
        if not np.all(np.diff(beats) > 0):
            raise DataError(
                f"record {source.record_id}: decoded beat indices not "
                f"strictly increasing")
        # clip rare annotations that point past the signal end
        beats = beats[beats < samples.size]
        return EcgRecord(source.record_id, source.subject_id,
                         source.dataset_tag, header.fs, samples, beats)

    if source.kind == "csv":
        csv_text = _read_text(root, source.paths["csv"], "CSV")
        beat_times = None
        if "beats" in source.paths:
            beats_text = _read_text(root, source.paths["beats"], "beat-times")
            lines = [ln.strip() for ln in beats_text.splitlines()]
            lines = [ln for ln in lines if ln and not ln.startswith("#")]
            try:
                beat_times = np.asarray([float(ln) for ln in lines],
                                        dtype=np.float64)
            except ValueError as exc:
                raise DataError(
                    f"record {source.record_id}: non-numeric beat time "
                    f"({exc})") from exc
        return ingest_csv(csv_text, source.schema, source.fs,
                          record_id=source.record_id,
                          subject_id=source.subject_id,
                          dataset_tag=source.dataset_tag,
                          beat_times=beat_times)

    raise DataError(f"unknown record source kind {source.kind!r}")
