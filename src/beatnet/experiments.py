"""The three-experiment protocol, and the one writer of run directories.

Experiment 1 trains from scratch on the NormalSinus+LongTerm subset and
reports metrics on its Train and Test partitions. Experiment 2 takes
the experiment-1 checkpoint as-is and evaluates it on every other
subset's Test partition. Experiment 3 fine-tunes that checkpoint's FC
head (conv trunk frozen) on each target subset's Train partition, then
reports on Train and Test. A run scores each partition once, as
logits: a trained partition's are its training run's last scoring pass,
any other's come from ``nn.predict_logits``. :func:`evaluate_dataset`
builds a report from logits and runs no network.

Experiments and the single-stage CLI commands write their run
directories only through :func:`write_trained` (checkpoint, training
log), :func:`write_snapshot` (the config snapshot, once per run) and
:func:`write_reports` (reports as CSV + JSON, an SVG chart). An
experiment adds a run_info.json with content hashes of the caches and
checkpoints used (no timestamps, so reruns are byte-comparable).
Training logs include wall-clock times and are the one deliberately
non-reproducible file. A run loads and checks all its inputs (every
cache of every subset, and the checkpoint) before it creates its
directory, so a refused run leaves none behind; the writers expect the
directory to exist.

Ingest and ``build-dataset`` write their caches concurrently, on the
threads of :func:`beatnet.segments.run_in_threads`: the blake2b digest
and the file writes release the interpreter lock. ``dataset_stats.csv``
is written after every cache, on the calling thread.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import nn
from .chart import render_mcc_chart
from .config import Settings, load_settings, render_snapshot, section_items
from .container import write_text
from .errors import DataError, UsageError
from .metrics import REPORT_CSV_HEADER, EvalReport, build_report, \
    reports_from_json, reports_to_csv, reports_to_json
from .records import SUBSET_NAMES, load_manifest, load_record
from .segments import (
    PARTITIONS,
    TEST,
    TRAIN,
    WINDOW_SECONDS,
    LabeledDataset,
    build_subsets,
    cache_parts,
    load_cache,
    run_in_threads,
    save_cache,
    stats_csv,
)
from .synthetic import make_synthetic_records
from .train import (TrainHistory, check_architecture, load_checkpoint,
                    save_checkpoint, train)

SOURCE_SUBSET = "NormalSinus+LongTerm"

STATS_FILE = "dataset_stats.csv"
REPORTS_CSV = "reports.csv"
REPORTS_JSON = "reports.json"
CHART_FILE = "mcc_chart.svg"
CONFIG_SNAPSHOT = "config.ini"
RUN_INFO = "run_info.json"
EXP1_CHECKPOINT = "checkpoint.hbdl"


def make_out_dir(path) -> Path:
    """Create the output directory ``path`` and its parents; a path that
    cannot be one raises UsageError naming it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {path}: "
                         f"{exc}") from exc
    return path


def write_trained(out_dir, params: dict, history: TrainHistory,
                  settings: Settings, suffix: str = "") -> Path:
    """Write a trained model into the existing ``out_dir``:
    checkpoint{suffix}.hbdl and train_log{suffix}.csv. Returns the
    checkpoint's path."""
    out_dir = Path(out_dir)
    checkpoint = out_dir / f"checkpoint{suffix}.hbdl"
    save_checkpoint(params, settings.network_config(), checkpoint)
    write_text(out_dir / f"train_log{suffix}.csv", history.to_csv())
    return checkpoint


def write_snapshot(out_dir, settings: Settings) -> None:
    """Write the config.ini snapshot of a run's ``settings``, once."""
    write_text(Path(out_dir) / CONFIG_SNAPSHOT, render_snapshot(settings))


def write_reports(out_dir, reports: list[EvalReport], title: str) -> None:
    """Write ``reports`` into the existing ``out_dir`` as CSV, as JSON
    and as an MCC chart headed ``title``."""
    out_dir = Path(out_dir)
    write_text(out_dir / REPORTS_CSV, reports_to_csv(reports))
    write_text(out_dir / REPORTS_JSON, reports_to_json(reports))
    write_text(out_dir / CHART_FILE, render_mcc_chart(reports, title))


def subset_slug(subset: str) -> str:
    """Filesystem-safe lowercase name for a subset."""
    return re.sub(r"[^a-z0-9]+", "-", subset.lower()).strip("-")


def cache_file(cache_dir: Path, subset: str, partition: str) -> Path:
    return Path(cache_dir) / f"{subset_slug(subset)}.{partition.lower()}.hbds"


def load_cache_checked(cache_dir: Path, subset: str,
                        partition: str) -> LabeledDataset:
    """The cache of ``subset``'s ``partition``; a missing one, one that
    holds another subset or partition, or one with no segments raises
    DataError naming the file."""
    path = cache_file(cache_dir, subset, partition)
    if not path.exists():
        raise DataError(f"no cache for {subset} {partition} at {path}; "
                        f"run ingest or build-dataset first")
    ds = load_cache(path)
    if ds.subset_name != subset or ds.partition != partition:
        raise DataError(f"cache {path} holds {ds.subset_name} "
                        f"{ds.partition}, expected {subset} {partition}")
    if len(ds) == 0:
        raise DataError(f"cache {path} holds no segments of {subset} "
                        f"{partition}")
    return ds


def _write_caches(datasets: dict, out_dir: Path) -> list[Path]:
    """Write every dataset's cache, concurrently, then the stats file; or,
    when there is no dataset or any has no segments or does not fit the
    cache format, nothing at all. A cache that cannot be written raises
    DataError naming it, and the stats file is not written."""
    if not datasets:
        raise DataError("no records to build a dataset from; no caches "
                        "written")
    ordered = [datasets[key] for key in sorted(datasets)]
    for ds in ordered:
        if len(ds) == 0:
            raise DataError(
                f"{ds.subset_name} {ds.partition} has no segments: its "
                f"records are shorter than one {WINDOW_SECONDS} s window; "
                f"no caches written")
    jobs = [(ds, cache_file(out_dir, ds.subset_name, ds.partition),
             cache_parts(ds)) for ds in ordered]  # no file written yet
    make_out_dir(out_dir)
    run_in_threads(lambda k: save_cache(*jobs[k]), len(jobs))
    write_text(out_dir / STATS_FILE, stats_csv(ordered))
    return [path for _, path, _ in jobs]


def run_ingest(manifest_path, out_dir, settings: Settings) -> list[Path]:
    """Decode every manifest record, build all subsets, write the caches.

    Any per-record failure aborts the run with the record id in the
    message; nothing is skipped silently.
    """
    sources, root = load_manifest(manifest_path)
    if not sources:
        raise DataError(f"manifest {manifest_path} lists no record; no "
                        f"caches written")
    records = []
    for source in sources:
        try:
            records.append(load_record(source, root, settings.beat_codes))
        except DataError as exc:
            raise DataError(f"record {source.record_id!r}: {exc}") from exc
    datasets = build_subsets(records, settings.train_fraction, settings.seed,
                             settings.max_record_seconds)
    return _write_caches(datasets, Path(out_dir))


def build_synthetic_caches(out_dir, settings: Settings, n_subjects: int = 4,
                           duration: float = 12.5, fs: float = 250.0,
                           seed: int | None = None,
                           tags=("NormalSinus", "LongTerm")) -> list[Path]:
    """Synthetic stand-in for ingest: same cache layout, generated data.

    ``seed``, when given, replaces ``settings.seed``.
    """
    if seed is not None:
        settings = replace(settings, seed=seed)
    records = make_synthetic_records(n_subjects, duration, fs, settings.seed,
                                     tags)
    datasets = build_subsets(records, settings.train_fraction, settings.seed,
                             settings.max_record_seconds)
    return _write_caches(datasets, Path(out_dir))


def _file_hash(path: Path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def evaluate_dataset(logits: np.ndarray, dataset: LabeledDataset,
                     settings: Settings) -> EvalReport:
    """The bootstrap report of ``logits``, a network's (n, 2) scores of
    ``dataset``'s rows: their argmax against its labels."""
    if len(dataset) == 0:
        raise DataError(f"{dataset.subset_name} {dataset.partition} has "
                        f"no segments to evaluate")
    return build_report(logits.argmax(axis=1), dataset.y.astype(np.int64),
                        dataset.subset_name, dataset.partition,
                        settings.bootstrap_reps, settings.bootstrap_fraction,
                        settings.seed)


def _present_targets(cache_dir: Path) -> list[str]:
    """Non-source subsets with caches in ``cache_dir``.

    Ingest writes a subset's Train and Test caches together, so a subset
    with only one of them is a damaged directory, not an absent dataset:
    it raises DataError naming the missing file.
    """
    out = []
    for subset in SUBSET_NAMES:
        if subset == SOURCE_SUBSET:
            continue
        missing = [p for p in PARTITIONS
                   if not cache_file(cache_dir, subset, p).exists()]
        if len(missing) == 1:
            raise DataError(
                f"no cache for {subset} {missing[0]} at "
                f"{cache_file(cache_dir, subset, missing[0])}, but its "
                f"other partition's cache exists")
        if not missing:
            out.append(subset)
    return out


def run_experiment(experiment_id: int, cache_dir, out_dir,
                   settings: Settings, seed: int | None = None,
                   checkpoint=None) -> list[EvalReport]:
    """Run one experiment end to end; returns its reports.

    ``seed``, when given, replaces ``settings.seed``. ``checkpoint`` (the
    experiment-1 output) is required for experiments 2 and 3. It and
    every subset's caches are read and checked once, before the run
    creates ``out_dir``. Target subsets without caches are skipped so the
    protocol runs on whichever datasets are actually present; having none
    at all, or a target with only one of its two caches, is an error.
    Every experiment walks the same loop over its subsets and their
    partitions; they differ only in where a subset's parameters come
    from.
    """
    if experiment_id not in (1, 2, 3):
        raise UsageError(f"experiment id must be 1, 2 or 3, got "
                         f"{experiment_id}")
    cache_dir = Path(cache_dir)
    out_dir = Path(out_dir)
    if seed is not None:
        settings = replace(settings, seed=seed)
    net_config = settings.network_config()

    if experiment_id == 1:
        partitions = (TRAIN, TEST)
        targets = []
        checkpoints = []
        source = None
    else:
        if checkpoint is None:
            raise DataError(
                f"experiment {experiment_id} needs the experiment-1 "
                f"checkpoint (--checkpoint)")
        source, found = load_checkpoint(checkpoint)
        check_architecture(checkpoint, found, settings)
        checkpoints = [Path(checkpoint)]
        partitions = (TEST,) if experiment_id == 2 else (TRAIN, TEST)
        targets = _present_targets(cache_dir)
        if not targets:
            raise DataError(f"no target subset caches in {cache_dir}")

    # experiment 1 has no targets: it trains and scores the source itself
    subsets = targets or [SOURCE_SUBSET]
    datasets = {subset: [load_cache_checked(cache_dir, subset, p)
                         for p in partitions] for subset in subsets}
    caches = [cache_file(cache_dir, subset, p)
              for subset in subsets for p in partitions]
    make_out_dir(out_dir)  # inputs checked, nothing trained yet

    reports = []
    params = source  # experiment 2 evaluates the checkpoint as it is
    for subset, parts in datasets.items():
        logits = [None] * len(parts)
        if experiment_id != 2:
            params, history = train(parts[0], settings, init=source)
            logits[0] = history.logits  # Train, scored in training
            suffix = f"_{subset_slug(subset)}" if targets else ""
            checkpoints.append(write_trained(out_dir, params, history,
                                             settings, suffix))
        for ds, scores in zip(parts, logits):
            if scores is None:
                scores = nn.predict_logits(net_config, params, ds.X)
            reports.append(evaluate_dataset(scores, ds, settings))

    write_reports(out_dir, reports,
                  f"Experiment {experiment_id}: MCC with 90% CIs")
    write_snapshot(out_dir, settings)
    info = {
        "experiment": experiment_id,
        "seed": settings.seed,
        "source_subset": SOURCE_SUBSET,
        "target_subsets": targets,
        "caches": {p.name: _file_hash(p) for p in caches},
        "checkpoints": {p.name: _file_hash(p) for p in checkpoints},
    }
    write_text(out_dir / RUN_INFO,
               json.dumps(info, indent=2, sort_keys=True) + "\n")
    return reports


def consolidate_reports(run_dir) -> tuple[str, str]:
    """Merge every reports.json under ``run_dir`` into one summary.

    Returns (markdown, csv) and raises DataError when the scan
    comes up empty. Sections are ordered by directory name.
    """
    run_dir = Path(run_dir)
    found = sorted(run_dir.glob(f"**/{REPORTS_JSON}"))
    if not found:
        raise DataError(f"no {REPORTS_JSON} anywhere under {run_dir}")

    md = ["# Beat detection results", ""]
    csv_lines = [f"source,{REPORT_CSV_HEADER}"]
    for path in found:
        reports = _read_run_file(path, reports_from_json)
        rel = path.parent.relative_to(run_dir)
        name = str(rel) if str(rel) != "." else run_dir.name
        md.append(f"## {name}")
        md.append("")
        info_path = path.parent / RUN_INFO
        if info_path.exists():
            md.append(_read_run_file(info_path, _run_info_line))
            md.append("")
        snap_path = path.parent / CONFIG_SNAPSHOT
        if snap_path.exists():
            md.append(_network_line(snap_path))
            md.append("")
        md.append("| subset | partition | segments | MCC [90% CI] | +p | "
                  "Se | F1 |")
        md.append("|---|---|---|---|---|---|---|")
        for r in reports:
            m = r.metrics
            md.append(
                f"| {r.subset_name} | {r.partition} | {r.n_segments} | "
                f"{m['mcc'].point:.3f} [{m['mcc'].ci_low:.3f}, "
                f"{m['mcc'].ci_high:.3f}] | {m['precision'].point:.3f} | "
                f"{m['sensitivity'].point:.3f} | {m['f1'].point:.3f} |")
        csv_lines.extend(f"{name},{row}" for row in
                         reports_to_csv(reports).splitlines()[1:])
        md.append("")
    return "\n".join(md) + "\n", "\n".join(csv_lines) + "\n"


def _read_run_file(path: Path, parse):
    """``parse`` applied to a run file's text; a file that cannot be read
    or parsed raises DataError naming it."""
    try:
        return parse(path.read_text())
    except (OSError, ValueError, DataError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _run_info_line(text: str) -> str:
    info = json.loads(text)
    if not isinstance(info, dict):
        raise DataError("not a JSON object")
    return (f"Experiment {info.get('experiment', '?')}, "
            f"seed {info.get('seed', '?')}.")


def _network_line(snapshot: Path) -> str:
    """The [network] values of a run's config snapshot, on one line."""
    try:
        settings = load_settings(snapshot)
    except UsageError as exc:
        raise DataError(f"cannot read {snapshot}: {exc}") from exc
    return ("Network: " + "; ".join(f"{key}={text}" for key, text in
                                    section_items(settings, "network")) + ".")


def write_summary(run_dir) -> tuple[Path, Path]:
    """Write summary.md and summary.csv into ``run_dir``."""
    md, csv_text = consolidate_reports(run_dir)
    run_dir = Path(run_dir)
    md_path = run_dir / "summary.md"
    csv_path = run_dir / "summary.csv"
    write_text(md_path, md)
    write_text(csv_path, csv_text)
    return md_path, csv_path
