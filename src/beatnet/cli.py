"""Command-line interface.

Subcommands: ingest (decode a manifest of recordings into dataset
caches), build-dataset (synthetic caches for smoke runs), train,
transfer, evaluate (single-stage operations on caches/checkpoints),
experiment (the three-experiment protocol) and report (consolidate run
outputs). Exit codes: 0 success, 1 usage error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .chart import render_mcc_chart
from .config import Settings, load_settings, render_snapshot
from .container import write_text
from .errors import DataError, NumericError, UsageError
from .experiments import (
    build_synthetic_caches,
    evaluate_dataset,
    load_cache_checked,
    run_experiment,
    run_ingest,
    write_summary,
)
from .metrics import reports_to_csv, reports_to_json
from .records import DATASET_TAGS
from .segments import PARTITIONS, TRAIN, WINDOW_SECONDS
from .train import load_checkpoint, save_checkpoint, train, transfer


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code scheme."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="beatnet",
                     description="Heart beat detection in ECG windows "
                                 "with a small 1-D CNN")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI settings file")
        p.add_argument("--seed", type=int, help="override the [train] seed")

    p = sub.add_parser("ingest", help="decode manifest records into caches")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="cache output directory")
    add_common(p)

    p = sub.add_parser("build-dataset",
                       help="generate synthetic dataset caches")
    p.add_argument("--out", required=True, help="cache output directory")
    p.add_argument("--subjects", type=int, default=4)
    p.add_argument("--duration", type=float, default=12.5,
                   help="seconds per synthetic record")
    p.add_argument("--fs", type=float, default=250.0)
    p.add_argument("--tags", default="NormalSinus,LongTerm",
                   help="comma-separated dataset tags to cycle subjects "
                        "through")
    add_common(p)

    p = sub.add_parser("train", help="train from scratch on one cache")
    p.add_argument("--caches", required=True, help="cache directory")
    p.add_argument("--subset", default="NormalSinus+LongTerm")
    p.add_argument("--partition", default=TRAIN, choices=PARTITIONS)
    p.add_argument("--out", required=True)
    add_common(p)

    p = sub.add_parser("transfer",
                       help="fine-tune a checkpoint's FC head on one cache")
    p.add_argument("--caches", required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("--partition", default=TRAIN, choices=PARTITIONS)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    add_common(p)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on one cache")
    p.add_argument("--caches", required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("--partition", required=True, choices=PARTITIONS)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    add_common(p)

    p = sub.add_parser("experiment", help="run one of the three experiments")
    p.add_argument("--id", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--caches", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint",
                   help="experiment-1 checkpoint (experiments 2 and 3)")
    add_common(p)

    p = sub.add_parser("report", help="consolidate run reports")
    p.add_argument("--dir", required=True, help="directory to scan")
    return parser


def _settings(args) -> Settings:
    """The --config settings, with --seed in place of their seed."""
    settings = load_settings(args.config)
    if args.seed is not None:
        settings = replace(settings, seed=args.seed)
    return settings


def _cmd_ingest(args) -> None:
    written = run_ingest(args.manifest, args.out, _settings(args))
    print(f"wrote {len(written)} caches to {args.out}")


def _cmd_build_dataset(args) -> None:
    settings = _settings(args)
    tags = tuple(t.strip() for t in args.tags.split(",") if t.strip())
    if not tags:
        raise UsageError("--tags must name at least one dataset tag")
    unknown = [t for t in tags if t not in DATASET_TAGS]
    if unknown:
        raise UsageError(f"unknown tags {unknown}; choose from "
                         f"{DATASET_TAGS}")
    if args.subjects < 1:
        raise UsageError(f"--subjects must be >= 1, got {args.subjects}")
    if not WINDOW_SECONDS <= args.duration < math.inf:
        raise UsageError(f"--duration must be a finite number of seconds "
                         f">= {WINDOW_SECONDS}, got {args.duration}")
    if not 0 < args.fs < math.inf:
        raise UsageError(f"--fs must be a finite rate > 0, got {args.fs}")
    written = build_synthetic_caches(args.out, settings, args.subjects,
                                     args.duration, args.fs, tags=tags)
    print(f"wrote {len(written)} synthetic caches to {args.out}")


def _train_like(args, checkpoint_path=None) -> None:
    settings = _settings(args)
    dataset = load_cache_checked(Path(args.caches), args.subset,
                                  args.partition)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = settings.train_config()
    if checkpoint_path is None:
        params, history = train(dataset, config)
    else:
        params, history = transfer(checkpoint_path, dataset, config)
    save_checkpoint(params, config.network, out / "checkpoint.hbdl")
    write_text(out / "train_log.csv", history.to_csv())
    write_text(out / "config.ini", render_snapshot(settings))
    final = history.train_mcc[-1] if len(history) else float("nan")
    print(f"trained {config.epochs} epochs on {len(dataset)} segments "
          f"(final train MCC {final:.3f}); checkpoint in {out}")


def _cmd_evaluate(args) -> None:
    settings = _settings(args)
    dataset = load_cache_checked(Path(args.caches), args.subset,
                                  args.partition)
    params, net_config = load_checkpoint(args.checkpoint)
    report = evaluate_dataset(params, net_config, dataset, settings)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / "reports.csv", reports_to_csv([report]))
    write_text(out / "reports.json", reports_to_json([report]))
    write_text(out / "mcc_chart.svg", render_mcc_chart([report]))
    m = report.metrics["mcc"]
    print(f"{args.subset} {args.partition}: MCC {m.point:.3f} "
          f"[{m.ci_low:.3f}, {m.ci_high:.3f}] over {report.n_segments} "
          f"segments; reports in {out}")


def _cmd_experiment(args) -> None:
    reports = run_experiment(args.id, args.caches, args.out, _settings(args),
                             checkpoint=args.checkpoint)
    for r in reports:
        m = r.metrics["mcc"]
        print(f"{r.subset_name} {r.partition}: MCC {m.point:.3f} "
              f"[{m.ci_low:.3f}, {m.ci_high:.3f}] "
              f"({r.n_segments} segments)")
    print(f"experiment {args.id} outputs in {args.out}")


def _cmd_report(args) -> None:
    md_path, csv_path = write_summary(args.dir)
    print(f"wrote {md_path} and {csv_path}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "ingest":
            _cmd_ingest(args)
        elif args.command == "build-dataset":
            _cmd_build_dataset(args)
        elif args.command == "train":
            _train_like(args)
        elif args.command == "transfer":
            _train_like(args, checkpoint_path=args.checkpoint)
        elif args.command == "evaluate":
            _cmd_evaluate(args)
        elif args.command == "experiment":
            _cmd_experiment(args)
        elif args.command == "report":
            _cmd_report(args)
        return 0
    except UsageError as exc:
        print(f"beatnet: usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"beatnet: data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"beatnet: numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
