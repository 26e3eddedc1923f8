"""One benchmark run of one workload, in the process run.py starts.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

The run sets up several times (the median is ``setup_s``), then repeats
the workload's timed operation until ``--seconds`` have passed, checks
every iteration's outputs, and prints its figures: a readable table,
then one JSON line. Each workload is a closed loop with one caller, so
results are work per second at the input size fixed below.

Only the stage timers (``train()`` and ``evaluate_dataset``, a few calls
per iteration) are wrapped in an untraced run. With ``--trace 1`` every
other iteration also wraps the public functions of every module, and
the JSON line carries the per-layer figures of those iterations
instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import beatnet  # noqa: E402
from beatnet import experiments  # noqa: E402
from beatnet.config import Settings  # noqa: E402
from beatnet.synthetic import make_synthetic_records  # noqa: E402

import corpus  # noqa: E402
import machine  # noqa: E402
from spans import Recorder, Target, has_ancestor, summarise  # noqa: E402

WORK = HERE / "_work"
SETUP_REPEATS = 3

# Training settings shared by train_scratch and transfer_eval. Two epochs
# keep an iteration near 3 s; AdaDelta's step is raised from the
# package's 0.01 to 0.1 so two epochs already learn (Test MCC near 0.9
# on every seed) and a change that breaks learning shows in test_mcc.
EPOCHS = 2
LR = 0.1
# Below this the model did not learn; the runs' medians sit near 0.9.
MCC_FLOOR = 0.5

FS = 250.0  # build_synthetic_caches' default sampling rate
ALL_TAGS = ("NormalSinus", "LongTerm", "Arrhythmia", "BaselineFlexComp",
            "BaselineComfTech", "MovementComfTech")


def _rows(args, kwargs, result):
    return {"rows": args[2].shape[0]}


def _conv_flops(x, w) -> int:
    n, c_in, length = x.shape
    c_out, _, k = w.shape
    return 2 * n * length * c_out * c_in * k


def _decode_counts(args, kwargs, result):
    raw, header, channel = args[:3]
    name = header.signals[channel].file_name
    group = sum(1 for s in header.signals if s.file_name == name)
    return {"bytes": len(raw), "adc_values": header.n_samples * group}


def _window_counts(args, kwargs, result):
    windows = result[0].shape[0]
    return {"windows": windows,
            "windowed_samples": windows * 0.25 * args[0].fs}


def _history(args, kwargs, result):
    history = result[1]
    return {"segments": len(args[0]) * len(history),
            "epoch_seconds": tuple(history.seconds)}


NN_KERNELS = ("conv1d_forward", "conv1d_backward", "batchnorm1d_forward",
              "batchnorm1d_backward", "maxpool1d_forward",
              "maxpool1d_backward", "relu_forward", "relu_backward",
              "linear_forward", "linear_backward", "dropout_forward",
              "dropout_backward")
_KERNEL_COUNTS = {
    "conv1d_forward": lambda a, k, r: {"flops": _conv_flops(a[0], a[1])},
    # dw and dx are each one GEMM the size of the forward one
    "conv1d_backward": lambda a, k, r: {"flops": 2 * _conv_flops(a[0], a[1])},
}

# Always wrapped: the stage timers behind the end-to-end throughputs.
STAGE_TARGETS = (
    Target("beatnet.experiments", "train", "train.train", _history),
    Target("beatnet.train", "train", "train.train", _history),
    Target("beatnet.experiments", "evaluate_dataset",
           "experiments.evaluate_dataset",
           lambda a, k, r: {"segments": r.n_segments}),
)

# Wrapped in traced iterations, each at the module where its callers
# look it up (a name imported with ``from .x import f`` is looked up in
# the importing module).
TRACE_TARGETS = STAGE_TARGETS + (
    Target("beatnet.wfdb_io", "decode_signal", "wfdb_io.decode_signal",
           _decode_counts),
    Target("beatnet.wfdb_io", "parse_annotations",
           "wfdb_io.parse_annotations",
           lambda a, k, r: {"words": len(a[0]) // 2}),
    Target("beatnet.experiments", "load_record", "records.load_record"),
    Target("beatnet.segments", "segment_arrays", "segments.segment_arrays",
           _window_counts),
    Target("beatnet.experiments", "build_subsets", "segments.build_subsets"),
    Target("beatnet.experiments", "save_cache", "segments.save_cache",
           lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    Target("beatnet.experiments", "load_cache", "segments.load_cache",
           lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
) + tuple(
    Target("beatnet.nn", name, f"nn.{name}", _KERNEL_COUNTS.get(name))
    for name in NN_KERNELS
) + (
    Target("beatnet.nn", "forward", "nn.forward", _rows),
    Target("beatnet.train", "forward", "nn.forward", _rows),
    Target("beatnet.train", "backward", "nn.backward"),
    Target("beatnet.nn", "predict_logits", "nn.predict_logits"),
    Target("beatnet.train", "weighted_cross_entropy",
           "loss.weighted_cross_entropy"),
    Target("beatnet.train", "adadelta_step", "optim.adadelta_step"),
    Target("beatnet.experiments", "save_checkpoint", "train.save_checkpoint"),
    Target("beatnet.experiments", "load_checkpoint", "train.load_checkpoint"),
    Target("beatnet.train", "load_checkpoint", "train.load_checkpoint"),
    Target("beatnet.metrics", "bootstrap_metrics", "metrics.bootstrap_metrics"),
    Target("beatnet.experiments", "write_summary", "experiments.write_summary"),
    Target("beatnet.experiments", "render_mcc_chart", "chart.render_mcc_chart"),
)

# Span names whose calls, self time and median call time are reported;
# the second group also gets a p90 (0 when fewer than 100 calls).
TIMED = ("wfdb_io.decode_signal", "wfdb_io.parse_annotations",
         "records.load_record", "segments.segment_arrays",
         "segments.build_subsets", "segments.save_cache",
         "segments.load_cache", "nn.predict_logits", "train.train",
         "train.save_checkpoint", "train.load_checkpoint",
         "metrics.bootstrap_metrics", "experiments.evaluate_dataset",
         "experiments.write_summary", "chart.render_mcc_chart")
TIMED_WITH_TAIL = tuple(f"nn.{k}" for k in NN_KERNELS) + (
    "nn.forward", "nn.backward", "loss.weighted_cross_entropy",
    "optim.adadelta_step")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TIMED + TIMED_WITH_TAIL:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.p50_ms"] = "ms"
        if name in TIMED_WITH_TAIL:
            units[f"{name}.p90_ms"] = "ms"
    units.update({
        "wfdb_io.decode_signal.mb_per_s": "MB/s",
        "wfdb_io.parse_annotations.words_per_s": "words/s",
        "wfdb_io.useful_sample_ratio": "1",
        "segments.segment_arrays.windows_per_s": "windows/s",
        "segments.save_cache.mb_per_s": "MB/s",
        "segments.load_cache.mb_per_s": "MB/s",
        "nn.conv.gflop_per_s": "GFLOP/s",
        "nn.trunk_rows_per_segment": "rows/segment",
        "train.epoch_p50_s": "s",
        "train.mcc_pass_share": "1",
        "experiments.evaluate_dataset.segments_per_s": "segments/s",
        "trace.overhead_pct": "%",
    })
    return units


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "segments_per_s": "segments/s",
    "test_mcc": "1",
    "peak_rss_mb": "MiB",
    "ok_ops_ratio": "1",
}


@dataclass
class Outcome:
    """One timed iteration: what it did, how long, and its checks."""

    wall_s: float
    mcc: float = 0.0
    digests: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)   # (operation, passed its checks)
    stage_s: float = 0.0
    stage_items: int = 0
    eval_s: float = 0.0
    eval_items: int = 0


def _mcc(pred: np.ndarray, true: np.ndarray) -> float:
    tp = float(np.sum((pred == 1) & (true == 1)))
    tn = float(np.sum((pred == 0) & (true == 0)))
    fp = float(np.sum((pred == 1) & (true == 0)))
    fn = float(np.sum((pred == 0) & (true == 1)))
    den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return (tp * tn - fp * fn) / den if den else 0.0


def _reports_ok(reports) -> bool:
    return all(np.isfinite([m.point for m in r.metrics.values()]).all()
               and r.n_segments > 0 for r in reports)


def check_caches(cache_dir: Path, truth: dict) -> tuple[dict[str, bool], float]:
    """Every record's windows and labels in the caches against ``truth``
    (record id -> expected labels, one per window). Returns a verdict
    per record, and the MCC of the Test-partition labels against the
    truth, which is 1 when they all agree."""
    seen = {}
    test_pred, test_true = [], []
    for path in sorted(cache_dir.glob("*.hbds")):
        ds = beatnet.load_cache(path)
        for k, (rec_id, _) in enumerate(ds.record_table):
            rows = ds.record_index == k
            seen[rec_id] = (ds.window_index[rows], ds.y[rows])
            if ds.partition == "Test" and rec_id in truth:
                test_pred.append(ds.y[rows])
                test_true.append(truth[rec_id][:int(rows.sum())])
    verdicts = {}
    for rec_id, labels in truth.items():
        windows, got = seen.get(rec_id, (np.empty(0), np.empty(0)))
        verdicts[rec_id] = (np.array_equal(windows, np.arange(labels.size))
                            and np.array_equal(got, labels))
    mcc = _mcc(np.concatenate(test_pred), np.concatenate(test_true)) \
        if test_pred else 0.0
    return verdicts, mcc


class IngestMitbih:
    """WFDB decode, windowing and cache writing; no network at all.

    Eight generated records shaped like MIT-BIH, NSRDB and LTDB (about
    1 h each, one past the 3600 s cap) go through ``run_ingest`` from a
    manifest. ``segment_arrays``, ``save_cache`` and the ``wfdb_io``
    decoders do all the work, and ``nn`` does none.
    """

    name = "ingest_mitbih"
    stage_metric = "ingest_windows_per_s"
    stage_span = None  # the whole run_ingest call is the stage
    eval_metric = None
    unique_segments = 0

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.settings = Settings(seed=seed)
        self.setup_dir = work / "setup"
        self.cache_dir = work / "out" / "caches"
        self.records: list[corpus.CorpusRecord] = []
        self.problems: list[str] = []
        self.verdicts: dict[str, bool] = {}
        self.label_mcc = 0.0

    def setup(self) -> None:
        self.records, self.problems = corpus.write_corpus(self.setup_dir,
                                                          self.seed)

    def check_setup(self) -> list[tuple[str, bool]]:
        return [(f"decode back: {p}", False) for p in self.problems] or [
            ("corpus decodes back to what was written", True)]

    def run_once(self) -> Outcome:
        start = clock()
        experiments.run_ingest(self.setup_dir / "manifest.txt",
                               self.cache_dir, self.settings)
        wall = clock() - start
        if not self.verdicts:  # later iterations must match it byte for byte
            self.verdicts, self.label_mcc = check_caches(self.cache_dir, {
                r.name: corpus.expected_labels(r.beat_samples, r.fs,
                                               r.n_windows)
                for r in self.records})
        return Outcome(
            wall_s=wall, mcc=self.label_mcc,
            digests=corpus.tree_digests(self.cache_dir),
            ops=[(f"ingest {name}", ok) for name, ok in self.verdicts.items()],
            stage_s=wall, stage_items=sum(r.n_windows for r in self.records))


class _SyntheticCaches:
    """Setup shared by the two training workloads: caches from
    ``build_synthetic_caches``, checked window by window against the
    beat times of the records the package generated for them."""

    n_subjects: int
    duration: float
    tags: tuple

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.settings = Settings(seed=seed, epochs=EPOCHS, lr=LR)
        self.setup_dir = work / "setup"
        self.cache_dir = self.setup_dir / "caches"
        self.out_dir = work / "out"

    def build_caches(self) -> None:
        experiments.build_synthetic_caches(
            self.cache_dir, self.settings, n_subjects=self.n_subjects,
            duration=self.duration, seed=self.seed, tags=self.tags)

    def check_setup(self) -> list[tuple[str, bool]]:
        n_windows = int(self.duration * 4)
        records = make_synthetic_records(self.n_subjects, self.duration,
                                         FS, self.seed, self.tags)
        verdicts, _ = check_caches(self.cache_dir, {
            r.record_id: corpus.expected_labels(r.beat_samples, r.fs, n_windows)
            for r in records})
        return [(f"cache windows of {name}", ok) for name, ok in verdicts.items()]


class TrainScratch(_SyntheticCaches):
    """Experiment 1: training from scratch, then both reports.

    ``nn`` forward and backward, ``loss``, ``optim`` and the ``train``
    loop do nearly all the work, and the ingest layers none: the caches
    come from ``build_synthetic_caches`` during setup.
    """

    name = "train_scratch"
    stage_metric = "train_segments_per_s"
    stage_span = "train.train"
    eval_metric = "eval_segments_per_s"
    # 12 subjects x 50 s x 4 windows: 1600 Train and 800 Test segments
    n_subjects, duration, tags = 12, 50.0, ("NormalSinus", "LongTerm")
    unique_segments = 2400

    def setup(self) -> None:
        self.build_caches()

    def run_once(self) -> Outcome:
        start = clock()
        reports = experiments.run_experiment(1, self.cache_dir, self.out_dir,
                                             self.settings, seed=self.seed)
        wall = clock() - start
        ckpt = self.out_dir / experiments.EXP1_CHECKPOINT
        params, _ = beatnet.load_checkpoint(ckpt)
        mcc = reports[1].metrics["mcc"].point
        learned = (mcc >= MCC_FLOOR and len(reports) == 2
                   and all(np.isfinite(p).all() for p in params.values()))
        return Outcome(
            wall_s=wall, mcc=mcc,
            digests={p.name: corpus.file_digest(p) for p in
                     (ckpt, self.out_dir / experiments.REPORTS_JSON)},
            ops=[("experiment 1", learned)]
            + [(f"report {r.partition}", _reports_ok([r])) for r in reports])


class TransferEval(_SyntheticCaches):
    """Experiments 2 and 3 on four target subsets, then the summary.

    The same ``nn`` code runs differently from training: eval-mode trunk
    only with no conv backward, 1024-row prediction batches and
    head-only AdaDelta. ``metrics`` bootstrap, checkpoint and report
    writes and cache reads take a real share of the time. The
    experiment-1 checkpoint is trained during setup.
    """

    name = "transfer_eval"
    stage_metric = "transfer_segments_per_s"
    stage_span = "train.train"
    eval_metric = "eval_segments_per_s"
    # 18 subjects cycle through the six tags: the source subset gets 6
    # (1600 Train, 800 Test segments), each of the four targets 3
    # (800 Train, 400 Test)
    n_subjects, duration, tags = 18, 100.0, ALL_TAGS
    unique_segments = 4 * 1200  # the four targets' segments

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.checkpoint = self.setup_dir / "exp1" / experiments.EXP1_CHECKPOINT

    def setup(self) -> None:
        self.build_caches()
        experiments.run_experiment(1, self.cache_dir, self.setup_dir / "exp1",
                                   self.settings, seed=self.seed)

    def run_once(self) -> Outcome:
        exp2, exp3 = self.out_dir / "exp2", self.out_dir / "exp3"
        start = clock()
        r2 = experiments.run_experiment(2, self.cache_dir, exp2, self.settings,
                                        seed=self.seed,
                                        checkpoint=self.checkpoint)
        r3 = experiments.run_experiment(3, self.cache_dir, exp3, self.settings,
                                        seed=self.seed,
                                        checkpoint=self.checkpoint)
        md_path, csv_path = experiments.write_summary(self.out_dir)
        wall = clock() - start

        source, _ = beatnet.load_checkpoint(self.checkpoint)
        heads = sorted(exp3.glob("checkpoint_*.hbdl"))
        frozen = len(heads) == 4
        for path in heads:
            params, _ = beatnet.load_checkpoint(path)
            frozen &= all(np.array_equal(params[k], source[k])
                          for k in source if k.startswith("conv"))
            frozen &= all(np.isfinite(p).all() for p in params.values())
        test = [r.metrics["mcc"].point for r in r3 if r.partition == "Test"]
        mcc = statistics.fmean(test)
        summary_rows = csv_path.read_text().count("\n") - 1
        files = [exp2 / experiments.REPORTS_JSON,
                 exp3 / experiments.REPORTS_JSON, md_path, csv_path] + heads
        return Outcome(
            wall_s=wall, mcc=mcc,
            digests={str(p.relative_to(self.out_dir)): corpus.file_digest(p)
                     for p in files},
            ops=[("experiment 2", len(r2) == 4),
                 ("experiment 3", frozen and mcc >= MCC_FLOOR)]
            + [(f"report {r.subset_name} {r.partition}", _reports_ok([r]))
               for r in r2 + r3]
            + [("summary", summary_rows == 4 * len(r2 + r3))])


WORKLOADS = {w.name: w for w in (IngestMitbih, TrainScratch, TransferEval)}


def _span_total(recorder: Recorder, run: int, name: str, key: str | None = None):
    """Summed duration (or count ``key``) of the named spans of one run."""
    picked = [s for s in recorder.spans if s.run == run and s.name == name]
    if key is None:
        return sum(s.duration for s in picked)
    return sum(s.counts[key] for s in picked)


def measure(workload, seconds: float, trace: bool, recorder: Recorder,
            expected: dict | None):
    """Repeat the timed operation for ``seconds``; with ``trace``,
    every other iteration runs with all trace targets installed.

    ``expected`` holds output digests from an earlier run of the same
    seed and code; without it the first iteration's digests are the
    reference. An iteration whose digests differ fails all its ops.
    """
    done: dict[bool, list[tuple[int, Outcome]]] = {False: [], True: []}
    deadline = clock() + seconds
    run = 0
    while True:
        traced = trace and run % 2 == 1
        recorder.run = run
        with recorder.installed(TRACE_TARGETS if traced else STAGE_TARGETS), \
                recorder.span("iteration"):
            outcome = workload.run_once()
        if workload.stage_span:
            outcome.stage_s = _span_total(recorder, run, workload.stage_span)
            outcome.stage_items = _span_total(recorder, run,
                                              workload.stage_span, "segments")
        if workload.eval_metric:
            outcome.eval_s = _span_total(recorder, run,
                                         "experiments.evaluate_dataset")
            outcome.eval_items = _span_total(
                recorder, run, "experiments.evaluate_dataset", "segments")
        if expected is None:
            expected = outcome.digests
        if outcome.digests != expected:
            outcome.ops = [(op, False) for op, _ in outcome.ops]
        done[traced].append((run, outcome))
        run += 1
        if clock() >= deadline and done[False] and (done[True] or not trace):
            return done, expected


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(setup_times, untraced, ops) -> dict[str, float]:
    outcomes = [o for _, o in untraced]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": _median(o.wall_s for o in outcomes),
        "segments_per_s": _median(o.stage_items / o.stage_s for o in outcomes),
        "test_mcc": _median(o.mcc for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ops_ratio": sum(ok for _, ok in ops) / len(ops),
    }


def per_layer(recorder: Recorder, workload, untraced, traced) -> dict[str, float]:
    runs = [run for run, _ in traced]
    layers = summarise(recorder.spans, runs)
    out = {}
    for name in per_layer_units():
        layer_name, _, stat = name.rpartition(".")
        layer = layers.get(layer_name)
        if layer is None or stat not in ("calls", "self_s", "p50_ms", "p90_ms"):
            continue
        value = getattr(layer, stat)
        out[name] = 0.0 if value is None else value

    def rate(layer_name: str, key: str, scale: float = 1.0) -> float:
        """Count per second of time inside the named spans."""
        layer = layers.get(layer_name)
        if layer is None:
            return 0.0
        return layer.counts.get(key, 0.0) * scale / sum(layer.durations)

    decode = layers.get("wfdb_io.decode_signal")
    windowing = layers.get("segments.segment_arrays")
    conv = [layers[n] for n in ("nn.conv1d_forward", "nn.conv1d_backward")
            if n in layers]
    conv_s = sum(layer.total_self_s for layer in conv)
    train = [s for s in recorder.spans
             if s.run in runs and s.name == "train.train"]
    train_s = sum(s.duration for s in train)
    mcc_pass_s = sum(s.duration for s in recorder.spans
                     if s.run in runs and s.name == "nn.predict_logits"
                     and has_ancestor(recorder.spans, s, "train.train"))
    epochs = [t for s in train for t in s.counts["epoch_seconds"]]
    forward = layers.get("nn.forward")
    wall_untraced = _median(o.wall_s for _, o in untraced)
    wall_traced = _median(o.wall_s for _, o in traced)
    out.update({
        "wfdb_io.decode_signal.mb_per_s":
            rate("wfdb_io.decode_signal", "bytes", 1e-6),
        "wfdb_io.parse_annotations.words_per_s":
            rate("wfdb_io.parse_annotations", "words"),
        "wfdb_io.useful_sample_ratio":
            (windowing.counts["windowed_samples"] / decode.counts["adc_values"]
             if decode and windowing else 0.0),
        "segments.segment_arrays.windows_per_s":
            rate("segments.segment_arrays", "windows"),
        "segments.save_cache.mb_per_s": rate("segments.save_cache", "bytes", 1e-6),
        "segments.load_cache.mb_per_s": rate("segments.load_cache", "bytes", 1e-6),
        "nn.conv.gflop_per_s":
            (sum(layer.counts["flops"] for layer in conv) * 1e-9 / conv_s
             if conv_s else 0.0),
        "nn.trunk_rows_per_segment":
            (forward.counts["rows"] / len(runs) / workload.unique_segments
             if forward and workload.unique_segments else 0.0),
        "train.epoch_p50_s": _median(epochs),
        "train.mcc_pass_share": mcc_pass_s / train_s if train_s else 0.0,
        "experiments.evaluate_dataset.segments_per_s":
            rate("experiments.evaluate_dataset", "segments"),
        "trace.overhead_pct": 100.0 * (wall_traced / wall_untraced - 1.0),
    })
    return {name: out.get(name, 0.0) for name in per_layer_units()}


def _load_digests(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--blas-threads", type=int, required=True)
    args = parser.parse_args(argv)

    if Path(beatnet.__file__).resolve().parent != ROOT / "src" / "beatnet":
        print(f"beatnet imported from {beatnet.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload = WORKLOADS[args.workload](work, args.seed)
    env = machine.describe(ROOT, args.blas_threads)
    key = (f"{args.workload}|seed={args.seed}|src={env['source_digest']}"
           f"|bench={env['benchmark_digest']}")
    digest_file = WORK / "digests.json"
    stored = _load_digests(digest_file)

    recorder = Recorder()
    ops: list[tuple[str, bool]] = []
    done: dict[bool, list] = {False: [], True: []}
    setup_times, setup_digests, expected = [], [], None
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workload.setup_dir, ignore_errors=True)
            start = clock()
            workload.setup()
            setup_times.append(clock() - start)
            setup_digests.append(corpus.tree_digests(workload.setup_dir))
        ops.append(("setup repeats byte-identical",
                    all(d == setup_digests[0] for d in setup_digests)))
        ops += workload.check_setup()
        earlier = stored.get(key, {})
        ops.append(("setup matches earlier runs of this seed",
                    earlier.get("setup", setup_digests[0]) == setup_digests[0]))
        if all(ok for _, ok in ops):  # time nothing on wrong inputs
            done, expected = measure(workload, args.seconds, bool(args.trace),
                                     recorder, earlier.get("outputs"))
    except Exception:  # a package failure fails the run, with its traceback
        traceback.print_exc()
        ops.append((f"{args.workload} run raised", False))
    for _, outcome in done[False] + done[True]:
        ops.extend(outcome.ops)
    problems = [op for op, ok in ops if not ok]
    correct = not problems and bool(done[False])

    if correct and key not in stored:
        stored[key] = {"setup": setup_digests[0], "outputs": expected}
        digest_file.parent.mkdir(parents=True, exist_ok=True)
        digest_file.write_text(json.dumps(stored, indent=1, sort_keys=True))

    metrics, units = {}, {}
    if correct and args.trace:
        metrics = per_layer(recorder, workload, done[False], done[True])
        units = per_layer_units()
    elif correct:
        metrics = end_to_end(setup_times, done[False], ops)
        units = END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(not ok for _, ok in ops),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, environment=env,
                  digests={"setup": setup_digests[0] if setup_digests else None,
                           "outputs": expected},
                  problems=problems,
                  iterations=[{"run": run, "traced": traced, "wall_s": o.wall_s,
                               "stage_s": o.stage_s, "stage_items": o.stage_items,
                               "eval_s": o.eval_s, "eval_items": o.eval_items,
                               "mcc": o.mcc}
                              for traced in (False, True)
                              for run, o in done[traced]])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    (WORK / "spans" / f"{stem}.json").write_text(json.dumps(
        [[s.sid, s.parent, s.name, s.start, s.end, s.run]
         for s in recorder.spans]))

    _print_table(args, workload, env, done, metrics, ops, problems)
    print(json.dumps(result))
    return 0 if correct else 1


def _print_table(args, workload, env, done, metrics, ops, problems) -> None:
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} iterations={len(done[False])}"
          f"+{len(done[True])} traced")
    print(f"# machine: {env['nproc']} cpu {env['cpu_model']} caches "
          f"{env['caches']} python {env['python']} numpy {env['numpy']} "
          f"blas {env['blas']['name']} {env['blas']['version']} threads "
          f"{env['blas_threads_requested']} (in effect "
          f"{env['blas_threads_in_effect']}) commit {env['git_commit']} "
          f"source {env['source_digest']}")
    for problem in problems:
        print(f"# FAILED: {problem}")
    if not metrics:
        return
    if args.trace:
        for name, value in metrics.items():
            print(f"{name:48s} {value:14.6g} {per_layer_units()[name]}")
        return
    outcomes = [o for _, o in done[False]]
    failed = sum(not ok for _, ok in ops)
    rows = [("setup_s", metrics["setup_s"], "s"),
            ("wall_s", metrics["wall_s"], "s"),
            (workload.stage_metric, metrics["segments_per_s"],
             "windows/s" if workload.eval_metric is None else "segments/s")]
    if workload.eval_metric:
        rows.append((workload.eval_metric,
                     _median(o.eval_items / o.eval_s for o in outcomes),
                     "segments/s"))
    rows += [("test_mcc", metrics["test_mcc"], "1"),
             ("peak_rss_mb", metrics["peak_rss_mb"], "MiB"),
             ("failed_ops_ratio", failed / len(ops), f"1 ({failed}/{len(ops)})")]
    for name, value, unit in rows:
        print(f"{name:28s} {value:14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
