"""Acceptance gate: one test per shipping criterion, one PASS line each.

Criteria 1-5 and 9 run on synthetic data and in-test oracles alone.
Criteria 6-8 need the public recordings: point BEATNET_DATA_ROOT at a
directory containing manifest.txt (see the README for the layout) to
enable 6 and 7, and additionally set BEATNET_RUN_FULL=1 for the
full-scale run of criterion 8.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from beatnet.cli import main
from beatnet.config import Settings
from beatnet.metrics import (
    bootstrap_metrics,
    confusion,
    mcc,
    mcc_from_labels,
    ConfusionCounts,
)
from beatnet.nn import predict_logits
from beatnet.records import load_manifest, load_record
from beatnet.segments import (
    TEST,
    TRAIN,
    build_labeled_dataset,
    split_subjects,
)
from beatnet.train import load_checkpoint, train
from beatnet.wfdb_io import WfdbHeader, SignalSpec, decode_signal, \
    encode_212, parse_annotations

from gradcheck import LAYER_CHECKS, gradcheck_full_network
from helpers import ann_word, end_marker, ref_pack_212, skip_block

DATA_ROOT = os.environ.get("BEATNET_DATA_ROOT")

needs_data = pytest.mark.skipif(
    not DATA_ROOT,
    reason="BEATNET_DATA_ROOT not set; recorded-data criteria skipped")
needs_full = pytest.mark.skipif(
    not (DATA_ROOT and os.environ.get("BEATNET_RUN_FULL")),
    reason="full-scale run needs BEATNET_DATA_ROOT and BEATNET_RUN_FULL=1")

FAST_INI = """\
[network]
conv_channels = 2,3,4,4
conv_kernels = 3,3,3,3
fc_sizes = 16,8,2

[train]
epochs = 2
batch_size = 32
"""


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def header_for(n_samples: int) -> WfdbHeader:
    spec = SignalSpec("x.dat", 212, 1.0, 0, "mV", "ch0")
    return WfdbHeader("x", 1, 250.0, n_samples, (spec,))


def test_criterion_1_gradients():
    started = time.monotonic()
    worst_by_layer = {}
    for name, check in sorted(LAYER_CHECKS.items()):
        rng = np.random.default_rng(hash(name) % 2**32)
        worst_by_layer[name] = max(check(rng) for _ in range(20))
    layers_ok = all(w < 1e-3 for w in worst_by_layer.values())

    full64 = gradcheck_full_network(seed=0, dtype=np.float64, eps=1e-5,
                                    n_coords=20)
    full32 = max(gradcheck_full_network(seed=s, dtype=np.float32, eps=5e-3,
                                        n_coords=20, mag_floor=5e-3)
                 for s in (0, 1))
    elapsed = time.monotonic() - started
    ok = (layers_ok and full64 < 1e-3 and full32 < 1e-2 and elapsed < 60)
    worst_layer = max(worst_by_layer.values())
    report(1, ok, f"layers worst {worst_layer:.2e} < 1e-3, full net "
                  f"{full64:.2e} < 1e-3 (64-bit) / {full32:.2e} < 1e-2 "
                  f"(32-bit), {elapsed:.1f}s < 60s")


def test_criterion_2_decoders():
    # 12-bit pair packing: bytes 01 00 02 -> +1, +2
    h = header_for(2)
    np.testing.assert_array_equal(
        decode_signal(bytes([0x01, 0x00, 0x02]), h, 0), [1.0, 2.0])
    # bytes FF 0F 00 -> 0xFFF = -1, then 0
    np.testing.assert_array_equal(
        decode_signal(bytes([0xFF, 0x0F, 0x00]), h, 0), [-1.0, 0.0])

    rng = np.random.default_rng(0)
    for n in (1, 2, 501):
        adc = rng.integers(-2048, 2048, n)
        encoded = encode_212(adc)
        assert encoded == ref_pack_212(adc.tolist())
        decoded = decode_signal(encoded, header_for(n), 0)
        round_trip_ok = np.array_equal(decoded, adc.astype(np.float64))
        assert round_trip_ok, f"length-{n} round trip not lossless"

    # annotation stream: deltas accumulate; SKIP adds a 4-byte interval
    ann = parse_annotations(ann_word(1, 18) + ann_word(5, 282)
                            + end_marker())
    assert ann.samples.tolist() == [18, 300]
    assert ann.codes.tolist() == [1, 5]
    ann = parse_annotations(skip_block(1296000) + ann_word(1, 4)
                            + end_marker())
    assert ann.samples.tolist() == [1296004]
    assert ann.codes.tolist() == [1]
    report(2, True, "byte-level worked examples exact, round trips lossless")


def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        pred = rng.integers(0, 2, n)
        true = rng.integers(0, 2, n)
        if pred.min() == pred.max() or true.min() == true.max():
            continue  # Pearson undefined for constant vectors
        pearson = np.corrcoef(pred, true)[0, 1]
        worst = max(worst, abs(mcc(confusion(pred, true)) - pearson))
    assert worst < 1e-9

    pred = rng.integers(0, 2, 200)
    true = rng.integers(0, 2, 200)
    tally = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    for p, t in zip(pred, true):
        tally["tp" if p and t else "tn" if not p and not t
              else "fp" if p else "fn"] += 1
    assert confusion(pred, true) == ConfusionCounts(**tally)

    boot_a = bootstrap_metrics(pred, true, seed=3)
    boot_b = bootstrap_metrics(pred, true, seed=3)
    boot_c = bootstrap_metrics(pred, true, seed=4)
    assert boot_a == boot_b
    assert boot_a != boot_c
    ordered = all(lo <= m <= hi for (m, lo, hi) in boot_a.values())
    assert ordered
    report(3, True, f"mcc==pearson worst |diff| {worst:.1e} < 1e-9, "
                    f"brute-force confusion, deterministic ordered bootstrap")


def test_criterion_4_determinism(tmp_path):
    started = time.monotonic()
    caches = tmp_path / "caches"
    assert main(["build-dataset", "--out", str(caches)]) == 0
    stats = (caches / "dataset_stats.csv").read_text().splitlines()[1:]
    total = sum(int(line.split(",")[3]) for line in stats)
    assert total == 200  # the protocol's synthetic determinism workload

    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["experiment", "--id", "1", "--caches", str(caches),
                     "--out", str(out)]) == 0
        outs.append(out)
    compared = ("checkpoint.hbdl", "reports.csv", "reports.json",
                "mcc_chart.svg", "run_info.json", "config.ini")
    identical = [(outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                 for f in compared]
    elapsed = time.monotonic() - started
    ok = all(identical) and elapsed < 60
    report(4, ok, f"two identical-seed runs on {total} segments, "
                  f"{sum(identical)}/{len(compared)} outputs bitwise equal, "
                  f"{elapsed:.1f}s < 60s")


def test_criterion_5_transfer_freeze(tmp_path):
    cfg = tmp_path / "fast.ini"
    cfg.write_text(FAST_INI)
    caches = tmp_path / "caches"
    assert main(["build-dataset", "--out", str(caches), "--subjects", "8",
                 "--tags", "NormalSinus,LongTerm,Arrhythmia"]) == 0
    base = tmp_path / "base"
    assert main(["train", "--caches", str(caches), "--out", str(base),
                 "--config", str(cfg)]) == 0
    tuned = tmp_path / "tuned"
    assert main(["transfer", "--caches", str(caches),
                 "--subset", "Arrhythmia",
                 "--checkpoint", str(base / "checkpoint.hbdl"),
                 "--out", str(tuned), "--config", str(cfg)]) == 0

    source, net = load_checkpoint(base / "checkpoint.hbdl")
    target, _ = load_checkpoint(tuned / "checkpoint.hbdl")
    conv_equal = [k for k in source if k.startswith("conv")
                  and source[k].tobytes() == target[k].tobytes()]
    conv_all = [k for k in source if k.startswith("conv")]
    fc_changed = [k for k in source if k.startswith("fc")
                  and source[k].tobytes() != target[k].tobytes()]
    ok = len(conv_equal) == len(conv_all) and len(fc_changed) > 0
    report(5, ok, f"{len(conv_equal)}/{len(conv_all)} conv tensors bitwise "
                  f"equal after transfer, {len(fc_changed)} FC tensors "
                  f"fine-tuned")


def _pooled_stats(stats_path: Path) -> dict[str, tuple[int, float]]:
    """subset -> (total segments, pooled %BEAT) across Train+Test."""
    totals: dict[str, list[float]] = {}
    for line in stats_path.read_text().splitlines()[1:]:
        subset, _, _, n, pct = line.split(",")
        acc = totals.setdefault(subset, [0, 0.0])
        acc[0] += int(n)
        acc[1] += int(n) * float(pct)
    return {s: (int(n), beat_weight / n if n else 0.0)
            for s, (n, beat_weight) in totals.items()}


@needs_data
def test_criterion_6_subset_shapes(tmp_path):
    manifest = Path(DATA_ROOT) / "manifest.txt"
    out = tmp_path / "caches"
    assert main(["ingest", "--manifest", str(manifest),
                 "--out", str(out)]) == 0
    pooled = _pooled_stats(out / "dataset_stats.csv")

    n_pool, pct_pool = pooled["NormalSinus+LongTerm"]
    _, pct_arr = pooled["Arrhythmia"]
    checks = [
        (abs(pct_pool - 7.6) <= 1.5,
         f"NormalSinus+LongTerm %BEAT {pct_pool:.2f} vs 7.6 +-1.5"),
        (abs(n_pool - 320_000) <= 0.15 * 320_000,
         f"NormalSinus+LongTerm segments {n_pool} vs 320000 +-15%"),
        (abs(pct_arr - 6.5) <= 1.5,
         f"Arrhythmia %BEAT {pct_arr:.2f} vs 6.5 +-1.5"),
    ]
    report(6, all(ok for ok, _ in checks),
           "; ".join(msg for _, msg in checks))


@needs_data
def test_criterion_7_desk_scale_training():
    started = time.monotonic()
    manifest = Path(DATA_ROOT) / "manifest.txt"
    sources, root = load_manifest(manifest)
    sources = [s for s in sources
               if s.dataset_tag in ("NormalSinus", "LongTerm")]
    subjects = {s.subject_id for s in sources}
    train_ids, test_ids = split_subjects(subjects, 2 / 3, seed=0)
    chosen_train = sorted(train_ids)[:4]
    chosen_test = sorted(test_ids)[:2]
    keep = set(chosen_train) | set(chosen_test)
    records = [load_record(s, root) for s in sources
               if s.subject_id in keep]

    train_ds = build_labeled_dataset(records, "NormalSinus+LongTerm", TRAIN,
                                     chosen_train, max_duration=900.0)
    test_ds = build_labeled_dataset(records, "NormalSinus+LongTerm", TEST,
                                    chosen_test, max_duration=900.0)
    settings = Settings()
    params, _ = train(train_ds, settings)
    preds = predict_logits(settings.network_config(), params,
                           test_ds.X).argmax(axis=1)
    test_mcc = mcc_from_labels(preds, test_ds.y.astype(np.int64))
    elapsed = time.monotonic() - started
    ok = test_mcc >= 0.60 and elapsed < 900
    report(7, ok, f"desk-scale Test MCC {test_mcc:.3f} >= 0.60 on "
                  f"{len(test_ds)} segments, {elapsed:.0f}s < 900s")


@needs_full
def test_criterion_8_full_scale(tmp_path):
    from beatnet.experiments import run_experiment

    manifest = Path(DATA_ROOT) / "manifest.txt"
    caches = tmp_path / "caches"
    assert main(["ingest", "--manifest", str(manifest),
                 "--out", str(caches)]) == 0
    settings = Settings()

    def by_key(reports, subset, partition):
        return next(r.metrics["mcc"].point for r in reports
                    if r.subset_name == subset and r.partition == partition)

    r1 = run_experiment(1, caches, tmp_path / "exp1", settings)
    source_mcc = by_key(r1, "NormalSinus+LongTerm", TEST)
    ckpt = tmp_path / "exp1" / "checkpoint.hbdl"
    r2 = run_experiment(2, caches, tmp_path / "exp2", settings,
                        checkpoint=ckpt)
    arr2 = by_key(r2, "Arrhythmia", TEST)
    r3 = run_experiment(3, caches, tmp_path / "exp3", settings,
                        checkpoint=ckpt)
    arr3 = by_key(r3, "Arrhythmia", TEST)

    checks = [
        (source_mcc >= 0.70, f"source Test MCC {source_mcc:.3f} >= 0.70"),
        (arr2 <= source_mcc - 0.05,
         f"unadapted Arrhythmia MCC {arr2:.3f} <= {source_mcc:.3f}-0.05"),
        (arr3 >= arr2 + 0.05,
         f"transferred Arrhythmia MCC {arr3:.3f} >= {arr2:.3f}+0.05"),
    ]
    report(8, all(ok for ok, _ in checks),
           "; ".join(msg for _, msg in checks))


def test_criterion_9_runs_without_wearable_exports(tmp_path):
    # the protocol must complete when only the public recordings exist:
    # target rows are then Arrhythmia only, with no wearable subsets
    caches = tmp_path / "caches"
    cfg = tmp_path / "fast.ini"
    cfg.write_text(FAST_INI)
    assert main(["build-dataset", "--out", str(caches), "--subjects", "6",
                 "--tags", "NormalSinus,LongTerm,Arrhythmia"]) == 0
    out1, out2, out3 = (tmp_path / f"exp{i}" for i in (1, 2, 3))
    assert main(["experiment", "--id", "1", "--caches", str(caches),
                 "--out", str(out1), "--config", str(cfg)]) == 0
    ckpt = str(out1 / "checkpoint.hbdl")
    assert main(["experiment", "--id", "2", "--caches", str(caches),
                 "--out", str(out2), "--checkpoint", ckpt,
                 "--config", str(cfg)]) == 0
    assert main(["experiment", "--id", "3", "--caches", str(caches),
                 "--out", str(out3), "--checkpoint", ckpt,
                 "--config", str(cfg)]) == 0
    subsets = set()
    for out in (out2, out3):
        info = json.loads((out / "run_info.json").read_text())
        subsets.update(info["target_subsets"])
    ok = subsets == {"Arrhythmia"}
    report(9, ok, f"all three experiments completed with targets {sorted(subsets)} "
                  f"and no wearable-device subsets present")
