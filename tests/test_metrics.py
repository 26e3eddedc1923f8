"""Metric formulas, bootstrap estimation and report serialization tests."""

import math

import numpy as np
import pytest

from beatnet.errors import DataError
from beatnet.metrics import (
    BOOTSTRAP_FRACTION,
    BOOTSTRAP_REPS,
    METRIC_NAMES,
    ConfusionCounts,
    all_metrics,
    bootstrap_metrics,
    build_report,
    confusion,
    mcc,
    mcc_from_labels,
    precision_sensitivity_f1,
    reports_from_json,
    reports_to_csv,
    reports_to_json,
)


# --- confusion counting ---


def test_confusion_matches_brute_force():
    rng = np.random.default_rng(0)
    pred = rng.integers(0, 2, 100)
    true = rng.integers(0, 2, 100)
    c = confusion(pred, true)
    tally = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    for p, t in zip(pred, true):
        key = ("t" if p == t else "f") + ("p" if p == 1 else "n")
        tally[key] += 1
    assert (c.tp, c.tn, c.fp, c.fn) == (
        tally["tp"], tally["tn"], tally["fp"], tally["fn"])
    assert c.total == 100


def test_confusion_perfect_and_inverted():
    y = np.array([0, 1, 1, 0, 1])
    c = confusion(y, y)
    assert (c.fp, c.fn) == (0, 0)
    assert (c.tp, c.tn) == (3, 2)
    c = confusion(1 - y, y)
    assert (c.tp, c.tn) == (0, 0)
    assert (c.fp, c.fn) == (2, 3)


def test_confusion_errors():
    with pytest.raises(DataError, match=r"predictions \(3,\) vs labels"):
        confusion(np.zeros(3, dtype=int), np.zeros(4, dtype=int))
    with pytest.raises(DataError, match="cannot tally zero predictions"):
        confusion(np.zeros(0, dtype=int), np.zeros(0, dtype=int))


# --- MCC ---


def test_mcc_worked_example():
    # (6*86 - 4*4) / sqrt(10*10*90*90) = 500/900
    value = mcc(ConfusionCounts(tp=6, tn=86, fp=4, fn=4))
    assert abs(value - 500.0 / 900.0) < 1e-12
    assert abs(value - 0.5556) < 1e-4


def test_mcc_perfect_and_inverted():
    assert mcc(ConfusionCounts(10, 90, 0, 0)) == 1.0
    assert mcc(ConfusionCounts(0, 0, 90, 10)) == -1.0


def test_mcc_degenerate_marginals_are_zero():
    assert mcc(ConfusionCounts(0, 100, 0, 0)) == 0.0   # no positives anywhere
    assert mcc(ConfusionCounts(0, 50, 0, 50)) == 0.0   # predictions one-class
    assert mcc(ConfusionCounts(50, 0, 50, 0)) == 0.0
    assert mcc(ConfusionCounts(0, 0, 0, 0)) == 0.0


def test_mcc_swap_symmetry_and_count_scaling():
    rng = np.random.default_rng(1)
    for _ in range(20):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 40, 4))
        a = mcc(ConfusionCounts(tp, tn, fp, fn))
        b = mcc(ConfusionCounts(tn, tp, fn, fp))
        assert abs(a - b) < 1e-12
        scaled = mcc(ConfusionCounts(5 * tp, 5 * tn, 5 * fp, 5 * fn))
        assert abs(a - scaled) < 1e-12
        assert -1.0 <= a <= 1.0


def test_mcc_equals_pearson_correlation():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(4, 40))
        pred = rng.integers(0, 2, n)
        true = rng.integers(0, 2, n)
        if len(set(pred.tolist())) < 2 or len(set(true.tolist())) < 2:
            continue  # Pearson undefined for constant vectors
        checked += 1
        r = np.corrcoef(pred, true)[0, 1]
        assert abs(mcc_from_labels(pred, true) - r) < 1e-9


def test_mcc_large_counts_no_overflow():
    # intermediate products exceed float32 and int32 ranges
    c = ConfusionCounts(tp=10**6, tn=10**8, fp=10**5, fn=10**5)
    v = mcc(c)
    assert 0.0 < v < 1.0
    num = c.tp * c.tn - c.fp * c.fn
    den = math.sqrt((c.tp + c.fp) * (c.tp + c.fn)
                    * (c.tn + c.fp) * (c.tn + c.fn))
    assert abs(v - num / den) < 1e-12


# --- precision / sensitivity / F1 ---


def test_psf_worked_example():
    p, se, f1 = precision_sensitivity_f1(ConfusionCounts(6, 86, 4, 4))
    assert (p, se, f1) == (0.6, 0.6, pytest.approx(0.6, abs=1e-12))


def test_psf_perfect():
    assert precision_sensitivity_f1(ConfusionCounts(5, 5, 0, 0)) == (1, 1, 1)


def test_psf_zero_conventions():
    assert precision_sensitivity_f1(ConfusionCounts(0, 10, 0, 0)) == (0, 0, 0)
    p, se, f1 = precision_sensitivity_f1(ConfusionCounts(0, 10, 3, 0))
    assert (p, se, f1) == (0.0, 0.0, 0.0)
    p, se, f1 = precision_sensitivity_f1(ConfusionCounts(0, 10, 0, 3))
    assert (p, se, f1) == (0.0, 0.0, 0.0)


def test_all_metrics_keys():
    out = all_metrics(ConfusionCounts(6, 86, 4, 4))
    assert tuple(out) == METRIC_NAMES
    assert out["precision"] == 0.6


def test_counts_validation():
    with pytest.raises(DataError, match="counts must be non-negative"):
        ConfusionCounts(-1, 0, 0, 0)


# --- bootstrap ---


def test_bootstrap_deterministic_and_shared_resamples():
    rng = np.random.default_rng(3)
    true = rng.integers(0, 2, 400)
    pred = np.where(rng.random(400) < 0.9, true, 1 - true)
    a = bootstrap_metrics(pred, true, seed=7)
    b = bootstrap_metrics(pred, true, seed=7)
    assert a == b
    c = bootstrap_metrics(pred, true, seed=8)
    assert a != c
    # repetition r resamples with its own generator seeded (seed, r)
    m = round(BOOTSTRAP_FRACTION * 400)
    reps = []
    for rep in range(BOOTSTRAP_REPS):
        idx = np.random.default_rng((7, rep)).integers(0, 400, size=m)
        reps.append(mcc_from_labels(pred[idx], true[idx]))
    assert a["mcc"][0] == pytest.approx(np.mean(reps), abs=1e-12)


def test_bootstrap_perfect_predictions_degenerate_ci():
    true = np.array([0, 1] * 100)
    out = bootstrap_metrics(true, true, seed=0)
    for name in METRIC_NAMES:
        mean, lo, hi = out[name]
        assert mean == lo == hi == 1.0


def test_bootstrap_ci_ordering_and_range():
    rng = np.random.default_rng(4)
    true = rng.integers(0, 2, 300)
    pred = np.where(rng.random(300) < 0.8, true, 1 - true)
    for seed in range(5):
        for name in METRIC_NAMES:
            mean, lo, hi = bootstrap_metrics(pred, true, seed=seed)[name]
            assert lo <= mean <= hi
            assert -1.0 <= lo and hi <= 1.0


def test_bootstrap_ci_covers_truth():
    # known-error-rate predictor: full-sample MCC must land inside the CI
    # in at least 85 of 100 trials (a 90% interval, loosely checked)
    rng = np.random.default_rng(5)
    hits = 0
    for trial in range(100):
        true = rng.integers(0, 2, 600)
        pred = np.where(rng.random(600) < 0.85, true, 1 - true)
        point = mcc_from_labels(pred, true)
        _, lo, hi = bootstrap_metrics(pred, true, seed=trial)["mcc"]
        hits += lo <= point <= hi
    assert hits >= 85


def test_bootstrap_resample_size_quarter():
    # 25% of 1000 -> each repetition resamples 250 segments; indirectly
    # visible through the spread: fraction 1.0 must give tighter CIs
    rng = np.random.default_rng(6)
    true = rng.integers(0, 2, 1000)
    pred = np.where(rng.random(1000) < 0.8, true, 1 - true)
    _, lo_q, hi_q = bootstrap_metrics(pred, true, fraction=0.25,
                                      seed=0)["mcc"]
    _, lo_f, hi_f = bootstrap_metrics(pred, true, fraction=1.0, seed=0)["mcc"]
    assert (hi_f - lo_f) < (hi_q - lo_q)


def test_bootstrap_errors():
    one = np.array([1])
    with pytest.raises(DataError, match="cannot bootstrap zero samples"):
        bootstrap_metrics(np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    with pytest.raises(DataError, match=r"resample fraction .*, got 0\.0"):
        bootstrap_metrics(one, one, fraction=0.0)
    with pytest.raises(DataError, match=r"resample fraction .*, got 1\.5"):
        bootstrap_metrics(one, one, fraction=1.5)


def test_bootstrap_tiny_input_still_resamples():
    # floor(0.25*2 + 0.5) = 1: resamples of a 2-element input are legal
    pred = np.array([1, 0])
    out = bootstrap_metrics(pred, pred, seed=0)
    assert set(out) == set(METRIC_NAMES)


# --- reports ---


def make_report(seed=0):
    rng = np.random.default_rng(seed)
    true = rng.integers(0, 2, 300)
    pred = np.where(rng.random(300) < 0.85, true, 1 - true)
    return build_report(pred, true, "Arrhythmia", "Test", seed=seed)


def test_build_report_fields():
    rep = make_report()
    assert rep.subset_name == "Arrhythmia"
    assert rep.partition == "Test"
    assert rep.n_segments == 300
    assert set(rep.metrics) == set(METRIC_NAMES)
    for ci in rep.metrics.values():
        assert ci.ci_low <= ci.boot_mean <= ci.ci_high
        assert -1.0 <= ci.point <= 1.0


def test_report_csv_shape():
    text = reports_to_csv([make_report(0), make_report(1)])
    lines = text.strip().split("\n")
    assert lines[0] == ("subset,partition,n_segments,metric,point,boot_mean,"
                        "ci_low,ci_high")
    assert len(lines) == 1 + 2 * len(METRIC_NAMES)
    cols = lines[1].split(",")
    assert cols[0] == "Arrhythmia"
    assert cols[3] == "mcc"
    for v in cols[4:]:
        float(v)


def test_report_json_round_trip():
    reports = [make_report(0), make_report(1)]
    text = reports_to_json(reports)
    back = reports_from_json(text)
    assert back == reports
    # serialization is deterministic
    assert reports_to_json(reports) == text
