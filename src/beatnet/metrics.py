"""Classification metrics and bootstrap confidence intervals.

BEAT (label 1) is the positive class throughout. MCC is computed with
exact integer products before the final square root, so it never drifts
from the Pearson correlation of the two binary vectors. Confidence
intervals are percentile bootstrap: each of the (default 100)
repetitions resamples 25% of the segments with replacement, and the
interval is the empirical 5th/95th percentile of the repetition values,
with linear interpolation between order statistics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

METRIC_NAMES = ("mcc", "precision", "sensitivity", "f1")

BOOTSTRAP_REPS = 100
BOOTSTRAP_FRACTION = 0.25


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion tallies with BEAT as the positive class."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise DataError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(predicted: np.ndarray, true: np.ndarray) -> ConfusionCounts:
    """Tally a batch of 0/1 predictions against 0/1 truth."""
    predicted = np.asarray(predicted)
    true = np.asarray(true)
    if predicted.shape != true.shape or predicted.ndim != 1:
        raise DataError(f"predictions {predicted.shape} vs labels "
                        f"{true.shape}")
    if predicted.size == 0:
        raise DataError("cannot tally zero predictions")
    p = predicted.astype(bool)
    t = true.astype(bool)
    return ConfusionCounts(tp=int(np.count_nonzero(p & t)),
                           tn=int(np.count_nonzero(~p & ~t)),
                           fp=int(np.count_nonzero(p & ~t)),
                           fn=int(np.count_nonzero(~p & t)))


def mcc(counts: ConfusionCounts) -> float:
    """Matthews correlation coefficient, 0.0 when any marginal is empty.

    The numerator and the product under the root are exact integers, so
    the only rounding is the final square root and division.
    """
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def precision_sensitivity_f1(counts: ConfusionCounts,
                             ) -> tuple[float, float, float]:
    """(+p, Se, F1); each is 0.0 when its denominator vanishes."""
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    sensitivity = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * sensitivity / (precision + sensitivity)
          if precision + sensitivity else 0.0)
    return precision, sensitivity, f1


def all_metrics(counts: ConfusionCounts) -> dict[str, float]:
    p, se, f1 = precision_sensitivity_f1(counts)
    return {"mcc": mcc(counts), "precision": p, "sensitivity": se, "f1": f1}


def mcc_from_labels(predicted: np.ndarray, true: np.ndarray) -> float:
    return mcc(confusion(predicted, true))


def _resample_size(n: int, fraction: float) -> int:
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"resample fraction must be in (0, 1], got "
                        f"{fraction}")
    m = int(math.floor(fraction * n + 0.5))
    if m < 1:
        raise DataError(f"resampling {fraction:.0%} of {n} samples draws "
                        f"nothing")
    return m


def bootstrap_metrics(predicted: np.ndarray, true: np.ndarray,
                      n_rep: int = BOOTSTRAP_REPS,
                      fraction: float = BOOTSTRAP_FRACTION,
                      seed: int = 0) -> dict[str, tuple[float, float, float]]:
    """Bootstrap (mean, ci_low, ci_high) for every metric at once.

    Repetition r draws round(fraction * n) indices with replacement from
    its own generator seeded with (seed, r), so repetitions are
    order-independent and the whole procedure is seed-deterministic. All
    metrics share each repetition's resample.
    """
    predicted = np.asarray(predicted)
    true = np.asarray(true)
    if predicted.size == 0:
        raise DataError("cannot bootstrap zero samples")
    if n_rep < 2:
        raise DataError(f"need at least 2 repetitions, got {n_rep}")
    n = predicted.size
    m = _resample_size(n, fraction)
    vals = {name: np.empty(n_rep, dtype=np.float64) for name in METRIC_NAMES}
    for rep in range(n_rep):
        rng = np.random.default_rng((seed, rep))
        idx = rng.integers(0, n, size=m)
        for name, v in all_metrics(confusion(predicted[idx],
                                             true[idx])).items():
            vals[name][rep] = v
    out = {}
    for name in METRIC_NAMES:
        lo, hi = np.percentile(vals[name], [5.0, 95.0])
        out[name] = (float(vals[name].mean()), float(lo), float(hi))
    return out


@dataclass(frozen=True)
class MetricCI:
    """Point value of a metric plus its bootstrap mean and 90% interval."""

    point: float
    boot_mean: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class EvalReport:
    """All four metrics for one subset partition."""

    subset_name: str
    partition: str
    n_segments: int
    metrics: dict  # name -> MetricCI, keys = METRIC_NAMES


def build_report(predicted: np.ndarray, true: np.ndarray, subset_name: str,
                 partition: str, n_rep: int = BOOTSTRAP_REPS,
                 fraction: float = BOOTSTRAP_FRACTION,
                 seed: int = 0) -> EvalReport:
    """Point metrics on the full data plus bootstrap summaries."""
    point = all_metrics(confusion(predicted, true))
    boot = bootstrap_metrics(predicted, true, n_rep, fraction, seed)
    metrics = {name: MetricCI(point[name], *boot[name])
               for name in METRIC_NAMES}
    return EvalReport(subset_name, partition, int(np.asarray(true).size),
                      metrics)


REPORT_CSV_HEADER = ("subset,partition,n_segments,metric,point,boot_mean,"
                     "ci_low,ci_high")


def reports_to_csv(reports) -> str:
    """One CSV row per (report, metric), in report order."""
    lines = [REPORT_CSV_HEADER]
    for r in reports:
        for name in METRIC_NAMES:
            m = r.metrics[name]
            lines.append(f"{r.subset_name},{r.partition},{r.n_segments},"
                        f"{name},{m.point:.6f},{m.boot_mean:.6f},"
                        f"{m.ci_low:.6f},{m.ci_high:.6f}")
    return "\n".join(lines) + "\n"


def reports_to_json(reports) -> str:
    """Full-precision JSON rendering of the same reports."""
    payload = []
    for r in reports:
        payload.append({
            "subset": r.subset_name,
            "partition": r.partition,
            "n_segments": r.n_segments,
            "metrics": {name: {"point": m.point, "boot_mean": m.boot_mean,
                               "ci_low": m.ci_low, "ci_high": m.ci_high}
                        for name, m in r.metrics.items()},
        })
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reports_from_json(text: str) -> list[EvalReport]:
    """Read :func:`reports_to_json` output back.

    Anything else (text that is not JSON, a missing key or metric, a
    metric value that is not a number) raises DataError.
    """
    try:
        out = []
        for item in json.loads(text):
            metrics = {name: MetricCI(float(v["point"]),
                                      float(v["boot_mean"]),
                                      float(v["ci_low"]), float(v["ci_high"]))
                       for name, v in item["metrics"].items()}
            missing = [name for name in METRIC_NAMES if name not in metrics]
            if missing:
                raise DataError(f"a report lacks metrics {missing}")
            out.append(EvalReport(item["subset"], item["partition"],
                                  item["n_segments"], metrics))
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise DataError(f"not a list of reports: {exc!r}") from exc
    return out
