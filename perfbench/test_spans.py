"""Tests of the benchmark's own span recording and self-time arithmetic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

from spans import (
    Recorder,
    Span,
    Target,
    covered,
    self_times,
    summarise,
    tail_percentile,
)

HERE = Path(__file__).resolve().parent


class TickClock:
    """Each reading is one unit later than the one before."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


@pytest.fixture
def fake_module():
    """A module whose ``outer`` calls ``inner`` through the module, as the
    package's functions call each other."""
    mod = types.ModuleType("fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    def broken():
        mod.inner(0)
        raise ValueError("boom")

    mod.inner, mod.outer, mod.broken = inner, outer, broken
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


TARGETS = (Target("fake_layers", "outer", "layer.outer"),
           Target("fake_layers", "inner", "layer.inner",
                  lambda a, k, r: {"items": a[0]}),
           Target("fake_layers", "broken", "layer.broken"))


def test_nesting_parents_and_run_ids(fake_module):
    rec = Recorder(clock=TickClock())
    rec.run = 7
    with rec.installed(TARGETS), rec.span("iteration"):
        assert fake_module.outer(3) == 8
    names = [(s.name, s.parent, s.run) for s in rec.spans]
    assert names == [("iteration", -1, 7), ("layer.outer", 0, 7),
                     ("layer.inner", 1, 7), ("layer.inner", 1, 7)]
    assert rec.spans[2].counts == {"items": 3}
    # each span opens and closes on its own tick, children inside parents
    for s in rec.spans[1:]:
        parent = rec.spans[s.parent]
        assert parent.start < s.start < s.end < parent.end


def test_self_time_subtracts_children(fake_module):
    rec = Recorder(clock=TickClock())
    with rec.installed(TARGETS):
        fake_module.outer(0)
    # ticks: outer 1..6, inner 2..3 and 4..5
    assert [(s.start, s.end) for s in rec.spans] == [(1, 6), (2, 3), (4, 5)]
    assert self_times(rec.spans) == [3.0, 1.0, 1.0]


def test_uninstall_restores_originals(fake_module):
    before = (fake_module.outer, fake_module.inner, fake_module.broken)
    rec = Recorder()
    with rec.installed(TARGETS):
        assert fake_module.inner is not before[1]
        assert fake_module.inner.__wrapped__ is before[1]
    assert (fake_module.outer, fake_module.inner, fake_module.broken) == before
    fake_module.outer(1)
    assert rec.spans == []


def test_exception_closes_span_and_propagates(fake_module):
    rec = Recorder(clock=TickClock())
    with pytest.raises(ValueError), rec.installed(TARGETS):
        fake_module.broken()
    assert [(s.name, s.parent) for s in rec.spans] == [
        ("layer.broken", -1), ("layer.inner", 0)]
    assert all(s.end > s.start for s in rec.spans)
    assert fake_module.inner.__name__ == "inner"  # unwrapped again
    with rec.span("next"):
        pass
    assert rec.spans[-1].parent == -1  # the open-span stack was unwound


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(2, 4), (3, 6), (8, 12)], 0, 10) == 6
    assert covered([(5, 7), (1, 2)], 0, 10) == 3
    assert covered([(-5, 1), (9, 20)], 0, 10) == 2


def test_summarise_per_run_medians_and_rates():
    spans = [
        Span(0, -1, "a", 0.0, 10.0, run=1),
        Span(1, 0, "b", 1.0, 3.0, run=1, counts={"n": 4, "tag": (1, 2)}),
        Span(2, -1, "a", 20.0, 24.0, run=2),
        Span(3, 2, "b", 20.0, 21.0, run=2, counts={"n": 6}),
        Span(4, -1, "a", 50.0, 99.0, run=3),  # a run not asked for
    ]
    layers = summarise(spans, [1, 2])
    assert layers["a"].calls == 1
    assert layers["a"].self_s == pytest.approx((8.0 + 3.0) / 2)
    assert layers["a"].total_self_s == pytest.approx(11.0)
    assert layers["b"].counts == {"n": 10}
    assert layers["b"].durations == [2.0, 1.0]
    assert layers["b"].p50_ms == pytest.approx(1500.0)
    assert layers["b"].p90_ms is None


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(99))) is None
    assert tail_percentile(list(range(1, 101))) == 90
    assert tail_percentile([]) is None


def test_benchmark_json_lists_the_reported_metrics():
    import workloads

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == workloads.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
