"""Spans recorded around module attributes, and self-time arithmetic.

A :class:`Target` names a module attribute at the place where callers
look it up when they call it: ``nn.forward`` finds ``conv1d_forward`` in
``beatnet.nn``, while ``run_ingest`` finds ``load_record`` in
``beatnet.experiments``, which imported it by name. :class:`Recorder`
swaps each such attribute for a wrapper that appends a :class:`Span`
(name, start, end, parent, run id) to an in-memory list, plus work
counts read off the call's arguments and result, and later puts the
original objects back. Nothing inside the package is edited.

The program is single-threaded, so one stack of open spans gives every
span its parent.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# (args, kwargs, result) -> work counts of one call, such as bytes or FLOPs
Counter = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Target:
    module: str   # importable module holding the attribute, "beatnet.nn"
    attr: str     # attribute callers look up, "conv1d_forward"
    span: str     # span name reported, "nn.conv1d_forward"
    count: Counter | None = None


@dataclass
class Span:
    sid: int
    parent: int   # sid of the enclosing span, -1 at the top
    name: str
    start: float
    end: float
    run: int
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; wrappers are live only while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> Span:
        parent = self._open[-1] if self._open else -1
        span = Span(len(self.spans), parent, name, 0.0, 0.0, self.run)
        self.spans.append(span)
        self._open.append(span.sid)
        span.start = self.clock()
        return span

    def _exit(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one iteration."""
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def wrap(self, fn, name: str, count: Counter | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result
        return traced

    def install(self, targets) -> None:
        for t in targets:
            module = importlib.import_module(t.module)
            original = getattr(module, t.attr)
            self._saved.append((module, t.attr, original))
            setattr(module, t.attr, self.wrap(original, t.span, t.count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(children[s.sid], s.start, s.end)
            for s in spans]


def has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def tail_percentile(values, q: float = 0.9, beyond: int = 10) -> float | None:
    """The q-quantile (nearest rank) when at least ``beyond`` values lie
    above its rank, else None: a tail figure needs samples behind it."""
    n = len(values)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < beyond:
        return None
    return sorted(values)[rank - 1]


@dataclass
class Layer:
    """One span name's figures, over the runs they were recorded in."""

    calls: int                # per run
    self_s: float             # median over runs of the per-run self time
    total_self_s: float       # summed over all runs, the base of rates
    durations: list[float]    # every call, seconds
    counts: dict              # numeric counts summed over all runs

    @property
    def p50_ms(self) -> float:
        return 1e3 * statistics.median(self.durations) if self.durations else 0.0

    @property
    def p90_ms(self) -> float | None:
        tail = tail_percentile(self.durations)
        return None if tail is None else 1e3 * tail


def summarise(spans: list[Span], runs: list[int]) -> dict[str, Layer]:
    """Per-name calls, self time, durations and counts over the given
    run ids; names that never ran in them are absent."""
    wanted = set(runs)
    selfs = self_times(spans)
    per_run: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    durations: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, selfs):
        if s.run not in wanted:
            continue
        per_run[s.name][s.run] += own
        durations[s.name].append(s.duration)
        for key, value in (s.counts or {}).items():
            if isinstance(value, (int, float)):
                counts[s.name][key] += value
    return {name: Layer(calls=len(durations[name]) // len(wanted),
                        self_s=statistics.median(by_run.get(r, 0.0)
                                                 for r in wanted),
                        total_self_s=sum(by_run.values()),
                        durations=durations[name],
                        counts=dict(counts[name]))
            for name, by_run in per_run.items()}
