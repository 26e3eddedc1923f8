"""Windowing, labeling, resampling, splitting and dataset cache tests."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from beatnet import segments
from beatnet.errors import DataError
from beatnet.records import EcgRecord
from beatnet.segments import (
    BEAT,
    NO_BEAT,
    SEGMENT_LENGTH,
    SUBSET_NAMES,
    TEST,
    TRAIN,
    LabeledDataset,
    build_labeled_dataset,
    build_subsets,
    class_stats,
    load_cache,
    run_in_threads,
    save_cache,
    segment_arrays,
    split_subjects,
    stats_csv,
    window_count,
)
from beatnet.synthetic import make_synthetic_records

from helpers import brute_force_labels, ref_segment_arrays


# --- window labeling ---


def label(t0, beats) -> list:
    return segments._label_windows(np.array(t0), np.array(beats)).tolist()


def test_label_window_hit_and_misses():
    assert label([10.0], [10.12]) == [BEAT]
    assert label([10.0], [10.05]) == [NO_BEAT]   # before the band
    assert label([10.0], [10.20]) == [NO_BEAT]   # after the band
    assert label([10.0], []) == [NO_BEAT]


def test_label_window_boundaries():
    assert label([10.0], [10.10]) == [BEAT]      # inclusive start
    assert label([10.0], [10.15]) == [NO_BEAT]   # exclusive end
    assert label([10.0], [10.1499]) == [BEAT]


def test_label_window_multiple_beats():
    assert label([10.0, 0.0], [0.5, 10.11, 10.14, 20.0]) == [BEAT, NO_BEAT]


# --- resampling ---


def resample(samples: np.ndarray, fs: float) -> np.ndarray:
    """One window of all of ``samples`` through the resampling kernel."""
    out = np.empty((1, SEGMENT_LENGTH), dtype=np.float32)
    segments._resample_windows(samples, np.zeros(1, dtype=np.intp),
                               samples.size, fs, out)
    return out[0]


def test_resample_constant():
    out = resample(np.full(7, 3.5), fs=25.0)
    np.testing.assert_array_equal(out, np.full(SEGMENT_LENGTH, 3.5, np.float32))


def test_resample_identity_at_1000hz():
    rng = np.random.default_rng(0)
    x = rng.normal(size=SEGMENT_LENGTH).astype(np.float32)
    np.testing.assert_allclose(resample(x, 1000.0), x, atol=1e-6)


def test_resample_two_point_ramp():
    # [0, 1] at 4 Hz spans 0.25 s; output k sits at k/1000 s -> k/250
    out = resample(np.array([0.0, 1.0]), fs=4.0)
    assert out[0] == 0.0
    np.testing.assert_allclose(out[-1], 0.996, atol=1e-6)
    np.testing.assert_allclose(out, np.arange(250) / 250.0, atol=1e-6)


def test_resample_reproduces_affine_signals():
    # linear interpolation is exact on a + b*t inside the sampled span
    rng = np.random.default_rng(1)
    for _ in range(10):
        fs = float(rng.uniform(90.0, 1100.0))
        n = int(np.ceil(0.25 * fs)) + 2
        a, b = rng.normal(size=2)
        t = np.arange(n) / fs
        out = resample(a + b * t, fs)
        expect = a + b * (np.arange(SEGMENT_LENGTH) / 1000.0)
        np.testing.assert_allclose(out, expect, atol=1e-5)


def test_resample_clamps_past_last_sample():
    # 2 samples at 8 Hz cover 0.125 s; later queries hold the last value
    out = resample(np.array([0.0, 1.0]), fs=8.0)
    assert out[-1] == 1.0
    assert out[126] == 1.0


def test_resample_too_short():
    with pytest.raises(DataError, match="need at least 2 samples"):
        resample(np.array([1.0]), fs=250.0)
    with pytest.raises(DataError, match="fs must be > 0, got 0.0"):
        resample(np.array([1.0, 2.0]), fs=0.0)


# --- window counting ---


def test_window_count_values():
    assert window_count(3600.0) == 14400
    assert window_count(300.0) == 1200
    assert window_count(12.5) == 50
    assert window_count(0.9) == 3
    assert window_count(0.75) == 3
    assert window_count(0.2) == 0


def test_window_count_clips_at_one_hour():
    assert window_count(7200.0) == 14400
    assert window_count(3600.25) == 14400


def test_window_count_awkward_durations():
    # 650000 samples at 360 Hz: 1805.55 s -> 7222 whole windows
    assert window_count(650000 / 360.0) == 7222


# --- segmentation ---


def synth_pair(seed=0, duration=12.5, fs=250.0):
    rec = make_synthetic_records(n_subjects=1, duration=duration, fs=fs,
                                 seed=seed)[0]
    return rec


def test_segment_arrays_shapes_and_labels_match_brute_force():
    for seed in range(5):
        rec = synth_pair(seed=seed)
        X, y = segment_arrays(rec)
        n = window_count(rec.duration)
        assert X.shape == (n, SEGMENT_LENGTH)
        assert X.dtype == np.float32
        assert np.all(np.isfinite(X))
        assert y.tolist() == brute_force_labels(n, rec.beat_times.tolist())


def test_segment_arrays_odd_sampling_rates():
    rng = np.random.default_rng(2)
    for fs in (101.3, 128.0, 360.0, 512.0):
        n = int(fs * 3.1)
        samples = rng.normal(size=n).astype(np.float32)
        beats = np.array([70, n // 2], dtype=np.int64)
        rec = EcgRecord("r", "s", "Arrhythmia", fs, samples, beats)
        X, y = segment_arrays(rec)
        assert len(y) == window_count(rec.duration)
        assert y.tolist() == brute_force_labels(len(y), rec.beat_times.tolist())


def test_segment_arrays_respects_max_duration():
    rec = synth_pair(duration=20.0)
    X, y = segment_arrays(rec, max_duration=5.0)
    assert len(y) == 20


def test_segment_first_window_content():
    # the first window's resample must come from the first span of samples
    rec = synth_pair(seed=3)
    X, _ = segment_arrays(rec)
    span = int(np.ceil(0.25 * rec.fs)) + 1
    expect = resample(rec.samples[:span], rec.fs)
    np.testing.assert_array_equal(X[0], expect)


def test_segment_record_objects():
    # a one-record dataset locates every window through its columns
    rec = synth_pair(seed=4)
    ds = build_labeled_dataset([rec], "NormalSinus+LongTerm", TRAIN,
                               {rec.subject_id})
    X, y = segment_arrays(rec)
    assert ds.record_table == ((rec.record_id, rec.subject_id),)
    assert all(ds.record_table[k][0] == rec.record_id
               for k in ds.record_index)
    # start time of window i is 0.25 * window_index[i]
    np.testing.assert_array_equal(ds.window_index, np.arange(len(y)))
    assert set(ds.y.tolist()) <= {BEAT, NO_BEAT}
    np.testing.assert_array_equal(ds.y, y)
    assert ds.X.tobytes() == X.tobytes()


def odd_record(fs: float, duration: float, seed: int) -> EcgRecord:
    """Noise with runs of -0.0 and +0.0 samples and random beats, plus
    beats on band edges wherever a sample falls exactly on one."""
    rng = np.random.default_rng(seed)
    n = round(duration * fs)
    samples = rng.normal(size=n).astype(np.float32)
    samples[rng.random(n) < 0.1] = -0.0
    samples[rng.random(n) < 0.05] = 0.0
    samples[n // 3:n // 3 + 40] = -0.0
    beats = {int(b) for b in rng.integers(0, n, n // 1000 + 1)}
    for t in (0.25 * 3 + 0.10, 0.25 * 5 + 0.15, 0.10, 0.15):
        k = round(t * fs)
        if k < n and k / fs == t:
            beats.add(k)
    return EcgRecord("r", "s", "Arrhythmia", fs, samples,
                     np.array(sorted(beats), dtype=np.int64))


@pytest.mark.parametrize("fs", [8.0, 101.3, 128.0, 250.0, 257.0, 360.0,
                                512.0, 1000.0])
def test_segment_arrays_bytes_match_per_window_oracle(fs):
    span = math.ceil(0.25 * fs) + 1
    clamped = []
    # whole windows, a few samples more or less, and more than one block
    for k, duration in enumerate((10.0, 10.0 + 2 / fs, 10.25 - 1 / fs,
                                  7.3, 300.3)):
        rec = odd_record(fs, duration, seed=k)
        for max_duration in (5.0, 3600.0):
            X, y = segment_arrays(rec, max_duration)
            X_ref, y_ref = ref_segment_arrays(rec, max_duration)
            assert X.shape == X_ref.shape and X.tobytes() == X_ref.tobytes()
            assert y.tobytes() == y_ref.tobytes()
        last = math.floor((len(y) - 1) * 0.25 * fs + 0.5)
        clamped.append(last + span > rec.samples.size)
    assert any(clamped)  # some last window ends at the record's end
    if fs in (360.0, 1000.0):  # beats on both band edges were compared
        t0 = np.arange(len(y)) * 0.25
        assert np.isin(t0 + 0.10, rec.beat_times).any()
        assert np.isin(t0 + 0.15, rec.beat_times).any()


def test_segment_arrays_bytes_match_oracle_past_the_cap():
    rec = odd_record(8.0, 3600.5, seed=9)
    for max_duration in (3600.0, 1000.25):
        X, y = segment_arrays(rec, max_duration)
        X_ref, y_ref = ref_segment_arrays(rec, max_duration)
        assert len(y) == 4 * min(max_duration, 3600.0)
        assert X.tobytes() == X_ref.tobytes()
        assert y.tobytes() == y_ref.tobytes()


def test_segment_arrays_memory_is_bounded():
    # one hour at 360 Hz: the output plus a few blocks of temporaries,
    # not whole-record float64 arrays
    fs = 360.0
    rng = np.random.default_rng(3)
    rec = EcgRecord("r", "s", "Arrhythmia", fs,
                    rng.normal(size=int(3600 * fs)).astype(np.float32),
                    np.arange(100, int(3600 * fs), 300, dtype=np.int64))
    tracemalloc.start()
    try:
        X, y = segment_arrays(rec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert X.shape == (14400, SEGMENT_LENGTH)
    assert peak < X.nbytes + y.nbytes + 12 * 2**20


def test_build_labeled_dataset_memory_is_bounded():
    # four hours at 360 Hz: the partition's columns plus one record's
    # windows from segment_arrays, not every record's windows twice
    fs = 360.0
    rng = np.random.default_rng(4)
    records = [EcgRecord(f"r{k}", f"s{k}", "Arrhythmia", fs,
                         rng.normal(size=int(3600 * fs)).astype(np.float32),
                         np.arange(100 + k, int(3600 * fs), 300,
                                   dtype=np.int64))
               for k in range(4)]
    tracemalloc.start()
    try:
        ds = build_labeled_dataset(records, "Arrhythmia", TRAIN,
                                   {r.subject_id for r in records})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.X.shape == (4 * 14400, SEGMENT_LENGTH)
    one_record = 14400 * (SEGMENT_LENGTH * 4 + 1)
    assert peak < ds.X.nbytes + ds.y.nbytes + one_record + 12 * 2**20


def test_segment_arrays_memory_is_bounded_on_four_threads(monkeypatch):
    # the threads split one block's temporaries, not one block each
    monkeypatch.setattr(segments, "WORKERS", 4)
    test_segment_arrays_memory_is_bounded()


def test_build_labeled_dataset_writes_windows_in_place():
    # four hours at 360 Hz: the partition's columns plus a few blocks of
    # temporaries; no record's windows are held a second time
    fs = 360.0
    rng = np.random.default_rng(5)
    records = [EcgRecord(f"r{k}", f"s{k}", "Arrhythmia", fs,
                         rng.normal(size=int(3600 * fs)).astype(np.float32),
                         np.arange(100 + k, int(3600 * fs), 300,
                                   dtype=np.int64))
               for k in range(4)]
    tracemalloc.start()
    try:
        ds = build_labeled_dataset(records, "Arrhythmia", TRAIN,
                                   {r.subject_id for r in records})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.X.shape == (4 * 14400, SEGMENT_LENGTH)
    assert peak < ds.X.nbytes + ds.y.nbytes + 12 * 2**20


def test_segment_arrays_writes_into_out():
    rec = odd_record(360.0, 300.0, seed=6)
    X, y = segment_arrays(rec)
    out = np.full((len(y) + 2, SEGMENT_LENGTH), -1.0, dtype=np.float32)
    X_out, y_out = segment_arrays(rec, out=out[1:-1])
    assert X_out.base is out
    assert out[1:-1].tobytes() == X.tobytes()
    assert (out[[0, -1]] == -1.0).all()
    assert y_out.tobytes() == y.tobytes()
    for bad in (out, out[1:-1].astype(np.float64)):
        with pytest.raises(DataError, match="expected float32"):
            segment_arrays(rec, out=bad)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_segment_arrays_bytes_do_not_depend_on_workers(monkeypatch, workers):
    # 2400 windows: three blocks, then a window that ends at the record's
    # end; 1025 windows: two blocks
    for rec in (odd_record(360.0, 600.0, seed=7),
                odd_record(128.0, 256.25, seed=8)):
        monkeypatch.setattr(segments, "WORKERS", 1)
        X, y = segment_arrays(rec)
        monkeypatch.setattr(segments, "WORKERS", workers)
        X_threads, y_threads = segment_arrays(rec)
        assert X_threads.tobytes() == X.tobytes()
        assert y_threads.tobytes() == y.tobytes()


def test_only_records_of_several_blocks_start_threads(monkeypatch):
    pools = []
    real = segments.ThreadPoolExecutor

    def counted(n):
        pools.append(n)
        return real(n)

    monkeypatch.setattr(segments, "ThreadPoolExecutor", counted)
    monkeypatch.setattr(segments, "WORKERS", 4)
    segment_arrays(odd_record(360.0, 256.0, seed=9))  # 1024 windows
    resample(np.arange(100.0), 360.0)
    assert pools == []
    segment_arrays(odd_record(360.0, 600.0, seed=9))  # 2400 windows
    assert pools == [3]  # the calling thread is the fourth


def test_run_in_threads_runs_each_task_once(monkeypatch):
    # more threads than cores, switching as often as the interpreter can
    monkeypatch.setattr(segments, "WORKERS", 8)
    done = []
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run_in_threads,
                                  args=(done.append, 5000))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert sorted(done) == list(range(5000))
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 4])
def test_run_in_threads_raises_a_failed_task(monkeypatch, workers):
    monkeypatch.setattr(segments, "WORKERS", workers)
    done = []
    before = threading.active_count()

    def task(k):
        if k == 3:
            raise DataError("task 3 failed")
        time.sleep(0.001)
        done.append(k)

    with pytest.raises(DataError, match="task 3 failed"):
        run_in_threads(task, 1000)
    assert 3 not in done and len(done) < 100  # the rest were not started
    assert threading.active_count() == before


def test_run_in_threads_keeps_the_callers_errstate(monkeypatch):
    # np.errstate is a context variable, which a new thread does not
    # inherit: each thread must still raise where the caller would
    monkeypatch.setattr(segments, "WORKERS", 4)
    barrier = threading.Barrier(4, timeout=30)
    raised = []

    def task(k):
        barrier.wait()  # one task on each of the four threads
        try:
            np.divide(np.ones(1), np.zeros(1))
        except FloatingPointError:
            raised.append(threading.get_ident())

    with np.errstate(divide="raise"):
        run_in_threads(task, 4)
    assert len(set(raised)) == 4


# --- subject splitting ---


def test_split_subjects_counts():
    train, test = split_subjects([f"s{i}" for i in range(18)])
    assert (len(train), len(test)) == (12, 6)
    train, test = split_subjects([f"s{i}" for i in range(25)])
    assert (len(train), len(test)) == (17, 8)
    train, test = split_subjects(["a", "b"])
    assert (len(train), len(test)) == (1, 1)


def test_split_subjects_disjoint_and_complete():
    ids = [f"p{i:02d}" for i in range(11)]
    train, test = split_subjects(ids, seed=5)
    assert train | test == set(ids)
    assert not train & test


def test_split_subjects_deterministic():
    ids = [f"p{i}" for i in range(9)]
    assert split_subjects(ids, seed=3) == split_subjects(ids, seed=3)
    # input order must not matter
    assert split_subjects(list(reversed(ids)), seed=3) == split_subjects(ids, seed=3)
    # some seed pair must differ, or the shuffle is not doing anything
    assert any(split_subjects(ids, seed=a) != split_subjects(ids, seed=b)
               for a, b in [(0, 1), (1, 2), (2, 3)])


def test_split_subjects_errors():
    with pytest.raises(DataError, match="need at least 2 subjects"):
        split_subjects(["only"])
    with pytest.raises(DataError):
        split_subjects(["a", "b"], train_fraction=1.0)
    with pytest.raises(DataError):
        split_subjects(["a", "b"], train_fraction=0.0)


# --- dataset assembly ---


def test_build_labeled_dataset_filters_by_subject():
    records = make_synthetic_records(n_subjects=4, seed=6)
    subjects = {records[0].subject_id, records[2].subject_id}
    ds = build_labeled_dataset(records, "Arrhythmia", TRAIN, subjects)
    assert ds.subject_ids == frozenset(subjects)
    assert {subj for _, subj in ds.record_table} == subjects
    per_rec = sum(window_count(r.duration) for r in records
                  if r.subject_id in subjects)
    assert len(ds) == per_rec


def test_build_labeled_dataset_empty_subject_set():
    records = make_synthetic_records(n_subjects=2, seed=7)
    ds = build_labeled_dataset(records, "Arrhythmia", TEST, set())
    assert len(ds) == 0
    assert class_stats(ds) == (0, 0, 0.0)


def test_build_subsets_merges_sinus_and_longterm():
    # alternating NormalSinus/LongTerm tags land in one pooled subset
    records = make_synthetic_records(n_subjects=4, seed=8)
    assert {r.dataset_tag for r in records} == {"NormalSinus", "LongTerm"}
    out = build_subsets(records, seed=0)
    assert set(out) == {("NormalSinus+LongTerm", TRAIN),
                        ("NormalSinus+LongTerm", TEST)}
    train = out[("NormalSinus+LongTerm", TRAIN)]
    test = out[("NormalSinus+LongTerm", TEST)]
    assert not train.subject_ids & test.subject_ids
    assert len(train.subject_ids) + len(test.subject_ids) == 4


def test_build_subsets_multiple_tags():
    recs = (make_synthetic_records(4, seed=9, tags=("Arrhythmia",))
            + make_synthetic_records(2, seed=10, tags=("BaselineFlexComp",)))
    # make subject ids unique across the two builders
    fixed = []
    for i, r in enumerate(recs):
        fixed.append(EcgRecord(f"r{i}", f"subj{i}", r.dataset_tag, r.fs,
                               r.samples, r.beat_samples))
    out = build_subsets(fixed, seed=1)
    assert set(out) == {("Arrhythmia", TRAIN), ("Arrhythmia", TEST),
                        ("BaselineFlexComp", TRAIN), ("BaselineFlexComp", TEST)}


def test_stats_csv_format():
    records = make_synthetic_records(n_subjects=2, seed=11)
    out = build_subsets(records)
    text = stats_csv([out[("NormalSinus+LongTerm", TRAIN)],
                      out[("NormalSinus+LongTerm", TEST)]])
    lines = text.strip().split("\n")
    assert lines[0] == "subset,partition,n_subjects,n_segments,percent_beat"
    assert len(lines) == 3
    cols = lines[1].split(",")
    assert cols[0] == "NormalSinus+LongTerm"
    assert cols[1] == TRAIN
    float(cols[4])  # percentage parses


def test_subset_names_closed_set():
    assert "NormalSinus+LongTerm" in SUBSET_NAMES
    assert len(SUBSET_NAMES) == 5


# --- cache round trip ---


def build_small_dataset(seed=12):
    records = make_synthetic_records(n_subjects=3, seed=seed)
    subjects = {r.subject_id for r in records}
    return build_labeled_dataset(records, "Arrhythmia", TRAIN, subjects)


def test_cache_round_trip_bitwise(tmp_path):
    ds = build_small_dataset()
    path = tmp_path / "ds.hbds"
    save_cache(ds, path)
    back = load_cache(path)
    assert back.subset_name == ds.subset_name
    assert back.partition == ds.partition
    assert back.subject_ids == ds.subject_ids
    assert back.record_table == ds.record_table
    assert back.X.tobytes() == ds.X.tobytes()
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.record_index, ds.record_index)
    np.testing.assert_array_equal(back.window_index, ds.window_index)


def test_cache_save_is_deterministic(tmp_path):
    ds = build_small_dataset()
    save_cache(ds, tmp_path / "a")
    save_cache(ds, tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_cache_empty_dataset_round_trip(tmp_path):
    records = make_synthetic_records(n_subjects=2, seed=13)
    ds = build_labeled_dataset(records, "Arrhythmia", TEST, set())
    save_cache(ds, tmp_path / "empty.hbds")
    back = load_cache(tmp_path / "empty.hbds")
    assert len(back) == 0


def test_cache_detects_damage(tmp_path):
    ds = build_small_dataset()
    path = tmp_path / "ds.hbds"
    save_cache(ds, path)
    raw = bytearray(path.read_bytes())

    for mutate, match in (
        (lambda b: b[:len(b) // 2], "checksum mismatch"),   # truncated
        (lambda b: b + b"\x00\x00", "checksum mismatch"),   # grown
        (lambda b: b"", "is too small"),                    # emptied
    ):
        (tmp_path / "bad").write_bytes(bytes(mutate(raw)))
        with pytest.raises(DataError, match=match):
            load_cache(tmp_path / "bad")

    for flip_at in (0, 5, len(raw) // 2, len(raw) - 1):
        bad = bytearray(raw)
        bad[flip_at] ^= 0xFF
        (tmp_path / "bad").write_bytes(bytes(bad))
        with pytest.raises(DataError, match="checksum mismatch"):
            load_cache(tmp_path / "bad")


def test_cache_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read .*never-written"):
        load_cache(tmp_path / "never-written.hbds")


def test_dataset_columns_locate_windows():
    records = make_synthetic_records(n_subjects=3, seed=12)
    ds = build_labeled_dataset(records, "Arrhythmia", TRAIN,
                               {r.subject_id for r in records})
    assert ds.X.shape == (len(ds), SEGMENT_LENGTH)
    assert ds.window_index[0] == 0
    start = 0
    for k, rec in enumerate(records):
        X, y = segment_arrays(rec)
        rows = slice(start, start + len(y))
        assert ds.record_table[k] == (rec.record_id, rec.subject_id)
        assert np.all(ds.record_index[rows] == k)
        np.testing.assert_array_equal(ds.window_index[rows],
                                      np.arange(len(y)))
        np.testing.assert_array_equal(ds.y[rows], y)
        assert ds.X[rows].tobytes() == X.tobytes()
        start += len(y)
    assert start == len(ds)


def test_dataset_columns_around_a_zero_window_record():
    # 50 samples at 250 Hz is 0.2 s: shorter than one window
    rng = np.random.default_rng(13)
    first, third = make_synthetic_records(n_subjects=2, seed=13)
    short = EcgRecord("short", "subj-short", "NormalSinus", 250.0,
                      rng.normal(size=50).astype(np.float32),
                      np.array([], dtype=np.int64))
    records = [first, short, third]
    ds = build_labeled_dataset(records, "NormalSinus+LongTerm", TRAIN,
                               {r.subject_id for r in records})
    assert ds.record_table == tuple((r.record_id, r.subject_id)
                                    for r in records)
    n1, n3 = (window_count(r.duration) for r in (first, third))
    assert len(ds) == n1 + n3
    # no row points at the short record, and the third restarts at 0
    np.testing.assert_array_equal(ds.record_index,
                                  np.repeat([0, 2], [n1, n3]))
    np.testing.assert_array_equal(
        ds.window_index, np.concatenate([np.arange(n1), np.arange(n3)]))
    assert ds.record_index.dtype == ds.window_index.dtype == np.uint32


def test_dataset_invariants_enforced():
    X = np.zeros((3, SEGMENT_LENGTH), dtype=np.float32)
    y = np.array([0, 1, 0], dtype=np.uint8)
    idx = np.zeros(3, dtype=np.uint32)
    win = np.arange(3, dtype=np.uint32)
    table = (("r", "s"),)
    ds = LabeledDataset("Arrhythmia", TRAIN, X, y, idx, win, table,
                        frozenset({"s"}))
    assert len(ds) == 3
    with pytest.raises(DataError):
        LabeledDataset("Arrhythmia", "Validate", X, y, idx, win, table,
                       frozenset({"s"}))
    with pytest.raises(DataError):
        LabeledDataset("Arrhythmia", TRAIN, X[:2], y, idx, win, table,
                       frozenset({"s"}))
    with pytest.raises(DataError):
        LabeledDataset("Arrhythmia", TRAIN, X, y + 7, idx, win, table,
                       frozenset({"s"}))
    with pytest.raises(DataError):
        LabeledDataset("Arrhythmia", TRAIN, X, y, idx + 9, win, table,
                       frozenset({"s"}))
