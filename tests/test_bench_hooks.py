"""The package names the benchmark wraps (``perfbench/workloads.py``).

The benchmark replaces module attributes with timing wrappers, so a
renamed function or a call that no longer goes through its module would
only show as a missing figure in a benchmark run. These tests import the
benchmark's target table as it is and check it against the package.
"""

import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import beatnet.experiments
import beatnet.nn
import beatnet.segments
import beatnet.train
from beatnet.config import Settings
from beatnet.nn import EVAL_BATCH_ROWS, HEAD, init_params
from beatnet.segments import TEST, TRAIN, build_labeled_dataset, load_cache
from beatnet.synthetic import make_synthetic_records

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SMALL = Settings(conv_channels=(2, 3, 4, 4), conv_kernels=(3, 3, 3, 3),
                 fc_sizes=(16, 8, 2), epochs=2, batch_size=32)


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    sys.path.insert(0, str(PERFBENCH))  # its sibling modules
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    yield module
    del sys.modules[spec.name]


def test_every_trace_target_resolves(workloads):
    for target in workloads.STAGE_TARGETS + workloads.TRACE_TARGETS:
        module = importlib.import_module(target.module)
        assert callable(getattr(module, target.attr, None)), target


@pytest.fixture(scope="module")
def dataset():
    records = make_synthetic_records(n_subjects=2, seed=0)
    return build_labeled_dataset(records, "NormalSinus+LongTerm", TRAIN,
                                 {r.subject_id for r in records})


def spy(monkeypatch, module, attr) -> list:
    """Replace ``module.attr`` with a wrapper, as the benchmark does, and
    return the list its (args, kwargs, result) calls are appended to."""
    calls = []
    real = getattr(module, attr)

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_train_attribute_is_the_module():
    assert beatnet.train is sys.modules["beatnet.train"]


def test_public_names_resolve():
    # the benchmark calls beatnet.load_cache and beatnet.load_checkpoint
    assert [name for name in beatnet.__all__
            if not hasattr(beatnet, name)] == []
    assert "transfer" not in beatnet.__all__


def test_conv_flops_of_channels_last_inputs(workloads, monkeypatch):
    # nn.conv.gflop_per_s reads the FLOPs off the conv kernels' arguments:
    # (n, L, C_in) inputs give the same product as (n, C_in, L) ones did
    net = beatnet.nn.NetworkConfig()
    params = init_params(net, np.random.default_rng(0))
    calls = spy(monkeypatch, beatnet.nn, "conv1d_forward")
    beatnet.nn.forward(net, params, np.zeros((3, net.input_length),
                                             np.float32), train=False)
    assert [workloads._conv_flops(args[0], args[1]) for args, _, _ in calls
            ] == [2 * 3 * (net.input_length // 2 ** b) * c_out * c_in * k
                  for b, (c_in, c_out, k) in enumerate(net.conv_blocks)]


def test_train_forward_caches_a_byte_per_pool_window():
    net = beatnet.nn.NetworkConfig()
    params = init_params(net, np.random.default_rng(0))
    _, cache = beatnet.nn.forward(
        net, params, np.ones((3, net.input_length), np.float32),
        train=True, rng=np.random.default_rng(1))
    masks = [stored[0] for kind, _, stored in cache.layers if kind == "pool"]
    assert [m.shape for m in masks] == [
        (3, net.input_length // 2 ** (b + 1), c_out)
        for b, (_, c_out, _) in enumerate(net.conv_blocks)]
    assert all(m.dtype == np.bool_ and m.nbytes == m.size for m in masks)


def test_predict_logits_runs_forward_per_chunk(monkeypatch):
    # nn.trunk_rows_per_segment counts the rows of these forward calls
    net = SMALL.network_config()
    params = init_params(net, np.random.default_rng(0))
    X = np.zeros((2 * EVAL_BATCH_ROWS + 2, net.input_length), np.float32)
    calls = spy(monkeypatch, beatnet.nn, "forward")
    beatnet.nn.predict_logits(net, params, X)
    assert [(args[2].shape[0], kwargs["train"]) for args, kwargs, _ in calls
            ] == [(EVAL_BATCH_ROWS, False), (EVAL_BATCH_ROWS, False),
                  (2, False)]


def test_scratch_train_scores_each_epoch_with_predict_logits(monkeypatch,
                                                             dataset):
    # train.mcc_pass_share is the share of train() in these calls
    calls = spy(monkeypatch, beatnet.nn, "predict_logits")
    beatnet.train.train(dataset, SMALL)
    assert [args[2].shape[0] for args, _, _ in calls] == [len(dataset)] * 2


def test_head_only_train_runs_forward_from_the_head(monkeypatch, dataset):
    # the frozen trunk runs once over the dataset; every batch and every
    # scoring chunk starts at the head
    net = SMALL.network_config()
    init = init_params(net, np.random.default_rng(0))
    trunks = spy(monkeypatch, beatnet.train, "trunk_features")
    calls = [spy(monkeypatch, module, "forward")
             for module in (beatnet.nn, beatnet.train)]
    beatnet.train.train(dataset, SMALL, init=init)
    assert len(trunks) == 1 and trunks[0][0][2] is dataset.X
    n = len(dataset)
    assert [len(module_calls) for module_calls in calls] == [
        SMALL.epochs * -(-n // EVAL_BATCH_ROWS),
        SMALL.epochs * -(-n // SMALL.batch_size)]
    assert all(kwargs["start"] == HEAD for module_calls in calls
               for _, kwargs, _ in module_calls)


def test_experiment3_reads_the_checkpoint_once(workloads, monkeypatch,
                                               tmp_path):
    # transfer_eval's segments_per_s counts the datasets these train()
    # calls get and the epochs they run
    caches = tmp_path / "caches"
    beatnet.experiments.build_synthetic_caches(
        caches, SMALL, n_subjects=4, tags=("Arrhythmia", "BaselineFlexComp"))
    net = SMALL.network_config()
    checkpoint = tmp_path / "m.hbdl"
    beatnet.train.save_checkpoint(
        init_params(net, np.random.default_rng(0)), net, checkpoint)

    loads = spy(monkeypatch, beatnet.experiments, "load_checkpoint")
    trains = spy(monkeypatch, beatnet.experiments, "train")
    beatnet.experiments.run_experiment(3, caches, tmp_path / "exp3", SMALL,
                                       checkpoint=checkpoint)
    assert len(loads) == 1
    count = next(t.count for t in workloads.STAGE_TARGETS
                 if (t.module, t.attr) == ("beatnet.experiments", "train"))
    subsets = []
    for args, kwargs, result in trains:
        dataset = args[0]
        subsets.append(dataset.subset_name)
        assert dataset.partition == TRAIN
        expected = load_cache(beatnet.experiments.cache_file(
            caches, dataset.subset_name, TRAIN))
        assert np.array_equal(dataset.X, expected.X)
        assert kwargs["init"] is loads[0][2][0]  # the checkpoint's params
        assert count(args, kwargs, result)["segments"] == (
            SMALL.epochs * len(expected))
    assert subsets == ["Arrhythmia", "BaselineFlexComp"]


def test_partition_windows_each_record_through_segment_arrays(workloads,
                                                              monkeypatch):
    # segments.segment_arrays.windows_per_s and wfdb_io.useful_sample_ratio
    # count the windows of these calls: one per chosen record
    records = make_synthetic_records(n_subjects=4, seed=2)
    chosen = records[1:]
    calls = spy(monkeypatch, beatnet.segments, "segment_arrays")
    ds = build_labeled_dataset(records, "NormalSinus+LongTerm", TRAIN,
                               {r.subject_id for r in chosen})
    assert len(calls) == len(chosen)
    assert all(args[0] is rec for (args, _, _), rec in zip(calls, chosen))
    count = next(t.count for t in workloads.TRACE_TARGETS
                 if (t.module, t.attr) == ("beatnet.segments",
                                           "segment_arrays"))
    assert sum(count(args, kwargs, result)["windows"]
               for args, kwargs, result in calls) == len(ds) > 0


def test_segment_arrays_result_is_the_partitions_rows(monkeypatch):
    # segment_arrays' windows go straight into the partition: the X it
    # returns, which the windows count reads, is each record's own rows
    records = make_synthetic_records(n_subjects=3, seed=4)
    calls = spy(monkeypatch, beatnet.segments, "segment_arrays")
    ds = build_labeled_dataset(records, "NormalSinus+LongTerm", TRAIN,
                               {r.subject_id for r in records})
    assert len(calls) == len(records)
    for k, (_, _, (X, _)) in enumerate(calls):
        start = int(np.flatnonzero(ds.record_index == k)[0])
        assert X.base is ds.X
        assert X.ctypes.data == ds.X[start].ctypes.data
        assert X.shape[0] == np.count_nonzero(ds.record_index == k)


def test_head_only_train_scores_each_epoch_with_predict_logits(monkeypatch,
                                                               dataset):
    # the head-only scoring pass runs in the same chunks as every other
    net = SMALL.network_config()
    init = init_params(net, np.random.default_rng(0))
    calls = spy(monkeypatch, beatnet.nn, "predict_logits")
    beatnet.train.train(dataset, SMALL, init=init)
    assert [args[2].shape[0] for args, _, _ in calls] == [len(dataset)] * 2


@pytest.fixture(scope="module")
def big_caches(tmp_path_factory):
    # more Train rows than one eval chunk, in the source and in a target
    root = tmp_path_factory.mktemp("big")
    caches = root / "caches"
    beatnet.experiments.build_synthetic_caches(
        caches, SMALL, n_subjects=6, duration=150.0,
        tags=("NormalSinus", "Arrhythmia"))
    net = SMALL.network_config()
    checkpoint = root / "m.hbdl"
    beatnet.train.save_checkpoint(
        init_params(net, np.random.default_rng(0)), net, checkpoint)
    return caches, checkpoint


def eval_forward_rows(calls, start) -> int:
    return sum(args[2].shape[0] for module_calls in calls
               for args, kwargs, _ in module_calls
               if not kwargs["train"] and kwargs["start"] == start)


@pytest.mark.parametrize("experiment_id", [1, 3])
def test_trained_partitions_run_the_network_once(monkeypatch, tmp_path,
                                                 big_caches, experiment_id):
    # the Train report reuses the last epoch's scoring pass instead of a
    # pass of its own; nn.trunk_rows_per_segment counts the rows of both
    # starts
    caches, checkpoint = big_caches
    subset = ("NormalSinus+LongTerm" if experiment_id == 1
              else "Arrhythmia")
    n_train, n_test = (len(load_cache(beatnet.experiments.cache_file(
        caches, subset, p))) for p in (TRAIN, TEST))
    calls = [spy(monkeypatch, module, "forward")
             for module in (beatnet.nn, beatnet.train)]
    beatnet.experiments.run_experiment(experiment_id, caches,
                                       tmp_path / "out", SMALL,
                                       checkpoint=checkpoint)
    scratch_epochs = SMALL.epochs if experiment_id == 1 else 0
    assert eval_forward_rows(calls, 0) == scratch_epochs * n_train + n_test
    assert eval_forward_rows(calls, HEAD) == (
        SMALL.epochs * n_train if experiment_id == 3 else 0)


@pytest.mark.parametrize("experiment_id", [1, 3])
def test_train_report_is_the_last_scoring_pass(monkeypatch, tmp_path,
                                               big_caches, experiment_id):
    caches, checkpoint = big_caches
    trains = spy(monkeypatch, beatnet.experiments, "train")
    reports = beatnet.experiments.run_experiment(
        experiment_id, caches, tmp_path / "out", SMALL,
        checkpoint=checkpoint)
    train_reports = [r for r in reports if r.partition == TRAIN]
    assert len(train_reports) == len(trains) == 1
    (dataset, *_), _, (_, history) = trains[0]
    assert len(dataset) > EVAL_BATCH_ROWS
    assert train_reports[0].n_segments == len(dataset)
    assert train_reports[0].metrics["mcc"].point == history.train_mcc[-1]


def test_zero_epochs_still_report_train(tmp_path, big_caches):
    caches, checkpoint = big_caches
    settings = replace(SMALL, epochs=0)
    for experiment_id in (1, 3):
        reports = beatnet.experiments.run_experiment(
            experiment_id, caches, tmp_path / f"e{experiment_id}", settings,
            checkpoint=checkpoint)
        assert [r.partition for r in reports] == [TRAIN, TEST]


def test_experiment2_scores_each_target_test_with_predict_logits(
        monkeypatch, tmp_path):
    # a run's scoring passes reach the benchmark's nn.predict_logits
    # wrapper only if the run looks the function up through beatnet.nn
    caches = tmp_path / "caches"
    beatnet.experiments.build_synthetic_caches(
        caches, SMALL, n_subjects=4, tags=("Arrhythmia", "BaselineFlexComp"))
    net = SMALL.network_config()
    checkpoint = tmp_path / "m.hbdl"
    beatnet.train.save_checkpoint(
        init_params(net, np.random.default_rng(0)), net, checkpoint)
    calls = spy(monkeypatch, beatnet.nn, "predict_logits")
    reports = beatnet.experiments.run_experiment(
        2, caches, tmp_path / "exp2", SMALL, checkpoint=checkpoint)
    tests = [load_cache(beatnet.experiments.cache_file(caches, subset, TEST))
             for subset in ("Arrhythmia", "BaselineFlexComp")]
    assert len(calls) == len(tests) == len(reports)
    for (args, _, _), test in zip(calls, tests):
        assert np.array_equal(args[2], test.X)
