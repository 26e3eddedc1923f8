"""The package names the benchmark wraps (``perfbench/workloads.py``).

The benchmark replaces module attributes with timing wrappers, so a
renamed function or a call that no longer goes through its module would
only show as a missing figure in a benchmark run. These tests import the
benchmark's target table as it is and check it against the package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from beatnet.config import Settings
from beatnet.nn import init_params
from beatnet.segments import TRAIN, build_labeled_dataset
from beatnet.synthetic import make_synthetic_records

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# The module, as the benchmark imports it: the package attribute
# ``beatnet.train`` is the function.
train_module = importlib.import_module("beatnet.train")


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


def test_transfer_calls_train_through_its_module(workloads, monkeypatch,
                                                 tmp_path):
    settings = Settings(conv_channels=(2, 3, 4, 4),
                        conv_kernels=(3, 3, 3, 3), fc_sizes=(16, 8, 2),
                        epochs=2, batch_size=32)
    net = settings.network_config()
    checkpoint = tmp_path / "m.hbdl"
    train_module.save_checkpoint(
        init_params(net, np.random.default_rng(0)), net, checkpoint)
    records = make_synthetic_records(n_subjects=2, seed=0)
    dataset = build_labeled_dataset(records, "NormalSinus+LongTerm", TRAIN,
                                    {r.subject_id for r in records})

    calls = []
    real_train = train_module.train

    def spy(*args, **kwargs):
        result = real_train(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(train_module, "train", spy)
    result = train_module.transfer(checkpoint, dataset, settings)
    assert len(calls) == 1
    args, kwargs, spied = calls[0]
    assert args[0] is dataset and spied is result
    # the benchmark's counter for train() reads the dataset and history
    count = next(t.count for t in workloads.STAGE_TARGETS
                 if (t.module, t.attr) == ("beatnet.train", "train"))
    assert count(args, kwargs, spied)["segments"] == 2 * len(dataset)
