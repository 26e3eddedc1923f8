"""Heart beat detection in ECG signals with a small 1-D CNN.

The pipeline: decode WFDB or CSV recordings into annotated records, cut
them into labeled 0.25 s windows resampled to 250 samples, train a
four-block convolutional network with a fully connected head from
scratch (weighted cross-entropy, AdaDelta), optionally transfer it onto
new data by fine-tuning only the head, and evaluate MCC, precision,
sensitivity and F1 with bootstrap confidence intervals.

The network runs on every CPU with threads of its own (:mod:`beatnet.nn`),
so OpenBLAS gets one thread unless ``OPENBLAS_NUM_THREADS`` says
otherwise: two threads that call a multi-threaded OpenBLAS at once wait
on its one pool of threads. OpenBLAS reads the variable when NumPy
loads, so this default holds where beatnet is imported first, as in the
``beatnet`` command.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import Settings
from .loss import ClassWeights, weighted_cross_entropy
from .metrics import (
    ConfusionCounts,
    EvalReport,
    build_report,
    confusion,
    mcc,
    precision_sensitivity_f1,
)
from .nn import NetworkConfig, forward, init_params
from .optim import AdaDeltaState, adadelta_step
from .records import CsvSchema, EcgRecord, ingest_csv
from .segments import (
    BEAT,
    NO_BEAT,
    LabeledDataset,
    build_subsets,
    load_cache,
    save_cache,
    split_subjects,
)
from .train import load_checkpoint, save_checkpoint
from .wfdb_io import (
    BeatAnnotations,
    WfdbHeader,
    decode_signal,
    filter_beats,
    parse_annotations,
    parse_header,
)

__version__ = "0.1.0"

__all__ = [
    "AdaDeltaState", "BEAT", "BeatAnnotations", "ClassWeights",
    "ConfusionCounts", "CsvSchema", "EcgRecord", "EvalReport",
    "LabeledDataset", "NO_BEAT", "NetworkConfig",
    "Settings", "WfdbHeader", "adadelta_step", "build_report",
    "build_subsets", "confusion", "decode_signal", "filter_beats",
    "forward", "ingest_csv", "init_params", "load_cache",
    "load_checkpoint", "mcc", "parse_annotations", "parse_header",
    "precision_sensitivity_f1", "save_cache", "save_checkpoint",
    "split_subjects", "weighted_cross_entropy",
]
