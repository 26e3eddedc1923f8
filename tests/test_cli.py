"""Command-line interface tests: exit codes, run outputs, determinism."""

import ast
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from beatnet import errors, experiments, segments
from beatnet.cli import main
from beatnet.config import Settings, load_settings, parse_fraction, \
    render_snapshot
from beatnet.errors import DataError, NumericError, UsageError
from beatnet.experiments import cache_file
from beatnet.metrics import reports_from_json
from beatnet.nn import NetworkConfig, init_params
from beatnet.segments import SEGMENT_LENGTH, TEST, TRAIN, LabeledDataset, \
    load_cache, save_cache
from beatnet.train import save_checkpoint

from helpers import BAD_GEOMETRY, ann_word, edit_checkpoint_header, \
    end_marker, reframe, simple_annotation_stream, skip_block, \
    write_wfdb_record

# Small network and short training so end-to-end runs stay fast.
FAST_INI = """\
[evaluate]
bootstrap_reps = 20

[network]
conv_channels = 2,3,4,4
conv_kernels = 3,3,3,3
fc_sizes = 16,8,2

[train]
epochs = 2
batch_size = 32
"""

# render_snapshot(Settings()): every key with its default, in file order.
DEFAULT_SNAPSHOT = """\
[data]
max_record_seconds = 3600.0
train_fraction = 0.6666666666666666
beat_codes = N,L,R,B,A,a,J,S,V,r,F,e,j,n,E,f,Q,?

[network]
conv_channels = 8,16,32,64
conv_kernels = 7,5,5,3
fc_sizes = 128,32,2
dropout_p = 0.5
bn_eps = 1e-05
bn_momentum = 0.1

[train]
epochs = 10
batch_size = 64
lr = 0.01
w_nobeat = 0.06
w_beat = 0.94
rho = 0.9
eps = 1e-06
reduction = mean
seed = 0

[evaluate]
bootstrap_reps = 100
bootstrap_fraction = 0.25
"""

# Out-of-range values as (section, key, INI text, the same value in code).
BAD_VALUES = [
    ("data", "max_record_seconds", "-5", -5.0),
    ("data", "max_record_seconds", "0.1", 0.1),  # under one window
    ("data", "train_fraction", "3/2", 1.5),
    ("train", "epochs", "-1", -1),
    ("train", "seed", "-2", -2),
    ("network", "dropout_p", "1.5", 1.5),
    ("evaluate", "bootstrap_reps", "1", 1),
    ("evaluate", "bootstrap_fraction", "0", 0.0),
    ("train", "rho", "1.5", 1.5),
    ("train", "eps", "0", 0.0),
    ("network", "bn_momentum", "2", 2.0),
    ("network", "bn_eps", "0", 0.0),
    ("network", "fc_sizes", "0,5,2", (0, 5, 2)),
    ("data", "beat_codes", "N,ZZ", ("N", "ZZ")),  # no such annotation
    # every float must be finite, and lr positive
    ("train", "lr", "nan", math.nan),
    ("train", "lr", "-1", -1.0),
    ("train", "lr", "0", 0.0),
    ("train", "eps", "nan", math.nan),
    ("train", "w_beat", "nan", math.nan),
    ("train", "w_nobeat", "inf", math.inf),
    ("data", "beat_codes", ",", ()),
    ("train", "w_beat", "-1", -1.0),
    ("network", "conv_kernels", "7,5,4,3", (7, 5, 4, 3)),  # even kernel
    ("network", "conv_channels", "8,16,32", (8, 16, 32)),
    ("network", "conv_channels", "0,16,32,64", (0, 16, 32, 64)),
]
# Bad files with no keyword form: removed keys, a [DEFAULT] section and
# bytes that are not text.
BAD_FILES_ONLY = [
    # keys that only ever had one working value are gone
    "[network]\npool_kernel = 2\n",
    "[network]\ninput_length = 250\n",
    # configparser would copy [DEFAULT] into every other section
    "[DEFAULT]\nepochs = 3\n",
    "[DEFAULT]\nepochs = 3\n[train]\n",
    "[DEFAULT]\n",
    "[data]\nbeat_codes = N,\xff\n",  # not UTF-8 text
]

ALL_FILES = ("reports.csv", "reports.json", "mcc_chart.svg", "config.ini",
             "run_info.json")


def fast_config(tmp_path, extra_train=""):
    path = tmp_path / "fast.ini"
    path.write_text(FAST_INI + extra_train)  # extras join [train]
    return str(path)


def build_caches(tmp_path, tags="NormalSinus,LongTerm,Arrhythmia,"
                                "BaselineFlexComp", subjects=8):
    caches = tmp_path / "caches"
    code = main(["build-dataset", "--out", str(caches),
                 "--subjects", str(subjects), "--tags", tags])
    assert code == 0
    return caches


def fast_checkpoint(tmp_path, cfg) -> Path:
    """A seeded checkpoint of ``cfg``'s network."""
    net = load_settings(cfg).network_config()
    path = tmp_path / "m.hbdl"
    save_checkpoint(init_params(net, np.random.default_rng(0)), net, path)
    return path


# --- settings files ---


def test_settings_defaults():
    assert load_settings(None) == Settings()


@pytest.mark.parametrize("section,key,text,value", BAD_VALUES)
def test_bad_value_rejected_from_file_and_code(tmp_path, section, key, text,
                                               value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {text}\n")
    with pytest.raises(UsageError, match=f"in config {path}: .*{key}"):
        load_settings(path)
    # a Settings built or changed in code passes the same checks, and
    # its message names the key too
    with pytest.raises(UsageError, match=key):
        Settings(**{key: value})
    with pytest.raises(UsageError, match=key):
        dataclasses.replace(Settings(), **{key: value})


def test_default_snapshot_pinned():
    assert render_snapshot(Settings()) == DEFAULT_SNAPSHOT
    assert render_snapshot(Settings(seed=4)) == DEFAULT_SNAPSHOT.replace(
        "seed = 0", "seed = 4")


def test_readme_example_config_lists_the_defaults(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    example = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(example)
    assert load_settings(path) == Settings()

    def keys(text):
        return [line.split(" = ")[0] for line in text.splitlines()
                if " = " in line]

    assert keys(example) == keys(DEFAULT_SNAPSHOT)


def test_settings_parse_and_snapshot_round_trip(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text("[data]\ntrain_fraction = 2/3\nbeat_codes = N,,V,\n"
                    "[train]\nepochs = 3\nlr = 1/2\nreduction =  sum\n"
                    "[network]\nfc_sizes = 16,8,2\n")
    s = load_settings(path)
    assert s.train_fraction == pytest.approx(2 / 3)
    assert s.beat_codes == ("N", "V")  # empty tokens are dropped
    assert s.epochs == 3
    assert s.lr == 0.5  # every float key accepts a ratio
    assert s.reduction == "sum"
    assert s.fc_sizes == (16, 8, 2)
    snap = tmp_path / "snap.ini"
    snap.write_text(render_snapshot(dataclasses.replace(s, seed=7)))
    back = load_settings(snap)
    assert back.seed == 7
    assert back == dataclasses.replace(s, seed=7)


def test_list_built_settings_round_trip(tmp_path):
    s = Settings(beat_codes=["N"], conv_channels=[8, 16, 32, 64],
                 conv_kernels=[7, 5, 5, 3], fc_sizes=[128, 32, 2])
    snap = tmp_path / "snap.ini"
    snap.write_text(render_snapshot(s))
    assert load_settings(snap) == s
    assert s.network_config() == NetworkConfig()


@pytest.mark.parametrize("text", [
    "[nonsense]\nx = 1\n",
    "[train]\nnonsense = 1\n",
    "[train]\nepochs = many\n",
    "[data]\ntrain_fraction = 1/0\n",
    "[data]\nbeat_codes = ,\n",
    "[network]\nconv_channels = 2;3\n",
    "[network]\nconv_channels = 8,,32,64\n",
    "[train]\nlr = fast\n",
])
def test_settings_rejects_bad_files(tmp_path, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(UsageError):
        load_settings(path)


def test_settings_missing_file():
    with pytest.raises(UsageError):
        load_settings("/nonexistent/config.ini")


def test_parse_fraction():
    assert parse_fraction("0.25") == 0.25
    assert parse_fraction("2/3") == pytest.approx(2 / 3)
    with pytest.raises(UsageError):
        parse_fraction("x/y")


# --- dataset construction commands ---


def test_build_dataset_writes_caches(tmp_path, capsys):
    caches = tmp_path / "caches"
    code = main(["build-dataset", "--out", str(caches), "--subjects", "4"])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    train_cache = caches / "normalsinus-longterm.train.hbds"
    test_cache = caches / "normalsinus-longterm.test.hbds"
    assert train_cache.exists() and test_cache.exists()
    ds = load_cache(train_cache)
    assert ds.subset_name == "NormalSinus+LongTerm"
    assert ds.partition == "Train"
    assert len(ds) > 0
    stats = (caches / "dataset_stats.csv").read_text().splitlines()
    assert stats[0] == "subset,partition,n_subjects,n_segments,percent_beat"
    assert len(stats) == 3  # header + Train + Test


def test_build_dataset_rejects_unknown_tag(tmp_path, capsys):
    code = main(["build-dataset", "--out", str(tmp_path / "c"),
                 "--tags", "NormalSinus,Bogus"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_ingest_command(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("BEATNET_DATA_ROOT", raising=False)
    data = tmp_path / "data"
    data.mkdir()
    rng_beats = list(range(100, 2400, 200))
    for name, subject in (("r0", "s0"), ("r1", "s1")):
        adc = [0] * 2500
        for b in rng_beats:
            adc[b] = 500
        write_wfdb_record(
            data, name, 250.0, [adc],
            annotation_bytes=simple_annotation_stream(
                [(b, 1) for b in rng_beats]))
    manifest = data / "manifest.txt"
    manifest.write_text(
        "# two-subject arrhythmia set\n"
        "record=r0 subject=s0 tag=Arrhythmia hea=r0.hea ann=r0.atr channel=0\n"
        "record=r1 subject=s1 tag=Arrhythmia hea=r1.hea ann=r1.atr channel=0\n")
    out = tmp_path / "caches"
    code = main(["ingest", "--manifest", str(manifest), "--out", str(out)])
    assert code == 0
    for part in ("train", "test"):
        ds = load_cache(out / f"arrhythmia.{part}.hbds")
        assert len(ds) == 40  # 10 s of 0.25 s windows from one subject
        assert ds.y.sum() > 0
    stats = (out / "dataset_stats.csv").read_text()
    assert "Arrhythmia,Train,1,40," in stats

    # an --out that cannot be a directory is a usage error naming it
    plain = tmp_path / "plain"
    plain.write_text("")
    code = main(["ingest", "--manifest", str(manifest), "--out", str(plain)])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage error" in err and str(plain) in err

    # a damaged signal file aborts with the record id in the message
    (data / "r1.dat").write_bytes(b"\x00\x01")
    code = main(["ingest", "--manifest", str(manifest), "--out", str(out)])
    assert code == 2
    assert "r1" in capsys.readouterr().err


def test_ingest_seed_flag_matches_config_seed(tmp_path, monkeypatch):
    monkeypatch.delenv("BEATNET_DATA_ROOT", raising=False)
    data = tmp_path / "data"
    data.mkdir()
    lines = []
    for i in range(6):
        (data / f"p{i}.csv").write_text(
            "".join(f"{np.sin(k / 7 + i):.4f}\n" for k in range(500)))
        (data / f"p{i}.beats").write_text("0.6\n1.1\n")
        lines.append(f"record=w{i} subject=p{i} tag=BaselineFlexComp "
                     f"csv=p{i}.csv fs=250 value_col=0 beats=p{i}.beats "
                     f"header=false\n")
    manifest = data / "manifest.txt"
    manifest.write_text("".join(lines))
    seeded = tmp_path / "seed3.ini"
    seeded.write_text("[train]\nseed = 3\n")

    def ingest(name, *flags):
        out = tmp_path / name
        assert main(["ingest", "--manifest", str(manifest), "--out",
                     str(out), *flags]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    by_flag = ingest("flag", "--seed", "3")
    assert by_flag == ingest("config", "--config", str(seeded))
    assert by_flag != ingest("default")
    # seeds 0 and 3 put different subjects in Test
    test_subjects = [load_cache(tmp_path / name / "baselineflexcomp.test.hbds"
                                ).subject_ids for name in ("flag", "default")]
    assert test_subjects[0] != test_subjects[1]


def test_ingest_error_names_the_record_once(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("BEATNET_DATA_ROOT", raising=False)
    (tmp_path / "w1.csv").write_text("0.0\n" * 500)
    (tmp_path / "w1.beats").write_text("soon\n")
    write_wfdb_record(tmp_path, "r1", 250.0, [[0] * 500],
                      annotation_bytes=simple_annotation_stream([]))
    manifest = tmp_path / "manifest.txt"
    for line, record_id in [
            ("record=w1 subject=p tag=BaselineFlexComp csv=w1.csv fs=250 "
             "value_col=0 beats=w1.beats header=false", "w1"),
            ("record=r1 subject=s tag=Arrhythmia hea=r1.hea ann=r1.atr "
             "channel=1", "r1")]:
        manifest.write_text(line + "\n")
        assert main(["ingest", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"data error: record {record_id!r}: " in err
        assert err.count(record_id) == 1, err


def test_ingest_refuses_unknown_signal_units(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("BEATNET_DATA_ROOT", raising=False)
    write_wfdb_record(tmp_path, "r1", 250.0, [[0] * 500], units="mmHg",
                      annotation_bytes=simple_annotation_stream([]))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("record=r1 subject=s tag=Arrhythmia hea=r1.hea "
                        "ann=r1.atr\n")
    out = tmp_path / "out"
    assert main(["ingest", "--manifest", str(manifest),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("data error: record 'r1': signal file r1.dat: units 'mmHg' "
            "not supported") in err
    assert not out.exists()


def test_ingest_refuses_baseline_outside_int32(tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.delenv("BEATNET_DATA_ROOT", raising=False)
    write_wfdb_record(tmp_path, "r1", 250.0, [[0] * 500], fmt=16,
                      baseline=99999999999,
                      annotation_bytes=simple_annotation_stream([]))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("record=r1 subject=s tag=Arrhythmia hea=r1.hea "
                        "ann=r1.atr\n")
    out = tmp_path / "out"
    assert main(["ingest", "--manifest", str(manifest),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("data error: record 'r1': baseline 99999999999 in 'r1.dat 16 "
            "200(99999999999)/mV") in err
    assert "outside the signed 32-bit range" in err
    assert not out.exists()


@pytest.mark.parametrize("gain,annotations,message", [
    (-200.0, simple_annotation_stream([]), "negative gain -200"),
    # a negative SKIP interval puts the second beat before the first
    (200.0,
     ann_word(1, 100) + skip_block(-50) + ann_word(1, 0) + end_marker(),
     "decoded beat indices not strictly increasing"),
], ids=["negative-gain", "negative-skip"])
def test_ingest_refuses_bad_record(tmp_path, monkeypatch, capsys, gain,
                                   annotations, message):
    monkeypatch.delenv("BEATNET_DATA_ROOT", raising=False)
    write_wfdb_record(tmp_path, "r1", 250.0, [[0] * 500], gain=gain,
                      annotation_bytes=annotations)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("record=r1 subject=s tag=Arrhythmia hea=r1.hea "
                        "ann=r1.atr\n")
    out = tmp_path / "out"
    assert main(["ingest", "--manifest", str(manifest),
                 "--out", str(out)]) == 2
    assert f"data error: record 'r1': {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def ten_minute_manifest(tmp_path_factory):
    """Four 10 min records, two subjects in each of two subsets: 2400
    windows, so three resampling blocks and a last window that ends at
    the record's end."""
    data = tmp_path_factory.mktemp("ten_minutes")
    rng = np.random.default_rng(11)
    lines = []
    for k, (tag, fs) in enumerate([("Arrhythmia", 360.0)] * 2
                                  + [("NormalSinus", 128.0)] * 2):
        n = int(600 * fs)
        beats = list(range(40 + k, n, int(0.8 * fs)))
        write_wfdb_record(
            data, f"r{k}", fs, [rng.integers(-900, 900, n)],
            annotation_bytes=simple_annotation_stream(
                [(b, 1) for b in beats]))
        lines.append(f"record=r{k} subject=s{k} tag={tag} hea=r{k}.hea "
                     f"ann=r{k}.atr\n")
    manifest = data / "manifest.txt"
    manifest.write_text("".join(lines))
    return manifest


def test_ingest_bytes_do_not_depend_on_workers(tmp_path, monkeypatch,
                                               ten_minute_manifest):
    monkeypatch.delenv("BEATNET_DATA_ROOT", raising=False)
    trees = []
    for workers in (1, 3):
        monkeypatch.setattr(segments, "WORKERS", workers)
        out = tmp_path / f"w{workers}"
        before = threading.active_count()
        written = experiments.run_ingest(ten_minute_manifest, out,
                                         Settings())
        assert threading.active_count() == before
        assert [p.name for p in written] == [
            "arrhythmia.test.hbds", "arrhythmia.train.hbds",
            "normalsinus-longterm.test.hbds",
            "normalsinus-longterm.train.hbds"]
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert set(trees[0]) == {p.name for p in written} | {
        experiments.STATS_FILE}
    assert trees[0] == trees[1]
    assert len(load_cache(tmp_path / "w3" / "arrhythmia.test.hbds")) == 2400


@pytest.mark.parametrize("failing", ["arrhythmia.test", "arrhythmia.train",
                                     "normalsinus-longterm.test",
                                     "normalsinus-longterm.train"])
def test_ingest_cache_write_failure_names_the_cache(
        tmp_path, monkeypatch, ten_minute_manifest, failing):
    # a directory where the cache goes: its rename fails on whichever
    # thread writes it, after its temporary file is complete
    monkeypatch.delenv("BEATNET_DATA_ROOT", raising=False)
    monkeypatch.setattr(segments, "WORKERS", 3)
    out = tmp_path / "out"
    blocked = out / f"{failing}.hbds"
    blocked.mkdir(parents=True)
    before = threading.active_count()
    with pytest.raises(DataError,
                       match=f"cannot write {re.escape(str(blocked))}"):
        experiments.run_ingest(ten_minute_manifest, out, Settings())
    assert threading.active_count() == before
    assert not list(out.glob(".*.tmp"))
    assert not (out / experiments.STATS_FILE).exists()


def one_row_dataset(partition: str, **fields) -> LabeledDataset:
    """One Arrhythmia segment of record r, subject s, with ``fields``
    replaced."""
    return LabeledDataset(**dict(
        subset_name="Arrhythmia", partition=partition,
        X=np.zeros((1, SEGMENT_LENGTH), np.float32), y=np.zeros(1, np.uint8),
        record_index=np.zeros(1, np.uint32),
        window_index=np.zeros(1, np.uint32), record_table=(("r", "s"),),
        subject_ids=frozenset({"s"})) | fields)


@pytest.mark.parametrize("train_fields, match", [
    # the subject count is a u16
    ({"subject_ids": frozenset({"s", *(f"s{k}" for k in range(65535))})},
     "of 65536 subjects: ushort format requires"),
    # a string's byte length is a u16
    ({"record_table": (("r", "s" * 70000),),
      "subject_ids": frozenset({"s" * 70000})},
     "of 1 subjects: string too long for a framed file: 70000 bytes")],
    ids=["subjects", "subject-id"])
def test_caches_the_format_cannot_hold_write_nothing(tmp_path, train_fields,
                                                     match):
    # the Test cache fits, but no cache is written before every one is
    # built
    datasets = {("Arrhythmia", TEST): one_row_dataset(TEST),
                ("Arrhythmia", TRAIN): one_row_dataset(TRAIN, **train_fields)}
    out = tmp_path / "out"
    with pytest.raises(DataError,
                       match=f"cannot cache Arrhythmia Train {match}"):
        experiments._write_caches(datasets, out)
    assert not out.exists()


# --- experiment protocol ---


def test_experiment_pipeline(tmp_path, monkeypatch):
    cfg = fast_config(tmp_path)
    caches = build_caches(tmp_path)
    runs = tmp_path / "runs"
    snapshots = []  # the directory of each config.ini write
    write_text = experiments.write_text

    def spy(path, text):
        if Path(path).name == "config.ini":
            snapshots.append(Path(path).parent)
        write_text(path, text)

    monkeypatch.setattr(experiments, "write_text", spy)

    out1 = runs / "exp1"
    assert main(["experiment", "--id", "1", "--caches", str(caches),
                 "--out", str(out1), "--config", cfg]) == 0
    for name in ALL_FILES + ("checkpoint.hbdl", "train_log.csv"):
        assert (out1 / name).exists(), name
    reports1 = reports_from_json((out1 / "reports.json").read_text())
    assert [(r.subset_name, r.partition) for r in reports1] == [
        ("NormalSinus+LongTerm", "Train"), ("NormalSinus+LongTerm", "Test")]
    info = json.loads((out1 / "run_info.json").read_text())
    assert info["experiment"] == 1
    assert len(info["caches"]) == 2 and len(info["checkpoints"]) == 1

    ckpt = str(out1 / "checkpoint.hbdl")
    out2 = runs / "exp2"
    assert main(["experiment", "--id", "2", "--caches", str(caches),
                 "--out", str(out2), "--checkpoint", ckpt,
                 "--config", cfg]) == 0
    reports2 = reports_from_json((out2 / "reports.json").read_text())
    assert [(r.subset_name, r.partition) for r in reports2] == [
        ("Arrhythmia", "Test"), ("BaselineFlexComp", "Test")]
    assert not list(out2.glob("*.hbdl"))  # evaluation only, no new models

    out3 = runs / "exp3"
    assert main(["experiment", "--id", "3", "--caches", str(caches),
                 "--out", str(out3), "--checkpoint", ckpt,
                 "--config", cfg]) == 0
    reports3 = reports_from_json((out3 / "reports.json").read_text())
    assert [(r.subset_name, r.partition) for r in reports3] == [
        ("Arrhythmia", "Train"), ("Arrhythmia", "Test"),
        ("BaselineFlexComp", "Train"), ("BaselineFlexComp", "Test")]
    for slug in ("arrhythmia", "baselineflexcomp"):
        assert (out3 / f"checkpoint_{slug}.hbdl").exists()
        assert (out3 / f"train_log_{slug}.csv").exists()

    # the single-stage commands train as the experiments do
    single = tmp_path / "single"
    assert main(["train", "--caches", str(caches), "--out", str(single),
                 "--config", cfg]) == 0
    for name in ("checkpoint.hbdl", "config.ini"):
        assert (single / name).read_bytes() == (out1 / name).read_bytes()
    tuned = tmp_path / "tuned"
    assert main(["transfer", "--caches", str(caches),
                 "--subset", "Arrhythmia", "--checkpoint", ckpt,
                 "--out", str(tuned), "--config", cfg]) == 0
    assert ((tuned / "checkpoint.hbdl").read_bytes()
            == (out3 / "checkpoint_arrhythmia.hbdl").read_bytes())
    # each run, an experiment with any number of targets included,
    # writes its snapshot once
    assert snapshots == [out1, out2, out3, single, tuned]

    # experiments 2 and 3 score the same Test segments
    test2 = {r.subset_name: r.n_segments for r in reports2}
    test3 = {r.subset_name: r.n_segments for r in reports3
             if r.partition == "Test"}
    assert test2 == test3

    # consolidation scans every run directory
    assert main(["report", "--dir", str(runs)]) == 0
    md = (runs / "summary.md").read_text()
    assert "## exp1" in md and "## exp3" in md
    assert "| NormalSinus+LongTerm | Train |" in md
    assert ("Network: conv_channels=2,3,4,4; conv_kernels=3,3,3,3; "
            "fc_sizes=16,8,2; dropout_p=0.5; bn_eps=1e-05; "
            "bn_momentum=0.1.") in md
    csv_lines = (runs / "summary.csv").read_text().splitlines()
    assert csv_lines[0].startswith("source,subset,partition,")
    # 4 metrics per report: (2 + 2 + 4) reports -> 32 rows
    assert len(csv_lines) == 1 + 4 * (len(reports1) + len(reports2)
                                      + len(reports3))


def test_experiment1_reruns_byte_identical(tmp_path):
    cfg = fast_config(tmp_path)
    caches = build_caches(tmp_path, tags="NormalSinus,LongTerm", subjects=4)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["experiment", "--id", "1", "--caches", str(caches),
                     "--out", str(out), "--config", cfg]) == 0
        outs.append(out)
    for name in ALL_FILES + ("checkpoint.hbdl",):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    # train_log.csv is the one intentionally non-reproducible output
    # (wall-clock column), so it is not compared.


def test_evaluate_matches_experiment_report(tmp_path):
    cfg = fast_config(tmp_path)
    caches = build_caches(tmp_path, tags="NormalSinus,LongTerm", subjects=4)
    out1 = tmp_path / "exp1"
    assert main(["experiment", "--id", "1", "--caches", str(caches),
                 "--out", str(out1), "--config", cfg]) == 0
    exp_reports = reports_from_json((out1 / "reports.json").read_text())

    out_eval = tmp_path / "eval"
    assert main(["evaluate", "--caches", str(caches),
                 "--subset", "NormalSinus+LongTerm", "--partition", "Test",
                 "--checkpoint", str(out1 / "checkpoint.hbdl"),
                 "--out", str(out_eval), "--config", cfg]) == 0
    eval_reports = reports_from_json((out_eval / "reports.json").read_text())
    assert len(eval_reports) == 1
    assert eval_reports[0] == exp_reports[1]


def test_train_transfer_evaluate_commands(tmp_path, capsys):
    cfg = fast_config(tmp_path)
    caches = build_caches(tmp_path)
    base = tmp_path / "base"
    assert main(["train", "--caches", str(caches), "--out", str(base),
                 "--config", cfg, "--seed", "5"]) == 0
    assert (base / "checkpoint.hbdl").exists()
    log = (base / "train_log.csv").read_text().splitlines()
    assert log[0] == "epoch,mean_loss,train_mcc,seconds"
    assert len(log) == 3  # 2 epochs
    assert load_settings(base / "config.ini").seed == 5  # --seed recorded

    tuned = tmp_path / "tuned"
    assert main(["transfer", "--caches", str(caches),
                 "--subset", "Arrhythmia",
                 "--checkpoint", str(base / "checkpoint.hbdl"),
                 "--out", str(tuned), "--config", cfg]) == 0
    assert (tuned / "checkpoint.hbdl").exists()

    assert main(["evaluate", "--caches", str(caches),
                 "--subset", "Arrhythmia", "--partition", "Test",
                 "--checkpoint", str(tuned / "checkpoint.hbdl"),
                 "--out", str(tmp_path / "eval"), "--config", cfg]) == 0
    assert "MCC" in capsys.readouterr().out


# --- exit codes ---


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["train", "--caches", str(tmp_path)]) == 1  # --out missing
    assert main(["experiment", "--id", "4", "--caches", "x",
                 "--out", "y"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    # out-of-range values fail when the config file is read
    bad = tmp_path / "bad.ini"
    for text in ([f"[{section}]\n{key} = {raw}\n"
                  for section, key, raw, _ in BAD_VALUES] + BAD_FILES_ONLY):
        bad.write_bytes(text.encode("latin-1"))
        assert main(["experiment", "--id", "1", "--caches", "x",
                     "--out", str(tmp_path / "o"), "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and str(bad) in err
        if "seed" in text:
            assert "seed must be >= 0, got -2" in err
        if "DEFAULT" in text:
            assert "unknown section [DEFAULT]" in err
    assert not (tmp_path / "o").exists()
    # build-dataset flags that could only write broken or no caches
    for flags in (["--duration", "-1"], ["--duration", "0.2"],
                  ["--duration", "inf"], ["--subjects", "0"],
                  ["--subjects", "-3"], ["--fs", "0"], ["--fs", "nan"],
                  ["--fs", "4"], ["--fs", "1"],
                  ["--duration", "1e200", "--fs", "1e200"]):
        assert main(["build-dataset", "--out", str(tmp_path / "c"),
                     *flags]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and all(f in err for f in flags[::2])
    # a negative --seed is refused before anything is read or written
    (tmp_path / "w.csv").write_text("0.0\n" * 500)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("record=w subject=p tag=BaselineFlexComp csv=w.csv "
                        "fs=250 value_col=0 header=false\n")
    for argv in (["build-dataset", "--out", str(tmp_path / "c")],
                 ["ingest", "--manifest", str(manifest),
                  "--out", str(tmp_path / "c")]):
        assert main([*argv, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "seed must be >= 0, got -1" in err
    assert not (tmp_path / "c").exists()


def test_out_that_cannot_be_created_exits_1(tmp_path, capsys,
                                            monkeypatch):
    cfg = fast_config(tmp_path)
    caches = build_caches(tmp_path, tags="NormalSinus,LongTerm,Arrhythmia",
                          subjects=6)
    net = load_settings(cfg).network_config()
    ckpt = tmp_path / "m.hbdl"
    save_checkpoint(init_params(net, np.random.default_rng(0)), net, ckpt)
    plain = tmp_path / "plain"
    plain.write_text("")

    def no_network(*args, **kwargs):
        raise AssertionError("trained or scored before checking --out")

    for target in ("beatnet.experiments.train", "beatnet.cli.train",
                   "beatnet.cli.evaluate_dataset"):
        monkeypatch.setattr(target, no_network)
    common = ["--caches", str(caches), "--config", cfg]
    for out in (plain, plain / "sub"):
        for argv in (["build-dataset"],
                     ["train", *common],
                     ["transfer", *common, "--subset", "Arrhythmia",
                      "--checkpoint", str(ckpt)],
                     ["evaluate", *common, "--subset", "Arrhythmia",
                      "--partition", "Test", "--checkpoint", str(ckpt)],
                     ["experiment", "--id", "1", *common],
                     ["experiment", "--id", "2", *common,
                      "--checkpoint", str(ckpt)],
                     ["experiment", "--id", "3", *common,
                      "--checkpoint", str(ckpt)]):
            assert main([*argv, "--out", str(out)]) == 1, argv
            err = capsys.readouterr().err
            assert "usage error: cannot create output directory" in err
            assert str(out) in err
    assert plain.read_bytes() == b""


def test_data_errors_exit_2(tmp_path, capsys):
    cfg = fast_config(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    # a refused run creates no output directory
    assert main(["experiment", "--id", "1", "--caches", str(empty),
                 "--out", str(tmp_path / "o1"), "--config", cfg]) == 2
    assert not (tmp_path / "o1").exists()
    assert main(["experiment", "--id", "2", "--caches", str(empty),
                 "--out", str(tmp_path / "o2"), "--config", cfg]) == 2
    assert not (tmp_path / "o2").exists()
    caches = build_caches(tmp_path, tags="NormalSinus,LongTerm,Arrhythmia",
                          subjects=6)
    missing = tmp_path / "missing.hbdl"
    for argv in (["experiment", "--id", "2"], ["experiment", "--id", "3"],
                 ["transfer", "--subset", "Arrhythmia"]):
        assert main([*argv, "--caches", str(caches), "--config", cfg,
                     "--out", str(tmp_path / "o3"),
                     "--checkpoint", str(missing)]) == 2
        err = capsys.readouterr().err
        assert f"data error: cannot read {missing}" in err
        assert not (tmp_path / "o3").exists()

    # a file that cannot be written names itself, and leaves no temporary
    blocked = tmp_path / "blocked"
    (blocked / "reports.json").mkdir(parents=True)
    assert main(["experiment", "--id", "1", "--caches", str(caches),
                 "--out", str(blocked), "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"data error: cannot write {blocked / 'reports.json'}" in err
    assert not list(blocked.glob(".*.tmp"))
    garbage = tmp_path / "garbage.hbdl"
    garbage.write_bytes(b"not a checkpoint at all")
    assert main(["evaluate", "--caches", str(caches),
                 "--subset", "NormalSinus+LongTerm", "--partition", "Test",
                 "--checkpoint", str(garbage),
                 "--out", str(tmp_path / "o4"), "--config", cfg]) == 2
    assert main(["report", "--dir", str(empty)]) == 2
    assert main(["ingest", "--manifest", str(tmp_path / "no-manifest.txt"),
                 "--out", str(tmp_path / "o5")]) == 2
    assert "data error" in capsys.readouterr().err

    # a checkpoint whose checksum holds but whose architecture is invalid
    net = NetworkConfig()
    good = tmp_path / "good.hbdl"
    save_checkpoint(init_params(net, np.random.default_rng(0)), net, good)
    bad = tmp_path / "bad.hbdl"
    bad.write_bytes(good.read_bytes())

    def widen_dropout(payload):
        at = payload.index(b'"dropout_p": 0.5')
        payload[at:at + 16] = b'"dropout_p": 1.5'

    # experiments 2 and 3 and transfer on a checkpoint of another
    # architecture than the configured one train and evaluate nothing
    narrow = tmp_path / "narrow.ini"
    narrow.write_text("[network]\nconv_channels = 4,8,8,8\n"
                      "fc_sizes = 16,8,2\n")
    targets = tmp_path / "targets"
    assert main(["build-dataset", "--out", str(targets), "--subjects", "2",
                 "--tags", "Arrhythmia"]) == 0
    for command in (["experiment", "--id", "2"], ["experiment", "--id", "3"],
                    ["transfer", "--subset", "Arrhythmia"]):
        assert main([*command,
                     "--caches", str(targets), "--out", str(tmp_path / "o9"),
                     "--config", str(narrow), "--checkpoint", str(good)]) == 2
        err = capsys.readouterr().err
        assert "data error: checkpoint architecture" in err
        assert str(good) in err
        assert not (tmp_path / "o9").exists()

    reframe(bad, widen_dropout)
    assert main(["evaluate", "--caches", str(caches),
                 "--subset", "NormalSinus+LongTerm", "--partition", "Test",
                 "--checkpoint", str(bad),
                 "--out", str(tmp_path / "o6"), "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "dropout_p" in err
    assert f"unreadable checkpoint header in {bad}" in err
    for edit, match in BAD_GEOMETRY:
        bad.write_bytes(good.read_bytes())
        edit_checkpoint_header(bad, lambda h: h["network"].update(edit))
        assert main(["evaluate", "--caches", str(caches),
                     "--subset", "NormalSinus+LongTerm", "--partition", "Test",
                     "--checkpoint", str(bad),
                     "--out", str(tmp_path / "o6"), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert re.search(f"data error: unreadable checkpoint header in "
                         f".*{match}", err)

    # a cache with no segments is refused, naming it, before any run
    # creates its --out
    short = tmp_path / "short"
    short.mkdir()
    for subset, partition in [("NormalSinus+LongTerm", TEST),
                              ("Arrhythmia", TRAIN), ("Arrhythmia", TEST)]:
        save_cache(LabeledDataset(
            subset, partition,
            np.empty((0, SEGMENT_LENGTH), np.float32), np.empty(0, np.uint8),
            np.empty(0, np.uint32), np.empty(0, np.uint32), ()),
            cache_file(short, subset, partition))
    assert main(["evaluate", "--caches", str(short),
                 "--subset", "NormalSinus+LongTerm", "--partition", "Test",
                 "--checkpoint", str(good),
                 "--out", str(tmp_path / "o7"), "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "NormalSinus+LongTerm Test" in err
    assert not (tmp_path / "o7").exists()
    fast = fast_checkpoint(tmp_path, cfg)
    common = ["--caches", str(short), "--config", cfg,
              "--out", str(tmp_path / "o7")]
    for argv, partition in [
            (["train", "--subset", "Arrhythmia"], TRAIN),
            (["transfer", "--subset", "Arrhythmia"], TRAIN),
            (["evaluate", "--subset", "Arrhythmia", "--partition", TEST],
             TEST),
            (["experiment", "--id", "2"], TEST),
            (["experiment", "--id", "3"], TRAIN)]:
        if argv[0] != "train":
            argv = [*argv, "--checkpoint", str(fast)]
        assert main([*argv, *common]) == 2, argv
        err = capsys.readouterr().err
        empty_cache = cache_file(short, "Arrhythmia", partition)
        assert (f"data error: cache {empty_cache} holds no segments of "
                f"Arrhythmia {partition}") in err
        assert not (tmp_path / "o7").exists(), argv

    # one window's worth of samples at 250 Hz rounds down to 62, which
    # holds no window: nothing is written
    one_window = tmp_path / "one-window"
    assert main(["build-dataset", "--out", str(one_window),
                 "--duration", "0.25"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "has no segments" in err
    assert not one_window.exists()

    # a subset of one subject cannot be split, and the error names it
    (tmp_path / "w.csv").write_text("0.0\n" * 500)
    (tmp_path / "w.beats").write_text("0.5\n")
    one_subject = tmp_path / "one-subject.txt"
    one_subject.write_text("record=w subject=p tag=Arrhythmia csv=w.csv "
                           "fs=250 value_col=0 beats=w.beats header=false\n")
    for argv, subset in [
            (["build-dataset", "--subjects", "3",
              "--tags", "NormalSinus,Arrhythmia"], "Arrhythmia"),
            (["build-dataset", "--subjects", "1"], "NormalSinus+LongTerm"),
            (["ingest", "--manifest", str(one_subject)], "Arrhythmia")]:
        assert main([*argv, "--out", str(tmp_path / "o10")]) == 2
        err = capsys.readouterr().err
        assert (f"data error: subset {subset}: need at least 2 subjects "
                f"to split, got 1") in err
        assert not (tmp_path / "o10").exists()

    # at 4 Hz the last of 81 samples is a window of one sample, and the
    # error names the record it is in
    (tmp_path / "w81.csv").write_text("0.0\n" * 81)
    slow = tmp_path / "slow.txt"
    slow.write_text("".join(
        f"record=w{k} subject=p{k} tag=Arrhythmia csv=w81.csv fs=4 "
        f"value_col=0 beats=w.beats header=false\n" for k in range(3)))
    assert main(["ingest", "--manifest", str(slow),
                 "--out", str(tmp_path / "o11")]) == 2
    err = capsys.readouterr().err
    assert re.search(r"data error: record 'w\d': need at least 2 samples "
                     r"to interpolate, got 1", err)
    assert not (tmp_path / "o11").exists()

    # report on run files it cannot read
    run = tmp_path / "run"
    run.mkdir()
    one_metric = {"point": "high", "boot_mean": 0, "ci_low": 0, "ci_high": 0}
    for name, text in [("reports.json", '{"x": 1}'),
                       ("reports.json", "garbage"),
                       ("reports.json", '[{"metrics": {}}]'),
                       ("reports.json", json.dumps([{"metrics": dict.fromkeys(
                           ("mcc", "precision", "sensitivity", "f1"),
                           one_metric)}])),
                       ("run_info.json", "[1]"),
                       # a snapshot with a key this version does not know
                       ("config.ini", "[network]\npool_kernel = 2\n")]:
        for stale in run.iterdir():
            stale.unlink()
        if name != "reports.json":
            (run / "reports.json").write_text("[]")  # no reports, but valid
        (run / name).write_text(text)
        assert main(["report", "--dir", str(run)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(run / name) in err

    # ingest inputs that name a bad rate, hold bytes that are not UTF-8,
    # an oversized CSV field or a bad beat time, or list no record; each
    # names the input and writes nothing
    src = tmp_path / "src"
    src.mkdir()
    for name, fs in (("rn", float("nan")), ("ri", float("inf"))):
        write_wfdb_record(src, name, fs, [[0] * 500],
                          annotation_bytes=simple_annotation_stream([]))
    (src / "w.csv").write_text("0.0\n" * 500)
    (src / "w.beats").write_text("0.5\n")
    (src / "latin.csv").write_bytes(b"caf\xe9\n0.0\n")
    (src / "latin.beats").write_bytes(b"# caf\xe9\n0.5\n")
    (src / "huge.csv").write_text("1" * 200_000 + "\n")
    (src / "inf.beats").write_text("inf\n")
    manifest = src / "manifest.txt"

    def csv_line(fs="250", csv="w.csv", beats="w.beats"):
        return (f"record=w subject=p tag=BaselineFlexComp csv={csv} fs={fs} "
                f"value_col=0 beats={beats} header=false\n").encode()

    out = tmp_path / "o8"
    for text, where in [
            (b"record=rn subject=s tag=Arrhythmia hea=rn.hea ann=rn.atr\n",
             "record 'rn': fs must be a finite rate > 0, got nan"),
            (b"record=ri subject=s tag=Arrhythmia hea=ri.hea ann=ri.atr\n",
             "record 'ri': fs must be a finite rate > 0, got inf"),
            (csv_line(fs="nan"),
             "record 'w': fs must be a finite rate > 0, got nan"),
            (b"# caf\xe9\n", str(manifest)),
            (csv_line(csv="latin.csv"), str(src / "latin.csv")),
            (csv_line(beats="latin.beats"), str(src / "latin.beats")),
            (csv_line(csv="huge.csv"),
             "record 'w': CSV line 1: field larger than field limit"),
            (csv_line(beats="inf.beats"), "record 'w': bad beat time inf"),
            (b"# no records\n", f"manifest {manifest} lists no record")]:
        manifest.write_bytes(text)
        assert main(["ingest", "--manifest", str(manifest),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and where in err
        assert not out.exists()


@pytest.mark.parametrize("damage", ["seven-bytes", "another-cache"])
def test_bad_later_target_cache_leaves_no_out(tmp_path, capsys, damage):
    # experiments 2 and 3 load every target's caches before they create
    # --out, so a bad cache of the last target leaves nothing behind of
    # the targets before it
    cfg = fast_config(tmp_path)
    caches = build_caches(tmp_path)
    ckpt = fast_checkpoint(tmp_path, cfg)
    bad = cache_file(caches, "BaselineFlexComp", TEST)
    if damage == "seven-bytes":
        bad.write_bytes(b"damaged")
        message = str(bad)
    else:
        bad.write_bytes(cache_file(caches, "Arrhythmia", TRAIN).read_bytes())
        message = (f"cache {bad} holds Arrhythmia Train, expected "
                   f"BaselineFlexComp Test")
    for experiment_id in ("2", "3"):
        out = tmp_path / f"exp{experiment_id}"
        assert main(["experiment", "--id", experiment_id,
                     "--caches", str(caches), "--out", str(out),
                     "--config", cfg, "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and message in err
        assert not out.exists()


def test_experiment_without_target_caches_exits_2(tmp_path, capsys):
    cfg = fast_config(tmp_path)
    caches = build_caches(tmp_path, tags="NormalSinus,LongTerm", subjects=4)
    ckpt = fast_checkpoint(tmp_path, cfg)
    for experiment_id in ("2", "3"):
        out = tmp_path / f"exp{experiment_id}"
        assert main(["experiment", "--id", experiment_id,
                     "--caches", str(caches), "--out", str(out),
                     "--config", cfg, "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert f"data error: no target subset caches in {caches}" in err
        assert not out.exists()


def test_target_with_one_cache_exits_2(tmp_path, capsys):
    # ingest writes a subset's two caches together: a target with one of
    # them is refused, naming the other, not dropped from the protocol
    cfg = fast_config(tmp_path)
    caches = build_caches(tmp_path)
    ckpt = fast_checkpoint(tmp_path, cfg)
    for partition in (TEST, TRAIN):
        gone = cache_file(caches, "Arrhythmia", partition)
        kept = gone.read_bytes()
        gone.unlink()
        for experiment_id in ("2", "3"):
            out = tmp_path / f"exp{experiment_id}"
            assert main(["experiment", "--id", experiment_id,
                         "--caches", str(caches), "--out", str(out),
                         "--config", cfg, "--checkpoint", str(ckpt)]) == 2
            err = capsys.readouterr().err
            assert (f"data error: no cache for Arrhythmia {partition} at "
                    f"{gone}" in err)
            assert not out.exists()
        gone.write_bytes(kept)


def test_module_entry_points_exit_with_one_message(tmp_path):
    """``python -m beatnet`` and ``python -m beatnet.cli`` both run the
    CLI: an error is an exit code and one message line (so no
    traceback), and neither import raises a warning."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for module, argv, code in [
            ("beatnet", ["experiment", "--id", "7", "--caches", "x",
                         "--out", str(tmp_path / "o")], 1),
            ("beatnet.cli", ["report", "--dir", str(tmp_path / "missing")],
             2)]:
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", module, *argv], env=env,
            capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert re.match(r"beatnet: (usage|data) error: ", lines[0])
    assert not (tmp_path / "o").exists()


def test_every_error_class_has_an_exit_code(monkeypatch):
    classes = {name for name, cls in inspect.getmembers(errors,
                                                        inspect.isclass)
               if cls.__module__ == errors.__name__}
    assert classes == {"BeatnetError", "UsageError", "DataError",
                       "NumericError"}
    for code, cls in enumerate((UsageError, DataError, NumericError), 1):
        assert issubclass(cls, errors.BeatnetError)

        def fail(args, cls=cls):
            raise cls("x")

        monkeypatch.setattr("beatnet.cli._cmd_report", fail)
        assert main(["report", "--dir", "x"]) == code


def test_package_raises_only_error_families():
    # every raise in the package names one of the three classes the CLI
    # maps to an exit code; a bare raise re-raises what it caught
    families = {"UsageError", "DataError", "NumericError"}
    package = Path(errors.__file__).parent
    others = []
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(
                exc, "id", None)
            if name not in families:
                others.append(f"{source.name}:{node.lineno} raises "
                              f"{ast.unparse(node.exc)}")
    assert others == []


def test_numeric_errors_exit_3(tmp_path, capsys):
    # a pathological learning rate blows the parameters up; the loop
    # reports the non-finite loss instead of training on garbage
    cfg = fast_config(tmp_path, extra_train="lr = 1e20\n")
    caches = build_caches(tmp_path, tags="NormalSinus,LongTerm", subjects=4)
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--caches", str(caches),
                     "--out", str(tmp_path / "o"), "--config", cfg])
    assert code == 3
    assert "numeric error" in capsys.readouterr().err


def test_numeric_errors_exit_3_on_threads(tmp_path, capsys, monkeypatch):
    # the helper threads of training and scoring keep the caller's
    # np.errstate, so they raise nothing the caller would not
    monkeypatch.setattr(segments, "WORKERS", 2)
    test_numeric_errors_exit_3(tmp_path, capsys)
