"""Command-line interface tests: exit codes, run outputs, determinism."""

import dataclasses
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from beatnet import errors
from beatnet.cli import main
from beatnet.config import Settings, load_settings, parse_fraction, \
    render_snapshot
from beatnet.errors import DataError, NumericError, UsageError
from beatnet.experiments import cache_file
from beatnet.metrics import reports_from_json
from beatnet.nn import NetworkConfig, init_params
from beatnet.segments import SEGMENT_LENGTH, TEST, LabeledDataset, \
    load_cache, save_cache
from beatnet.train import save_checkpoint

from helpers import BAD_GEOMETRY, edit_checkpoint_header, reframe, \
    simple_annotation_stream, write_wfdb_record

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


# --- experiment protocol ---


def test_experiment_pipeline(tmp_path):
    cfg = fast_config(tmp_path)
    caches = build_caches(tmp_path)
    runs = tmp_path / "runs"

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
                  ["--subjects", "-3"], ["--fs", "0"], ["--fs", "nan"]):
        assert main(["build-dataset", "--out", str(tmp_path / "c"),
                     *flags]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and flags[0] in err
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


def test_data_errors_exit_2(tmp_path, capsys):
    cfg = fast_config(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["experiment", "--id", "1", "--caches", str(empty),
                 "--out", str(tmp_path / "o1"), "--config", cfg]) == 2
    assert main(["experiment", "--id", "2", "--caches", str(empty),
                 "--out", str(tmp_path / "o2"), "--config", cfg]) == 2
    caches = build_caches(tmp_path, tags="NormalSinus,LongTerm", subjects=4)
    assert main(["experiment", "--id", "2", "--caches", str(caches),
                 "--out", str(tmp_path / "o3"), "--config", cfg,
                 "--checkpoint", str(tmp_path / "missing.hbdl")]) == 2
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

    # a cache with no segments
    short = tmp_path / "short"
    short.mkdir()
    save_cache(LabeledDataset(
        "NormalSinus+LongTerm", TEST,
        np.empty((0, SEGMENT_LENGTH), np.float32), np.empty(0, np.uint8),
        np.empty(0, np.uint32), np.empty(0, np.uint32), ()),
        cache_file(short, "NormalSinus+LongTerm", TEST))
    assert main(["evaluate", "--caches", str(short),
                 "--subset", "NormalSinus+LongTerm", "--partition", "Test",
                 "--checkpoint", str(good),
                 "--out", str(tmp_path / "o7"), "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "NormalSinus+LongTerm Test" in err

    # one window's worth of samples at 250 Hz rounds down to 62, which
    # holds no window: nothing is written
    one_window = tmp_path / "one-window"
    assert main(["build-dataset", "--out", str(one_window),
                 "--duration", "0.25"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "has no segments" in err
    assert not one_window.exists()

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
