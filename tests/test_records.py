"""Record model, CSV ingestion and manifest tests."""

import numpy as np
import pytest

from beatnet.errors import DataError
from beatnet.records import (
    DATA_ROOT_ENV,
    DATASET_TAGS,
    CsvSchema,
    EcgRecord,
    ingest_csv,
    load_manifest,
    load_record,
    parse_manifest,
)

from helpers import ann_word, end_marker, write_wfdb_record


def make_record(**overrides):
    kwargs = dict(record_id="r", subject_id="s", dataset_tag="NormalSinus",
                  fs=250.0, samples=np.zeros(500, dtype=np.float32),
                  beat_samples=np.array([10, 200], dtype=np.int64))
    kwargs.update(overrides)
    return EcgRecord(**kwargs)


# --- EcgRecord invariants ---


def test_record_duration_and_beat_times():
    rec = make_record()
    assert rec.duration == 2.0
    np.testing.assert_allclose(rec.beat_times, [0.04, 0.8])


def test_record_rejects_bad_tag():
    with pytest.raises(DataError):
        make_record(dataset_tag="Cardiology")


def test_record_rejects_empty_or_2d_samples():
    with pytest.raises(DataError):
        make_record(samples=np.zeros(0, dtype=np.float32),
                    beat_samples=np.zeros(0, dtype=np.int64))
    with pytest.raises(DataError):
        make_record(samples=np.zeros((5, 2), dtype=np.float32))


def test_record_rejects_non_finite_samples():
    bad = np.zeros(100, dtype=np.float32)
    bad[3] = np.nan
    with pytest.raises(DataError):
        make_record(samples=bad, beat_samples=np.zeros(0, dtype=np.int64))


def test_record_rejects_beats_outside_signal():
    with pytest.raises(DataError):
        make_record(beat_samples=np.array([500], dtype=np.int64))
    with pytest.raises(DataError):
        make_record(beat_samples=np.array([-1, 5], dtype=np.int64))


def test_record_rejects_non_increasing_beats():
    with pytest.raises(DataError,
                       match="^beat indices not strictly increasing"):
        make_record(beat_samples=np.array([10, 10], dtype=np.int64))
    with pytest.raises(DataError,
                       match="^beat indices not strictly increasing"):
        make_record(beat_samples=np.array([10, 5], dtype=np.int64))


def test_record_rejects_bad_fs():
    for fs in (0.0, np.nan, np.inf):
        with pytest.raises(DataError, match="sampling rate must be finite"):
            make_record(fs=fs)


# --- CSV ingestion ---


def test_ingest_csv_values_only():
    rec = ingest_csv("0.1\n0.2\n0.3\n", CsvSchema("0", has_header=False),
                     fs=250.0)
    assert rec.samples.dtype == np.float32
    np.testing.assert_allclose(rec.samples, [0.1, 0.2, 0.3], atol=1e-7)
    assert rec.beat_samples.size == 0
    assert rec.fs == 250.0


def test_ingest_csv_named_columns_and_marker():
    text = "t,ecg,beat\n0.000,0.1,0\n0.004,0.9,1\n0.008,0.2,\n0.012,0.8,2\n"
    schema = CsvSchema("ecg", time_col="t", marker_col="beat")
    rec = ingest_csv(text, schema, fs=250.0)
    np.testing.assert_allclose(rec.samples, [0.1, 0.9, 0.2, 0.8], atol=1e-7)
    np.testing.assert_array_equal(rec.beat_samples, [1, 3])


def test_ingest_csv_beat_times_round_to_samples():
    samples = "\n".join(["0.0"] * 300)
    rec = ingest_csv(samples, CsvSchema("0", has_header=False), fs=250.0,
                     beat_times=np.array([0.5, 1.0]))
    np.testing.assert_array_equal(rec.beat_samples, [125, 250])


def test_ingest_csv_beat_times_merge_on_rounding():
    samples = "\n".join(["0.0"] * 10)
    rec = ingest_csv(samples, CsvSchema("0", has_header=False), fs=10.0,
                     beat_times=np.array([0.30, 0.31]))
    np.testing.assert_array_equal(rec.beat_samples, [3])


def test_ingest_csv_both_beat_sources_rejected():
    with pytest.raises(DataError, match="beats given twice"):
        ingest_csv("0.0\n", CsvSchema("0", marker_col="1", has_header=False),
                   fs=10.0, beat_times=np.array([0.1]))


def test_ingest_csv_missing_column():
    with pytest.raises(DataError, match="column 'ecg' not found"):
        ingest_csv("a,b\n1,2\n", CsvSchema("ecg"), fs=10.0)
    with pytest.raises(DataError, match="column index 5 out of range"):
        ingest_csv("1,2\n", CsvSchema("5", has_header=False), fs=10.0)


def test_ingest_csv_ragged_row():
    with pytest.raises(DataError, match="row 2 has 1 columns, expected 2"):
        ingest_csv("a,b\n1,2\n3\n", CsvSchema("a"), fs=10.0)


def test_ingest_csv_non_numeric_value():
    with pytest.raises(DataError, match="row 2: non-numeric sample value"):
        ingest_csv("a\n1\nx\n", CsvSchema("a"), fs=10.0)


def test_ingest_csv_empty():
    with pytest.raises(DataError, match="CSV is empty"):
        ingest_csv("", CsvSchema("a"), fs=10.0)
    with pytest.raises(DataError, match="CSV has no data rows"):
        ingest_csv("a,b\n", CsvSchema("a"), fs=10.0)


def test_ingest_csv_time_column_must_increase():
    text = "t,v\n0.0,1\n0.2,2\n0.1,3\n"
    with pytest.raises(DataError,
                       match="CSV time column is not strictly increasing"):
        ingest_csv(text, CsvSchema("v", time_col="t"), fs=10.0)


def test_ingest_csv_unsorted_beat_times():
    with pytest.raises(DataError,
                       match="beat times are not strictly increasing"):
        ingest_csv("0.0\n0.0\n", CsvSchema("0", has_header=False), fs=10.0,
                   beat_times=np.array([0.2, 0.1]))


# bad input must end in DataError alone, with no NumPy warning on the way
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e300, 1.0, -0.1])
def test_ingest_csv_bad_beat_time(bad):
    with pytest.raises(DataError, match="bad beat time"):
        ingest_csv("0.0\n" * 10, CsvSchema("0", has_header=False), fs=10.0,
                   beat_times=np.array([bad]))


@pytest.mark.parametrize("value", ["1e300", "-1e39", "inf", "nan"])
def test_ingest_csv_sample_beyond_float32(value):
    with pytest.raises(DataError, match=f"row 2: sample value '{value}' is "
                                        f"not a finite float32"):
        ingest_csv(f"0.0\n{value}\n", CsvSchema("0", has_header=False),
                   fs=10.0)


def test_ingest_csv_oversized_field():
    with pytest.raises(DataError, match="CSV line 2: field larger than "
                                        "field limit"):
        ingest_csv("0.0\n" + "1" * 200_000 + "\n0.0\n",
                   CsvSchema("0", has_header=False), fs=10.0)


# --- manifest parsing ---


GOOD_MANIFEST = """
# ECG corpus
record=100 subject=100 tag=Arrhythmia hea=mitdb/100.hea ann=mitdb/100.atr channel=1
record=w01 subject=p01 tag=BaselineFlexComp csv=wcs/p01.csv fs=256 value_col=ecg marker_col=beat header=false
record=w02 subject=p02 tag=MovementComfTech csv=wcs/p02.csv fs=130 value_col=0 beats=wcs/p02.beats header=false
"""


def test_parse_manifest_good():
    sources = parse_manifest(GOOD_MANIFEST)
    assert [s.record_id for s in sources] == ["100", "w01", "w02"]
    wfdb, csv1, csv2 = sources
    assert wfdb.kind == "wfdb"
    assert wfdb.channel == 1
    assert wfdb.paths == {"hea": "mitdb/100.hea", "ann": "mitdb/100.atr"}
    assert csv1.kind == "csv"
    assert csv1.fs == 256.0
    assert csv1.schema.value_col == "ecg"
    assert csv1.schema.marker_col == "beat"
    assert not csv1.schema.has_header
    assert csv2.paths["beats"] == "wcs/p02.beats"
    assert csv2.schema.marker_col is None


# manifest line -> a phrase only its raise site emits
BAD_MANIFEST_LINES = {
    "record=1 subject=1 tag=Arrhythmia":
        "record needs either hea= or csv=",
    "record=1 subject=1 tag=Arrhythmia hea=a.hea":
        "WFDB record needs ann=",
    "record=1 subject=1 tag=Arrhythmia csv=a.csv fs=10":  # no value_col
        "CSV record needs fs= and value_col=",
    "record=1 subject=1 tag=Arrhythmia csv=a.csv value_col=0":  # no fs
        "CSV record needs fs= and value_col=",
    "record=1 subject=1 hea=a.hea ann=a.atr":
        "missing tag=",
    "record=1 subject=1 tag=Nope hea=a.hea ann=a.atr":
        "unknown tag 'Nope'",
    "record=1 subject=1 tag=Arrhythmia hea=a.hea ann=a.atr extra=1":
        r"WFDB record does not take keys \['extra'\]",
    "record=1 subject=1 tag=Arrhythmia hea=a.hea ann=a.atr fs=500 "
    "value_col=3":
        r"WFDB record does not take keys \['fs', 'value_col'\]",
    "record=1 subject=1 tag=Arrhythmia csv=a.csv fs=1 value_col=0 "
    "channel=1 ann=x.atr":
        r"CSV record does not take keys \['ann', 'channel'\]",
    "record=1 subject=1 tag=Arrhythmia hea=a.hea ann=a.atr channel=x":
        "channel must be an integer",
    "record=1 subject=1 tag=Arrhythmia hea=a.hea ann=a.atr csv=a.csv fs=1 "
    "value_col=0":
        r"record is both WFDB \(hea=\) and CSV",
    "record=1 record=1 subject=1 tag=Arrhythmia hea=a.hea ann=a.atr":
        "duplicate key 'record'",
    "record=1 subject=1 tag=Arrhythmia hea=a.hea ann=a.atr junk":
        "token 'junk' is not key=value",
    "record=1 subject=1 tag=Arrhythmia csv=a.csv fs=ten value_col=0":
        "fs must be numeric",
    "record=1 subject=1 tag=Arrhythmia csv=a.csv fs=1 value_col=0 "
    "header=maybe":
        "header= must be true or false",
}


@pytest.mark.parametrize("line", list(BAD_MANIFEST_LINES))
def test_parse_manifest_bad_lines(line):
    with pytest.raises(DataError, match=f"line 1: {BAD_MANIFEST_LINES[line]}"):
        parse_manifest(line + "\n")


def test_parse_manifest_duplicate_record_ids():
    text = ("record=1 subject=a tag=Arrhythmia hea=a.hea ann=a.atr\n"
            "record=1 subject=b tag=Arrhythmia hea=b.hea ann=b.atr\n")
    with pytest.raises(DataError, match="line 2: duplicate record id '1'"):
        parse_manifest(text)


def test_load_manifest_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read manifest .*nope"):
        load_manifest(tmp_path / "nope.manifest")


# --- loading records from disk ---


def beat_stream(indices):
    out = bytearray()
    prev = 0
    for idx in indices:
        out += ann_word(1, idx - prev)  # code 1 = normal beat
        prev = idx
    out += end_marker()
    return bytes(out)


def load_all(manifest):
    """Every record a manifest lists, loaded as ``run_ingest`` loads them."""
    sources, root = load_manifest(manifest)
    return [load_record(source, root) for source in sources]


def test_load_wfdb_record(tmp_path):
    adc = np.arange(-50, 50, dtype=np.int64)
    write_wfdb_record(tmp_path, "r0", fs=100.0, adc_channels=[adc],
                      gain=100.0, baseline=0,
                      annotation_bytes=beat_stream([10, 40, 90]))
    manifest = tmp_path / "corpus.manifest"
    manifest.write_text(
        "record=r0 subject=s0 tag=Arrhythmia hea=r0.hea ann=r0.atr\n")
    records = load_all(manifest)
    assert len(records) == 1
    rec = records[0]
    assert rec.fs == 100.0
    assert rec.subject_id == "s0"
    np.testing.assert_allclose(rec.samples, adc / 100.0, atol=1e-7)
    np.testing.assert_array_equal(rec.beat_samples, [10, 40, 90])


def test_load_wfdb_record_second_channel(tmp_path):
    ch0 = np.zeros(20, dtype=np.int64)
    ch1 = np.arange(20, dtype=np.int64)
    write_wfdb_record(tmp_path, "r1", fs=50.0, adc_channels=[ch0, ch1],
                      gain=1.0, annotation_bytes=end_marker())
    manifest = tmp_path / "m"
    manifest.write_text(
        "record=r1 subject=s tag=Arrhythmia hea=r1.hea ann=r1.atr channel=1\n")
    rec = load_all(manifest)[0]
    np.testing.assert_array_equal(rec.samples, ch1.astype(np.float32))
    assert rec.beat_samples.size == 0


def test_load_wfdb_record_clips_beats_past_signal_end(tmp_path):
    write_wfdb_record(tmp_path, "r2", fs=10.0,
                      adc_channels=[np.ones(30, dtype=np.int64)],
                      annotation_bytes=beat_stream([5, 29, 500]))
    manifest = tmp_path / "m"
    manifest.write_text(
        "record=r2 subject=s tag=Arrhythmia hea=r2.hea ann=r2.atr\n")
    rec = load_all(manifest)[0]
    np.testing.assert_array_equal(rec.beat_samples, [5, 29])


def test_load_wfdb_record_channel_out_of_range(tmp_path):
    write_wfdb_record(tmp_path, "r3", fs=10.0,
                      adc_channels=[np.zeros(10, dtype=np.int64)],
                      annotation_bytes=end_marker())
    manifest = tmp_path / "m"
    manifest.write_text(
        "record=r3 subject=s tag=Arrhythmia hea=r3.hea ann=r3.atr channel=5\n")
    with pytest.raises(DataError):
        load_all(manifest)


def test_load_wfdb_record_missing_dat(tmp_path):
    write_wfdb_record(tmp_path, "r4", fs=10.0,
                      adc_channels=[np.zeros(10, dtype=np.int64)],
                      annotation_bytes=end_marker())
    (tmp_path / "r4.dat").unlink()
    manifest = tmp_path / "m"
    manifest.write_text(
        "record=r4 subject=s tag=Arrhythmia hea=r4.hea ann=r4.atr\n")
    with pytest.raises(DataError):
        load_all(manifest)


def test_load_csv_record_with_beats_file(tmp_path):
    (tmp_path / "w.csv").write_text("\n".join(str(0.01 * i) for i in range(50)))
    (tmp_path / "w.beats").write_text("# times in seconds\n0.5\n1.5\n")
    manifest = tmp_path / "m"
    manifest.write_text(
        "record=w subject=p tag=BaselineComfTech csv=w.csv fs=25 "
        "value_col=0 beats=w.beats header=false\n")
    rec = load_all(manifest)[0]
    assert rec.samples.size == 50
    np.testing.assert_array_equal(rec.beat_samples, [12, 38])


def test_load_csv_record_bad_beats_file(tmp_path):
    (tmp_path / "w.csv").write_text("0.0\n0.1\n")
    (tmp_path / "w.beats").write_text("soon\n")
    manifest = tmp_path / "m"
    manifest.write_text(
        "record=w subject=p tag=BaselineComfTech csv=w.csv fs=25 "
        "value_col=0 beats=w.beats header=false\n")
    with pytest.raises(DataError, match="^non-numeric beat time"):
        load_all(manifest)


def test_data_root_env_overrides_manifest_dir(tmp_path, monkeypatch):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_wfdb_record(data_dir, "r5", fs=10.0,
                      adc_channels=[np.zeros(10, dtype=np.int64)],
                      annotation_bytes=end_marker())
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    manifest = elsewhere / "m"
    manifest.write_text(
        "record=r5 subject=s tag=Arrhythmia hea=r5.hea ann=r5.atr\n")
    # without the override the files are not next to the manifest
    monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
    with pytest.raises(DataError):
        load_all(manifest)
    monkeypatch.setenv(DATA_ROOT_ENV, str(data_dir))
    assert len(load_all(manifest)) == 1


def test_dataset_tags_cover_all_sources():
    assert len(DATASET_TAGS) == 6
    assert len(set(DATASET_TAGS)) == 6
