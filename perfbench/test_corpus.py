"""Tests of the generated WFDB corpus and the label oracle.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import numpy as np

import corpus
from beatnet import segments, wfdb_io
from beatnet.records import RecordSource, load_record


def _small_record(tmp_path, fs=128, seconds=120, tag="Arrhythmia"):
    rng = np.random.default_rng(5)
    rec, adc, events = corpus.synth_record("r1", "db", tag, fs, seconds,
                                           1024, rng)
    corpus.write_record(tmp_path, rec, adc, events)
    return rec, adc, events


def test_streams_carry_skip_aux_and_non_beat_codes(tmp_path):
    rec, adc, events = _small_record(tmp_path)
    stream = (tmp_path / "db" / "r1.atr").read_bytes()
    words = np.frombuffer(stream, dtype="<u2")
    assert corpus.SKIP in set((words >> 10).tolist())
    assert any(aux for _, _, aux in events)
    non_beat = set(rec.event_codes.tolist()) - {corpus.NORMAL, corpus.PVC}
    assert {corpus.NOISE, corpus.RHYTHM, corpus.NOTE} <= non_beat
    assert corpus.PVC in set(rec.event_codes.tolist())
    assert corpus.verify_record(tmp_path, rec, adc) == []


def test_verify_reports_a_corrupted_signal(tmp_path):
    rec, adc, _ = _small_record(tmp_path)
    dat = tmp_path / "db" / "r1.dat"
    raw = bytearray(dat.read_bytes())
    raw[300] ^= 0x01
    dat.write_bytes(bytes(raw))
    assert corpus.verify_record(tmp_path, rec, adc) == [
        "r1: channel 0 ADC values differ"]


def test_expected_labels_match_the_package_windowing(tmp_path):
    for fs in (128, 360):
        rec, _, _ = _small_record(tmp_path / str(fs), fs=fs)
        source = RecordSource("r1", "r1", "Arrhythmia", "wfdb",
                              paths={"hea": "db/r1.hea", "ann": "db/r1.atr"})
        loaded = load_record(source, tmp_path / str(fs))
        _, y = segments.segment_arrays(loaded)
        assert y.size == rec.n_windows == 4 * 120
        assert np.array_equal(y, corpus.expected_labels(
            rec.beat_samples, rec.fs, rec.n_windows))
        assert 0 < y.mean() < 1


def test_windows_stop_at_the_cap():
    rng = np.random.default_rng(0)
    rec, _, _ = corpus.synth_record("long", "ltdb", "LongTerm", 8, 4000, 0, rng)
    assert rec.n_samples == 8 * 4000
    assert rec.n_windows == 4 * corpus.MAX_SECONDS


def test_headers_parse_with_the_adc_zero_as_baseline(tmp_path):
    rec, _, _ = _small_record(tmp_path)
    header = wfdb_io.parse_header((tmp_path / "db" / "r1.hea").read_text())
    assert header.n_signals == 2 and header.n_samples == rec.n_samples
    assert all(s.baseline == 1024 and s.gain == corpus.GAIN
               and s.format_code == 212 for s in header.signals)
