"""Header parsing, signal decoding and annotation decoding tests.

Byte-level cases are checked against the scalar reference packers in
helpers.py, which share no code with the vectorized decoders.
"""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from beatnet.errors import DataError
from beatnet.wfdb_io import (
    DEFAULT_BEAT_SYMBOLS,
    DEFAULT_GAIN,
    SYMBOL_TO_CODE,
    decode_signal,
    encode_212,
    filter_beats,
    parse_annotations,
    parse_header,
    resolve_beat_codes,
)

from helpers import (
    ann_word,
    aux_block,
    end_marker,
    ref_pack_16,
    ref_pack_212,
    ref_unpack_212,
    simple_annotation_stream,
    skip_block,
)


def header_for(n_samples, fmt=212, gain=1.0, baseline=0, n_signals=1,
               fs=250, file_names=None, units=None):
    lines = [f"X {n_signals} {fs} {n_samples}"]
    for ch in range(n_signals):
        fname = file_names[ch] if file_names else "X.dat"
        unit = units[ch] if units else "mV"
        lines.append(f"{fname} {fmt} {gain:g}({baseline})/{unit} "
                     f"12 0 0 0 0 ch{ch}")
    return parse_header("\n".join(lines))


# --- header parsing ---


def test_parse_minimal_header():
    hdr = parse_header("X 1 250 1000\nX.dat 16\n")
    assert hdr.record_name == "X"
    assert hdr.n_signals == 1
    assert hdr.fs == 250.0
    assert hdr.n_samples == 1000
    assert hdr.signals[0].file_name == "X.dat"
    assert hdr.signals[0].format_code == 16
    # gain and baseline default when the line stops after the format
    assert hdr.signals[0].gain == DEFAULT_GAIN
    assert hdr.signals[0].baseline == 0


def test_parse_two_signal_header_with_adc_zero_baseline():
    text = ("100 2 360 650000 0:0:0 0/0/0\n"
            "100.dat 212 200 11 1024 995 -22131 0 MLII\n"
            "100.dat 212 200 11 1024 1011 20052 0 V5\n")
    hdr = parse_header(text)
    assert hdr.n_signals == 2
    assert hdr.fs == 360.0
    assert hdr.n_samples == 650000
    for spec, desc in zip(hdr.signals, ("MLII", "V5")):
        assert spec.file_name == "100.dat"
        assert spec.format_code == 212
        assert spec.gain == 200.0
        assert spec.baseline == 1024  # no (baseline), falls back to ADC zero
        assert spec.description == desc


def test_parse_header_gain_variants():
    hdr = parse_header("X 1 250 10\nX.dat 212 0(12)/mV 12 0 0 0 0 s\n")
    assert hdr.signals[0].gain == DEFAULT_GAIN  # stored 0 means unspecified
    assert hdr.signals[0].baseline == 12

    hdr = parse_header("X 1 250 10\nX.dat 212 100.5(-3)/uV 12 7 0 0 0 s\n")
    assert hdr.signals[0].gain == 100.5
    assert hdr.signals[0].baseline == -3  # explicit baseline beats ADC zero
    assert hdr.signals[0].units == "uV"


def test_parse_header_counter_frequency_and_comments():
    text = ("# a comment\n"
            "\n"
            "rec 1 360/21600(0) 99\n"
            "rec.dat 16 200(0)/mV 16 0 0 0 0 s\n"
            "# trailing comment\n")
    hdr = parse_header(text)
    assert hdr.fs == 360.0
    assert hdr.n_samples == 99


# header text -> a phrase only its raise site emits
MALFORMED_HEADERS = {
    "": "empty header",
    "# only a comment\n": "empty header",
    "X 1 250\n": "record line needs name",  # record line too short
    "X one 250 1000\nX.dat 16\n": "non-numeric record line field",
    "X 0 250 1000\n": "n_signals must be >= 1",
    "X 1 0 1000\nX.dat 16\n": "fs must be a finite rate > 0, got 0",
    "X 1 nan 1000\nX.dat 16\n": "fs must be a finite rate > 0, got nan",
    "X 1 inf 1000\nX.dat 16\n": "fs must be a finite rate > 0, got inf",
    "X 1 250 0\nX.dat 16\n": "n_samples must be >= 1",  # empty record
    "X 2 250 10\nX.dat 16\n": "declares 2 signals but has 1 signal lines",
    "X 1 250 10\nX.dat\n": "signal line too short",
    "X 1 250 10\nX.dat 16 bogus\n": "unparseable gain field 'bogus'",
    # a gain the pattern once let through
    "X 1 250 10\nX.dat 16 1e+e\n": r"unparseable gain field '1e\+e'",
    "X 1 250 10\nX.dat 16 --5(0)/mV\n": "unparseable gain field '--5",
    # baselines are C ints in WFDB; NumPy would refuse these at decode
    "r 1 250 10\nr.dat 16 200(99999999999) 16 0\n":
        r"baseline 99999999999 in 'r.dat 16 200\(99999999999\) 16 0' is "
        r"outside the signed 32-bit range",
    "X 1 250 10\nX.dat 16 200(-2147483649)\n":
        "baseline -2147483649 in .* outside the signed 32-bit range",
    "X 1 250 10\nX.dat 212 200 12 2147483648\n":
        "ADC zero 2147483648 in .* outside the signed 32-bit range",
}


@pytest.mark.parametrize("text", list(MALFORMED_HEADERS))
def test_parse_header_malformed(text):
    with pytest.raises(DataError, match=MALFORMED_HEADERS[text]):
        parse_header(text)


UNSUPPORTED_HEADERS = {
    "X/3 2 250 1000\nX.dat 16\n": "multi-segment record 'X/3'",
    # 8-bit first differences
    "X 1 250 10\nX.dat 8\n": "signal format 8 not supported",
    "X 1 250 10\nX.dat 80\n": "signal format 80 not supported",
    "X 1 250 10\nX.dat 310\n": "signal format 310 not supported",
    # samples-per-frame, skew and byte-offset modifiers
    "X 1 250 10\nX.dat 212x2\n": "format modifiers in '212x2'",
    "X 1 250 10\nX.dat 212:1\n": "format modifiers in '212:1'",
    "X 1 250 10\nX.dat 212+8\n": r"format modifiers in '212\+8'",
}


@pytest.mark.parametrize("text", list(UNSUPPORTED_HEADERS))
def test_parse_header_unsupported(text):
    with pytest.raises(DataError, match=UNSUPPORTED_HEADERS[text]):
        parse_header(text)


# --- format 212 / 16 decoding ---


def test_decode_212_worked_example():
    hdr = header_for(2)
    mv = decode_signal(bytes([0x01, 0x00, 0x02]), hdr, 0)
    assert mv.dtype == np.float32
    np.testing.assert_array_equal(mv, np.array([1.0, 2.0], dtype=np.float32))


def test_decode_212_negative_example():
    # 0xFFF is -1 in 12-bit two's complement; high nibble of byte 1 is 0
    hdr = header_for(2)
    mv = decode_signal(bytes([0xFF, 0x0F, 0x00]), hdr, 0)
    np.testing.assert_array_equal(mv, np.array([-1.0, 0.0], dtype=np.float32))


def test_decode_212_boundary_values():
    hdr = header_for(4)
    raw = ref_pack_212([2047, -2048, 0, -1])
    mv = decode_signal(raw, hdr, 0)
    np.testing.assert_array_equal(
        mv, np.array([2047.0, -2048.0, 0.0, -1.0], dtype=np.float32))


def test_encode_212_matches_reference_packer():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 8, 257):
        vals = rng.integers(-2048, 2048, n)
        assert encode_212(vals) == ref_pack_212(vals.tolist())


def test_decode_212_round_trip_odd_and_even_lengths():
    rng = np.random.default_rng(8)
    for n in (1, 2, 5, 100, 333):
        vals = rng.integers(-2048, 2048, n)
        hdr = header_for(n)
        mv = decode_signal(ref_pack_212(vals.tolist()), hdr, 0)
        np.testing.assert_array_equal(mv, vals.astype(np.float32))
        # and the reference unpacker agrees with the reference packer
        assert ref_unpack_212(ref_pack_212(vals.tolist()), n) == vals.tolist()


def test_encode_212_rejects_out_of_range():
    with pytest.raises(DataError, match="12-bit"):
        encode_212(np.array([2048]))
    with pytest.raises(DataError, match="12-bit"):
        encode_212(np.array([-2049]))


def test_decode_16_round_trip():
    rng = np.random.default_rng(9)
    vals = rng.integers(-32768, 32768, 64)
    hdr = header_for(64, fmt=16)
    raw = ref_pack_16(vals.tolist())
    mv = decode_signal(raw, hdr, 0)
    np.testing.assert_array_equal(mv, vals.astype(np.float32))


def test_decode_applies_gain_and_baseline():
    hdr = header_for(3, fmt=16, gain=200.0, baseline=1024)
    raw = ref_pack_16([1024, 1224, 824])
    mv = decode_signal(raw, hdr, 0)
    np.testing.assert_allclose(mv, [0.0, 1.0, -1.0], atol=1e-7)


def test_decode_microvolt_signal():
    # gain is per unit of the signal line: 200 ADC units per uV
    raw = ref_pack_16([1200, -1200])
    mv = decode_signal(raw, header_for(2, fmt=16, gain=200.0), 0)
    assert mv.tobytes() == np.array([6.0, -6.0], np.float32).tobytes()
    uv = decode_signal(raw, header_for(2, fmt=16, gain=200.0,
                                       units=("uV",)), 0)
    assert uv.tobytes() == (np.array([1200, -1200], np.float32)
                            / np.float32(200_000)).tobytes()
    np.testing.assert_allclose(uv, [0.006, -0.006], rtol=1e-6)


def test_decode_refuses_other_units():
    # a channel in another unit is refused; its neighbour still decodes
    hdr = header_for(2, fmt=16, n_signals=2, units=("mV", "mmHg"))
    raw = ref_pack_16([1, 2, 3, 4])
    with pytest.raises(DataError,
                       match="signal file X.dat: units 'mmHg' not supported"):
        decode_signal(raw, hdr, 1)
    np.testing.assert_array_equal(decode_signal(raw, hdr, 0), [1.0, 3.0])


def test_decode_interleaved_channels():
    rng = np.random.default_rng(10)
    ch0 = rng.integers(-2048, 2048, 51)
    ch1 = rng.integers(-2048, 2048, 51)
    interleaved = np.empty(102, dtype=np.int64)
    interleaved[0::2] = ch0
    interleaved[1::2] = ch1
    hdr = header_for(51, n_signals=2)
    raw = ref_pack_212(interleaved.tolist())
    np.testing.assert_array_equal(decode_signal(raw, hdr, 0),
                                  ch0.astype(np.float32))
    np.testing.assert_array_equal(decode_signal(raw, hdr, 1),
                                  ch1.astype(np.float32))


def test_decode_channels_in_separate_files():
    # two signals, each in its own .dat: no interleaving within a file
    hdr = header_for(4, fmt=16, n_signals=2, file_names=["a.dat", "b.dat"])
    mv = decode_signal(ref_pack_16([5, 6, 7, 8]), hdr, 1)
    np.testing.assert_array_equal(mv, np.array([5, 6, 7, 8], np.float32))


def test_decode_truncated_data():
    hdr = header_for(4)
    raw = ref_pack_212([1, 2, 3, 4])
    with pytest.raises(DataError, match="format 212 needs 6 bytes"):
        decode_signal(raw[:-1], hdr, 0)
    hdr16 = header_for(4, fmt=16)
    with pytest.raises(DataError, match="format 16 needs 8 bytes"):
        decode_signal(ref_pack_16([1, 2, 3, 4])[:-1], hdr16, 0)


def test_decode_extreme_baselines_do_not_wrap():
    # int16 samples minus a 32-bit baseline leave the int16 and int32 range
    hdr = header_for(2, fmt=16, baseline=2**31 - 1)
    mv = decode_signal(ref_pack_16([-32768, 32767]), hdr, 0)
    assert mv.tobytes() == np.array([-32768 - (2**31 - 1),
                                     32767 - (2**31 - 1)],
                                    np.float32).tobytes()
    assert header_for(1, baseline=-2**31).signals[0].baseline == -2**31


# gain -> the float32 divisor it would give: overflows to inf (1e39),
# is inf already (1e400) or underflows to zero (1e-320)
BAD_GAINS = {"1e39": "1e+39", "1e400": "inf", "1e-320": "1e-320"}


@pytest.mark.parametrize("gain", list(BAD_GAINS))
def test_decode_refuses_gain_without_float32_divisor(gain):
    hdr = parse_header(f"X 1 250 2\nX.dat 16 {gain}(0)/mV\n")
    with pytest.raises(DataError, match=re.escape(
            f"signal file X.dat: gain {BAD_GAINS[gain]} per mV is not a "
            f"positive, normal float32 divisor")):
        decode_signal(ref_pack_16([1, 2]), hdr, 0)


def test_decode_refuses_microvolt_gain_that_overflows_divisor():
    # 1e36 is a float32, 1e36 * 1000 is not
    raw = ref_pack_16([1, 2])
    assert decode_signal(raw, header_for(2, fmt=16, gain=1e36), 0).all()
    with pytest.raises(DataError, match="gain 1e.36 per uV is not"):
        decode_signal(raw, header_for(2, fmt=16, gain=1e36,
                                      units=("uV",)), 0)


def test_decode_refuses_format_of_hand_built_header():
    hdr = header_for(2, fmt=16)
    spec = replace(hdr.signals[0], format_code=8)
    with pytest.raises(DataError, match="signal format 8 not supported"):
        decode_signal(ref_pack_16([1, 2]), replace(hdr, signals=(spec,)), 0)


def test_decode_signal_memory_is_bounded():
    # one hour of a 2-channel, 360 Hz format-212 record: int16 samples
    # until the final conversion, not int32 copies of every byte column
    n = 3600 * 360
    rng = np.random.default_rng(11)
    raw = encode_212(rng.integers(-2048, 2048, 2 * n))
    hdr = header_for(n, n_signals=2, gain=200.0, baseline=1024)
    tracemalloc.start()
    try:
        mv = decode_signal(raw, hdr, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mv.shape == (n,)
    assert peak < 5 * mv.nbytes, peak / mv.nbytes


def test_decode_channel_out_of_range():
    hdr = header_for(2, n_signals=2)
    raw = ref_pack_212([1, 2, 3, 4])
    with pytest.raises(DataError, match="channel 2 not in record"):
        decode_signal(raw, hdr, 2)
    with pytest.raises(DataError, match="channel -1 not in record"):
        decode_signal(raw, hdr, -1)


# --- annotation decoding ---


def test_parse_annotations_empty_stream():
    ann = parse_annotations(b"\x00\x00")
    assert len(ann) == 0
    assert ann.samples.tolist() == []
    assert ann.codes.tolist() == []


def test_parse_annotations_single_event():
    ann = parse_annotations(ann_word(1, 18) + end_marker())
    assert ann.samples.tolist() == [18]
    assert ann.codes.tolist() == [1]
    assert ann.samples.dtype == np.int64
    assert ann.codes.dtype == np.int16


def test_parse_annotations_accumulates_intervals():
    stream = simple_annotation_stream([(18, 1), (118, 5), (200, 1)])
    ann = parse_annotations(stream)
    assert ann.samples.tolist() == [18, 118, 200]
    assert ann.codes.tolist() == [1, 5, 1]


def test_parse_annotations_skip_extends_interval():
    # one hour at 360 Hz exceeds the 10-bit word interval by far
    stream = skip_block(1296000) + ann_word(1, 5) + end_marker()
    ann = parse_annotations(stream)
    assert ann.samples.tolist() == [1296005]
    assert ann.codes.tolist() == [1]


def test_parse_annotations_negative_skip():
    stream = (ann_word(1, 100) + skip_block(-30) + ann_word(5, 0)
              + end_marker())
    ann = parse_annotations(stream)
    assert ann.samples.tolist() == [100, 70]
    assert ann.codes.tolist() == [1, 5]


def test_parse_annotations_skip_underflow():
    stream = skip_block(-50) + ann_word(1, 10) + end_marker()
    with pytest.raises(DataError, match="cumulative sample index -40"):
        parse_annotations(stream)


def test_parse_annotations_field_words_are_skipped():
    stream = (ann_word(1, 10)
              + ann_word(60, 3)    # NUM
              + ann_word(61, 1)    # SUB
              + ann_word(62, 2)    # CHN
              + ann_word(5, 20) + end_marker())
    ann = parse_annotations(stream)
    assert ann.samples.tolist() == [10, 30]
    assert ann.codes.tolist() == [1, 5]


def test_parse_annotations_aux_payload_is_skipped():
    for payload in (b"abc", b"abcd"):  # odd payloads carry a pad byte
        stream = (ann_word(1, 10) + aux_block(payload)
                  + ann_word(5, 20) + end_marker())
        ann = parse_annotations(stream)
        assert ann.samples.tolist() == [10, 30]
        assert ann.codes.tolist() == [1, 5]


def test_parse_annotations_aux_resembling_terminator():
    # AUX payload bytes may contain zeros; they must not terminate parsing
    stream = (ann_word(1, 10) + aux_block(b"\x00\x00\x00\x00")
              + ann_word(5, 20) + end_marker())
    ann = parse_annotations(stream)
    assert ann.samples.tolist() == [10, 30]
    assert ann.codes.tolist() == [1, 5]


TRUNCATED_STREAMS = {
    b"": "ended without a zero word",  # no terminator at all
    ann_word(1, 5): "ended without a zero word",  # events, no terminator
    ann_word(1, 5) + b"\x00": "odd byte count",
    ann_word(59, 0) + b"\x01\x02": "SKIP interval cut short",
    ann_word(63, 6) + b"ab" + end_marker(): "AUX payload cut short",
}


@pytest.mark.parametrize("stream", list(TRUNCATED_STREAMS))
def test_parse_annotations_truncated(stream):
    with pytest.raises(DataError, match=TRUNCATED_STREAMS[stream]):
        parse_annotations(stream)


def test_parse_annotations_trailing_bytes_after_terminator_ignored():
    stream = ann_word(1, 7) + end_marker() + ann_word(5, 3)
    ann = parse_annotations(stream)
    assert ann.samples.tolist() == [7]
    assert ann.codes.tolist() == [1]


# --- beat filtering ---


def test_filter_beats_default_symbols():
    events = [(10, SYMBOL_TO_CODE["N"]), (20, SYMBOL_TO_CODE["+"]),
              (30, SYMBOL_TO_CODE["V"]), (40, SYMBOL_TO_CODE["~"]),
              (50, SYMBOL_TO_CODE["/"]), (60, SYMBOL_TO_CODE["L"])]
    ann = parse_annotations(simple_annotation_stream(events))
    beats = filter_beats(ann, DEFAULT_BEAT_SYMBOLS)
    # rhythm (+), noise (~) and paced (/) events are not beats
    np.testing.assert_array_equal(beats, [10, 30, 60])


def test_filter_beats_integer_codes():
    ann = parse_annotations(simple_annotation_stream(
        [(5, 1), (9, 5), (12, 2)]))
    np.testing.assert_array_equal(filter_beats(ann, {1}), [5])
    np.testing.assert_array_equal(filter_beats(ann, {1, "L"}), [5, 12])


def test_filter_beats_empty_set_rejected():
    ann = parse_annotations(end_marker())
    with pytest.raises(DataError, match="beat code set must be non-empty"):
        filter_beats(ann, set())
    with pytest.raises(DataError,
                       match="unknown annotation mnemonic 'not-a-symbol'"):
        resolve_beat_codes(["not-a-symbol"])


def test_default_beat_symbols_all_resolve():
    codes = resolve_beat_codes(DEFAULT_BEAT_SYMBOLS)
    assert len(codes) == len(DEFAULT_BEAT_SYMBOLS)
    assert SYMBOL_TO_CODE["/"] not in codes
