"""Property tests: arbitrary bytes reach the decoders and loaders, and
arbitrary text the manifest, CSV and INI readers. The only error bytes,
manifests and CSV records may raise is DataError; an INI file may raise
only UsageError. NumPy warnings count as failures too, as everywhere
in the suite. Records at any rate from 8 Hz up are windowed to the
same bytes as the per-window oracle gives, and max-pool routes values
and gradients as its argmax oracle does, bit for bit.

Runs are derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest

from beatnet.config import Settings, load_settings, render_snapshot
from beatnet.errors import DataError, UsageError
from beatnet.nn import init_params, maxpool1d_backward, maxpool1d_forward
from beatnet.records import CsvSchema, EcgRecord, ingest_csv, \
    parse_manifest
from beatnet.segments import build_labeled_dataset, load_cache, \
    save_cache, segment_arrays
from beatnet.synthetic import make_synthetic_records
from beatnet.train import load_checkpoint, save_checkpoint
from beatnet.wfdb_io import decode_signal, parse_annotations, parse_header

from gradcheck import SMALL_NET
from helpers import channels_last, ref_maxpool1d_backward, \
    ref_maxpool1d_forward, ref_segment_arrays, reframe

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
hnp = pytest.importorskip("hypothesis.extra.numpy")
example, given, settings = (hypothesis.example, hypothesis.given,
                            hypothesis.settings)

FUZZ = settings(derandomize=True, deadline=None, database=None,
                max_examples=150)

# A valid two-signal header, one token per entry, and tokens to put in
# its place: edited copies get past the record line into the numeric and
# signal-line checks, which random bytes rarely reach.
HEA_TOKENS = ("X 2 250 7 \n X.dat 212 200(0)/mV 12 0 \n "
              "X.dat 16 1.5(-3) 12 4 0 0 0 ch1").split(" ")
HEA_TOKEN = st.one_of(
    st.sampled_from(["", "\n", "X/2", "0", "1", "3", "-1", "nan", "inf",
                     "1e999", "360/21600(0)", "8", "212x2", "212:1", "0(5)",
                     "1e+e", "--5(0)/mV", "x", "200(99999999999)",
                     "1e39"]),
    st.text(alphabet="0123456789.+-e()/x:X", max_size=8))


def edited_header(edits):
    tokens = list(HEA_TOKENS)
    for at, token in edits:
        tokens[at % len(tokens)] = token
    return " ".join(tokens).encode()


EDITED_HEADER = st.lists(st.tuples(st.integers(min_value=0), HEA_TOKEN),
                        min_size=1, max_size=4).map(edited_header)
HEADER_BYTES = st.one_of(st.binary(max_size=120), EDITED_HEADER)

TWO_CHANNELS = parse_header("X 2 250 7\nX.dat 212\nX.dat 212\n")


def only_data_errors(call, *args):
    try:
        call(*args)
    except DataError:
        pass


@FUZZ
@given(HEADER_BYTES)
def test_parse_header_raises_only_data_errors(raw):
    only_data_errors(parse_header, raw.decode("ascii", "replace"))


@FUZZ
@given(st.binary(max_size=200))
def test_parse_annotations_raises_only_data_errors(raw):
    only_data_errors(parse_annotations, raw)


@FUZZ
@given(st.binary(max_size=40), st.integers(-2, 3))
def test_decode_signal_raises_only_data_errors(raw, channel):
    only_data_errors(decode_signal, raw, TWO_CHANNELS, channel)


# the gain field of signal 0, a format-212 channel
GAIN_AT = HEA_TOKENS.index("200(0)/mV")


@FUZZ
@given(EDITED_HEADER, st.binary(max_size=64))
# a baseline past int32 and a gain past float32, with a long enough file
@example(edited_header([(GAIN_AT, "200(99999999999)")]), bytes(64))
@example(edited_header([(GAIN_AT, "1e39")]), bytes(64))
def test_decode_parsed_header_raises_only_data_errors(raw_header, raw):
    try:
        header = parse_header(raw_header.decode())
    except DataError:
        return
    for channel in range(header.n_signals):
        only_data_errors(decode_signal, raw, header, channel)


def splice(payload, whole, at, chunk):
    """Replace the body after magic and version with ``chunk``, or write
    ``chunk`` over the body from offset ``at`` (growing or cutting it)."""
    body = 6
    if whole:
        payload[body:] = chunk
    else:
        at = body + at % (len(payload) - body + 1)
        payload[at:at + len(chunk)] = chunk


SPLICES = dict(whole=st.booleans(), at=st.integers(min_value=0),
               chunk=st.binary(max_size=64))


@pytest.fixture(scope="module")
def framed_files(tmp_path_factory):
    """A small valid cache and checkpoint to damage."""
    root = tmp_path_factory.mktemp("fuzz")
    records = make_synthetic_records(n_subjects=2, duration=1.0, seed=3)
    dataset = build_labeled_dataset(records, "Arrhythmia", "Train",
                                    {r.subject_id for r in records})
    save_cache(dataset, root / "good.hbds")
    save_checkpoint(init_params(SMALL_NET, np.random.default_rng(0)),
                    SMALL_NET, root / "good.hbdl")
    return root


@FUZZ
@given(**SPLICES)
def test_load_cache_raises_only_data_errors(framed_files, whole, at, chunk):
    path = framed_files / "bad.hbds"
    path.write_bytes((framed_files / "good.hbds").read_bytes())
    reframe(path, lambda p: splice(p, whole, at, chunk))
    only_data_errors(load_cache, path)


@FUZZ
@given(**SPLICES)
# a JSON header nested past the recursion limit
@example(whole=True, at=0, chunk=b"\x00\x80\x00\x00" + b"[" * 0x8000)
def test_load_checkpoint_raises_only_data_errors(framed_files, whole, at,
                                                 chunk):
    path = framed_files / "bad.hbdl"
    path.write_bytes((framed_files / "good.hbdl").read_bytes())
    reframe(path, lambda p: splice(p, whole, at, chunk))
    only_data_errors(load_checkpoint, path)


# Text inputs: arbitrary text, and valid inputs with some values or
# tokens replaced, which get past the syntax into the value checks.
NUMBERS = ["", "0", "1", "-1", "2/3", "1/0", "nan", "inf", "-inf", "1e999",
           "1e300", "-1e39", "1e-320", "x"]
ONE_LINE = st.text(st.characters(blacklist_characters="\r\n"), max_size=10)

SNAPSHOT_LINES = render_snapshot(Settings()).splitlines()
VALUE_LINES = [i for i, line in enumerate(SNAPSHOT_LINES) if " = " in line]


def edited_snapshot(edits):
    lines = list(SNAPSHOT_LINES)
    for at, value in edits:
        i = VALUE_LINES[at % len(VALUE_LINES)]
        lines[i] = f"{lines[i].split(' = ')[0]} = {value}"
    return "\n".join(lines) + "\n"


INI_TEXT = st.one_of(
    st.text(max_size=200),
    st.lists(st.tuples(st.integers(min_value=0), st.one_of(
        st.sampled_from(NUMBERS + ["8,16,32,64", "7,5,5,3", "128,32,2",
                                   "0,5,2", "1,2", "N,V", "N,ZZ", ",", "sum",
                                   "9" * 5000, "%(x)s"]),
        ONE_LINE)), min_size=1, max_size=4).map(edited_snapshot))

MANIFEST_TOKENS = (
    "record=a subject=s tag=Arrhythmia hea=a.hea ann=a.atr channel=0 \n "
    "record=b subject=t tag=BaselineFlexComp csv=b.csv fs=250 value_col=v "
    "time_col=t marker_col=m beats=b.beats header=true").split(" ")


def edited_manifest(edits):
    """The lines above with tokens replaced, or, for an edit starting
    with "=", the value of a key=value token."""
    tokens = list(MANIFEST_TOKENS)
    for at, token in edits:
        i = at % len(tokens)
        tokens[i] = (tokens[i].split("=")[0] + token if token[:1] == "="
                     else token)
    return " ".join(tokens)


MANIFEST_TEXT = st.one_of(
    st.text(max_size=200),
    st.lists(st.tuples(st.integers(min_value=0), st.one_of(
        st.sampled_from(["", "\n", "#", "=", "x", "record=a", "subject=",
                         "tag=Nope", "hea=b.hea", "csv=a.csv", "key=a=b"]
                        + [f"={v}" for v in NUMBERS + ["a", "true"]]),
        ONE_LINE.map("=".__add__))), min_size=1, max_size=4)
    .map(edited_manifest))

CSV_ROWS = ("t,v,m", "0,0.1,0", "0.1,0.2,1", "0.2,0.3,0", "0.3,0.4,0")
CSV_SCHEMAS = st.sampled_from([
    CsvSchema("v", time_col="t", marker_col="m"),
    CsvSchema("v", time_col="t"),
    CsvSchema("1", time_col="0", has_header=False),
    CsvSchema("0", has_header=False)])


def edited_csv(args):
    """CSV text for ``schema``: the rows above, header only where the
    schema has one, with cells replaced."""
    edits, schema = args
    rows = [row.split(",") for row in CSV_ROWS[0 if schema.has_header
                                               else 1:]]
    for at, cell in edits:
        row = rows[at % len(rows)]
        row[at // len(rows) % len(row)] = cell
    return "\n".join(",".join(row) for row in rows) + "\n", schema


CSV_INPUTS = st.one_of(
    st.tuples(st.text(max_size=200), CSV_SCHEMAS),
    st.tuples(st.lists(st.tuples(st.integers(min_value=0), st.one_of(
        st.sampled_from(NUMBERS + ["0.05", '"', '"1,2"', "\r", "0,1"]),
        ONE_LINE)), max_size=4), CSV_SCHEMAS).map(edited_csv))
BEAT_TIMES = st.one_of(
    st.none(), st.lists(st.floats(), max_size=4),
    st.lists(st.floats(-0.1, 0.5), max_size=4, unique=True).map(sorted))


@pytest.fixture(scope="module")
def text_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("text")


@FUZZ
@given(INI_TEXT)
def test_load_settings_raises_only_usage_errors(text_dir, text):
    path = text_dir / "fuzz.ini"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        load_settings(path)
    except UsageError:
        pass


@FUZZ
@given(MANIFEST_TEXT)
def test_parse_manifest_raises_only_data_errors(text):
    only_data_errors(parse_manifest, text)


@FUZZ
@given(CSV_INPUTS, st.sampled_from([10.0, 250.0, 1e-300, 1e300]), BEAT_TIMES)
# a field past the csv module's 131072-character limit
@example(csv_input=("1" * 200_000, CsvSchema("0", has_header=False)),
         fs=10.0, beat_times=None)
def test_ingest_csv_raises_only_data_errors(csv_input, fs, beat_times):
    text, schema = csv_input
    if beat_times is not None:
        beat_times = np.array(beat_times, dtype=np.float64)
    only_data_errors(ingest_csv, text, schema, fs, "csv", "csv",
                     "BaselineFlexComp", beat_times)


@st.composite
def ecg_records(draw):
    """A record at 8 to 2000 Hz: seeded noise with drawn values written
    over some samples (signed zeros, subnormals), and drawn beats."""
    fs = draw(st.floats(8.0, 2000.0))
    n = max(1, round(draw(st.floats(0.0, 20.0)) * fs))
    samples = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        size=n).astype(np.float32)
    value = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-1e6, 1e6, width=32))
    for at, v in draw(st.lists(st.tuples(st.integers(0, n - 1), value),
                               max_size=30)):
        samples[at] = v
    beats = sorted(draw(st.sets(st.integers(0, n - 1), max_size=40)))
    return EcgRecord("r", "s", "Arrhythmia", fs, samples,
                     np.array(beats, dtype=np.int64))


@FUZZ
@given(ecg_records(), st.floats(0.0, 30.0))
def test_segment_arrays_matches_per_window_oracle(record, max_duration):
    X, y = segment_arrays(record, max_duration)
    X_ref, y_ref = ref_segment_arrays(record, max_duration)
    assert X.shape == X_ref.shape
    assert X.tobytes() == X_ref.tobytes() and y.tobytes() == y_ref.tobytes()


@st.composite
def pool_inputs(draw):
    """(x, dy) for max-pool: (n, L, C) lanes from a small value set, so
    windows tie often (signed zeros, equal pairs, infinities), and a
    gradient with signed zeros and negatives; no NaN, whose routing the
    argmax oracle does not share (see maxpool1d_forward)."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n, length, c = (draw(st.integers(1, hi)) for hi in (3, 9, 9))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf,
                                       -np.inf]),
                      st.floats(allow_nan=False, width=32))
    x = draw(hnp.arrays(dtype, (n, length, c), elements=value))
    dy = draw(hnp.arrays(dtype, (n, length // 2, c), elements=value))
    return x, dy


@FUZZ
@given(pool_inputs())
def test_maxpool_matches_argmax_oracle(case):
    x, dy = case
    y, second = maxpool1d_forward(x)
    ref_y, ref_idx = ref_maxpool1d_forward(x.transpose(0, 2, 1))
    assert y.tobytes() == channels_last(ref_y).tobytes()
    assert (second == (channels_last(ref_idx) == 1)).all()
    dx = maxpool1d_backward(dy, second, x.shape[1])
    ref_dx = ref_maxpool1d_backward(channels_last(dy), ref_idx, x.shape[1])
    assert dx.tobytes() == channels_last(ref_dx).tobytes()
