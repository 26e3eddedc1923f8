"""Property tests: arbitrary bytes reach the decoders and loaders, and
the only error they may raise is DataError.

Runs are derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest

from beatnet.errors import DataError
from beatnet.nn import init_params
from beatnet.segments import build_labeled_dataset, load_cache, save_cache
from beatnet.synthetic import make_synthetic_records
from beatnet.train import load_checkpoint, save_checkpoint
from beatnet.wfdb_io import decode_signal, parse_annotations, parse_header

from gradcheck import SMALL_NET
from helpers import reframe

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
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
                     "1e+e", "--5(0)/mV", "x"]),
    st.text(alphabet="0123456789.+-e()/x:X", max_size=8))


def edited_header(edits):
    tokens = list(HEA_TOKENS)
    for at, token in edits:
        tokens[at % len(tokens)] = token
    return " ".join(tokens).encode()


HEADER_BYTES = st.one_of(
    st.binary(max_size=120),
    st.lists(st.tuples(st.integers(min_value=0), HEA_TOKEN), min_size=1,
             max_size=4).map(edited_header))

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
