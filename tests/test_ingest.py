import csv
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampenopt.errors import IngestionError
from sampenopt.ingest import read_signals, write_signals
from sampenopt.signal import Signal, SignalSet


def _set():
    return SignalSet(
        (
            Signal("a", [1.0, 2.5, -0.125], label="g1"),
            Signal("b", [0.0, 3.0, 4.0, 5.0], label=None),
        )
    )


def test_long_round_trip(tmp_path):
    path = tmp_path / "x.csv"
    write_signals(path, _set(), fmt="long")
    loaded, fmt = read_signals(path)
    assert fmt == "long"
    assert [s.id for s in loaded] == ["a", "b"]
    assert loaded[0].label == "g1" and loaded[1].label is None
    for orig, back in zip(_set(), loaded):
        assert np.array_equal(orig.values, back.values)


def test_long_bytes(tmp_path):
    path = tmp_path / "x.csv"
    write_signals(path, SignalSet((Signal("a", [1.0, 2.5], label="g\u00e9"),)), fmt="long")
    assert path.read_bytes() == "signal_id,label,t,value\r\na,g\u00e9,0,1.0\r\na,g\u00e9,1,2.5\r\n".encode("utf-8")


@pytest.mark.parametrize("field", ["id", "label"])
def test_unencodable_text_leaves_no_file(tmp_path, field):
    # a lone surrogate, as argv decoding leaves for a byte the locale cannot read
    bad = Signal(**{"id": "a", "label": "g", field: "caf\udcc3"}, values=[1.0, 2.0])
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_bytes(b"kept")
    for path in (new, old):
        with pytest.raises(ValueError, match="an id or label is not UTF-8 text"):
            write_signals(path, SignalSet((Signal("ok", [0.0, 1.0]), bad)), fmt="long")
    assert not new.exists() and old.read_bytes() == b"kept"


def test_wide_round_trip(tmp_path):
    path = tmp_path / "w.csv"
    write_signals(path, _set(), fmt="wide")
    loaded, fmt = read_signals(path)
    assert fmt == "wide"
    for orig, back in zip(_set(), loaded):
        assert np.array_equal(orig.values, back.values)


def test_long_requires_increasing_t(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("signal_id,label,t,value\na,,0,1.0\na,,0,2.0\n")
    with pytest.raises(IngestionError, match="strictly increasing"):
        read_signals(path)


def test_missing_value_is_hard_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("signal_id,label,t,value\na,,0,1.0\na,,1,\n")
    with pytest.raises(IngestionError, match="missing value"):
        read_signals(path)


def test_nan_value_is_hard_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("signal_id,label,t,value\na,,0,1.0\na,,1,nan\n")
    with pytest.raises(IngestionError, match="non-finite"):
        read_signals(path)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(IngestionError, match="empty"):
        read_signals(path)


def test_conflicting_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("signal_id,label,t,value\na,x,0,1.0\na,y,1,2.0\n")
    with pytest.raises(IngestionError, match="conflicting label"):
        read_signals(path)


def test_non_utf8_file_names_the_path(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("signal_id,label,t,value\n\u00e9,,0,1.0\n".encode("latin-1"))
    with pytest.raises(IngestionError, match=re.escape(f"{path}: not UTF-8 text")):
        read_signals(path)


def test_field_over_the_csv_limit_names_the_path(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("a," + "1" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(IngestionError, match=re.escape(f"{path}: unreadable CSV")):
        read_signals(path)


def test_utf8_under_an_ascii_locale(tmp_path):
    # without UTF-8 mode, the C locale makes open()'s default encoding ASCII;
    # the script spells its text with chr() since argv is decoded as ASCII too
    path = tmp_path / "u.csv"
    script = (
        "import sys\n"
        "from sampenopt.ingest import read_signals, write_signals\n"
        "from sampenopt.signal import Signal, SignalSet\n"
        "sid, label = chr(0xE9), chr(0xFC)\n"
        "write_signals(sys.argv[1], SignalSet((Signal(sid, [1.0, 2.0], label=label),)))\n"
        "s, _ = read_signals(sys.argv[1])\n"
        "assert (s[0].id, s[0].label) == (sid, label)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True, timeout=60)
    assert path.read_bytes().decode("utf-8").splitlines()[1] == "\u00e9,\u00fc,0,1.0"


def test_interleaved_long_rows(tmp_path):
    path = tmp_path / "mix.csv"
    path.write_text("signal_id,label,t,value\na,,0,1.0\nb,,0,9.0\na,,1,2.0\nb,,1,8.0\n")
    loaded, _ = read_signals(path)
    assert [s.id for s in loaded] == ["a", "b"]
    assert np.array_equal(loaded[0].values, [1.0, 2.0])
    assert np.array_equal(loaded[1].values, [9.0, 8.0])


def test_values_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(0)
    s = SignalSet((Signal("z", rng.standard_normal(64)),))
    path = tmp_path / "rt.csv"
    write_signals(path, s, fmt="long")
    loaded, _ = read_signals(path)
    assert np.array_equal(s[0].values, loaded[0].values)


# whitespace-free printable ASCII: read_signals strips cells, and ids must be unique
_tokens = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8)
_values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308, -0.0]
)


@st.composite
def _signal_sets(draw):
    ids = draw(st.lists(_tokens, min_size=1, max_size=5, unique=True))
    return SignalSet(tuple(
        Signal(sid, draw(st.lists(_values, min_size=1, max_size=20)), label=draw(st.none() | _tokens)) for sid in ids
    ))


@settings(max_examples=100, deadline=None)
@given(s=_signal_sets(), fmt=st.sampled_from(["long", "wide"]))
def test_round_trip_property(s, fmt):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.csv"
        write_signals(path, s, fmt=fmt)
        back, detected = read_signals(path)
    assert detected == fmt
    assert [x.id for x in back] == [x.id for x in s]
    for orig, got in zip(s, back):
        assert got.values.tobytes() == orig.values.tobytes()
        assert got.label == (orig.label if fmt == "long" else None)
