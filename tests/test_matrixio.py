"""Unit tests for CSV and binary matrix serialization."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smf import (
    read_matrix,
    read_matrix_binary,
    read_matrix_csv,
    write_matrix_binary,
    write_matrix_csv,
)
from smf.matrixio import BINARY_MAGIC

# Every test here runs again on two BLAS threads (see pyproject.toml).
pytestmark = pytest.mark.blas_threads


def awkward_matrix():
    # Values chosen to stress shortest-repr round-tripping: numbers with no
    # exact short decimal form, huge/tiny magnitudes, negative zero.
    return np.array([
        [0.1, 1.0 / 3.0, -0.0],
        [1e-308, 1.7e308, -2.5],
        [np.pi, 1.0 + 2**-52, 0.0],
    ])


def test_csv_round_trip_bitwise(tmp_path):
    path = tmp_path / "m.csv"
    m = awkward_matrix()
    write_matrix_csv(path, m)
    back = read_matrix_csv(path)
    assert back.shape == m.shape
    assert np.array_equal(back, m)


def test_csv_format_is_headerless_comma_separated(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, np.array([[1.5, 2.0], [3.0, 4.25]]))
    text = path.read_text(encoding="utf-8")
    assert text == "1.5,2.0\n3.0,4.25\n"


def test_csv_reader_accepts_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n\n3.0,4.0\n", encoding="utf-8")
    assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_reader_rejects_ragged_rows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        read_matrix_csv(path)


def test_csv_reader_rejects_text_and_empty(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,apple\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        read_matrix_csv(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="no data rows"):
        read_matrix_csv(path)


def _reference_read_matrix_csv(path):
    """The reader as one per-line loop: every field through float()."""
    rows = []
    width = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ValueError(
                    f"{path}: line {lineno} has {len(fields)} fields, expected {width}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def _counts(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.multinomial(140, np.ones(shape[1]) / shape[1],
                           size=shape[0]).astype(np.float64)


def _reference_text(m):
    return "".join(",".join(map(repr, row)) + "\n" for row in m.tolist())


@pytest.mark.parametrize("text", [
    "1.0,2.0\n\n3.0,4.0\n\n\n",
    "1.0,2.0\n   \n\t\n3.0,4.0\n \t ",
    "\t1.0,\t2.0\t\n3.0\t,4.0\n",
    "1.0,2.0\r\n3.0,4.0\r\n",
    "  1.0 ,  2.0  \n 3.0,4.0\n",
    "-0.0,0.0\n0.0,-0.0\n",
    "1e-400,-1e-400\n1e-320,2.2250738585072014e-308\n",
    "5e-324,-4.9e-324,2.225073858507201e-308\n",
    "1,2,3,4.5,-6\n",
    "1\n-2\n3.25\n",
    "7\n",
    "1e308, +1.5, .5, 5., 1E3, -0, 00012\n",
    "1.0\u00a0,\u20032.0\u2028\n",
    "\x1c1.0,2.0\x1f\n",
], ids=["blank-lines", "whitespace-lines", "tabs", "crlf", "spaces",
        "negative-zero", "underflow", "subnormals", "one-row", "one-column",
        "one-cell", "syntax", "unicode-spaces", "separators-at-line-ends"])
def test_csv_reader_matches_reference_bitwise(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    got = read_matrix_csv(path)
    want = _reference_read_matrix_csv(path)
    assert got.dtype == want.dtype and got.shape == want.shape
    # tobytes() compares sign bits too, so -0.0 must stay -0.0.
    assert got.tobytes() == want.tobytes()


def test_csv_reader_matches_reference_on_a_large_count_matrix(tmp_path):
    path = tmp_path / "m.csv"
    m = _counts((5000, 360))
    path.write_text(_reference_text(m), encoding="utf-8")
    got = read_matrix_csv(path)
    assert got.tobytes() == _reference_read_matrix_csv(path).tobytes()
    assert got.tobytes() == m.tobytes()


@pytest.mark.parametrize("text", [
    "1.0,2.0\n3.0\n",
    "1.0,2.0\n\n3.0,4.0,5.0\n",
    "1.0,2.0\n3.0,,4.0\n",
    "1.0,2.0\n3.0,\n",
    "1.0,2.0,\n3.0,4.0,\n",
    "1.0,apple\n",
    "1.0,2.0\n# comment\n",
    "1.0,2.0\n3.0,4.0 # note\n",
    "\ufeff1.0,2.0\n",
    "1.0,2.0\n3.0,x\n5.0\n",
    "1.0,2.0\n3.0\n5.0,x\n",
    "1.0,2.0\n3.0\x1c,4.0\n",
    "1.0,2.0\n'3.0',4.0\n",
    "1.0,2.0\n3 0,4.0\n",
], ids=["ragged", "ragged-after-blank", "empty-field", "trailing-empty-field",
        "trailing-commas", "text", "hash-line", "hash-comment", "bom",
        "bad-before-ragged", "ragged-before-bad", "separator-in-field",
        "quoted", "inner-space"])
def test_csv_reader_faults_match_reference(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValueError) as want:
        _reference_read_matrix_csv(path)
    with pytest.raises(ValueError) as got:
        read_matrix_csv(path)
    line = re.compile(r"line \d+( has \d+ fields, expected \d+)?")
    assert line.search(str(got.value)).group() == line.search(str(want.value)).group()


@pytest.mark.parametrize("field", ["1_0", "\uff11", "\u0661.5"])
def test_csv_reader_refuses_what_only_python_float_takes(tmp_path, field):
    # Digit-group underscores and non-ASCII digits parse with float() but
    # not with numpy's reader, which follows C's decimal syntax.
    path = tmp_path / "m.csv"
    path.write_text(f"1.0,2.0\n3.0,{field}\n", encoding="utf-8")
    assert _reference_read_matrix_csv(path).shape == (2, 2)
    with pytest.raises(ValueError, match="line 2: "):
        read_matrix_csv(path)


@pytest.mark.parametrize("text", ["", "\n\n", "  \n\t\r\n"])
def test_csv_reader_refuses_an_empty_file_without_a_warning(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows"):
            read_matrix_csv(path)


def _with_negative_zero(m):
    m = m.copy()
    m[1, 2] = -0.0
    return m


@pytest.mark.parametrize("make", [
    lambda: _counts((40, 30)),
    lambda: _with_negative_zero(_counts((40, 30))),
    lambda: np.array([[1e16, 1e16 + 2.0, 2.0**53],
                      [float(2**53 + 1), 2.0**53 + 2.0, 1e22],
                      [9.007199254740993e15, 1e300, 0.0]]),
    lambda: -_counts((10, 7)) + 3.0,
    lambda: np.random.default_rng(1).dirichlet(np.ones(12), size=9),
    lambda: _counts((1, 25)),
    lambda: _counts((25, 1)),
    lambda: np.array([[-0.0]]),
    lambda: np.array([[0.0, 0.0], [0.0, 0.0]]),
], ids=["counts", "counts-negative-zero", "large-integers", "negative-integers",
        "dense", "one-row", "one-column", "negative-zero-cell", "zeros"])
def test_csv_writer_matches_reference_bytes(tmp_path, make):
    path = tmp_path / "m.csv"
    m = make()
    write_matrix_csv(path, m)
    assert path.read_bytes() == _reference_text(m).encode("utf-8")
    assert read_matrix_csv(path).tobytes() == m.tobytes()


@st.composite
def whole_number_matrices(draw):
    # Whole numbers small and large: repr(1e16) and above has an exponent.
    value = st.one_of(st.integers(-1000, 1000),
                      st.integers(-2**80, 2**80),
                      st.sampled_from([1e16, -1e16, 1e16 + 2.0, 2.0**53 + 2.0,
                                       1e22, -1e300, 1.7e308]))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    cells = draw(st.lists(value, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=np.float64).reshape(rows, cols)


def _written(m, tmp_path):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    data = path.read_bytes()
    assert read_matrix_csv(path).tobytes() == m.tobytes()
    return data


@settings(max_examples=200, deadline=None, derandomize=True)
@given(whole_number_matrices())
def test_csv_whole_number_path_matches_per_element_repr(tmp_path_factory, m):
    tmp_path = tmp_path_factory.mktemp("csv")
    assert _written(m, tmp_path) == _reference_text(m).encode("utf-8")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(whole_number_matrices(), st.integers(0, 35))
def test_csv_negative_zero_takes_the_element_path(tmp_path_factory, m, cell):
    # The table path would look -0.0 up as 0.0 and write "0.0".
    m.flat[cell % m.size] = -0.0
    tmp_path = tmp_path_factory.mktemp("csv")
    data = _written(m, tmp_path)
    assert data == _reference_text(m).encode("utf-8")
    assert b"-0.0" in data


def test_csv_reader_rejects_non_finite(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,inf\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_matrix_csv(path)


def test_writer_rejects_bad_matrices(tmp_path):
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError):
        write_matrix_csv(path, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        write_matrix_csv(path, np.array([[np.nan]]))
    with pytest.raises(ValueError):
        write_matrix_binary(tmp_path / "m.bin", np.zeros((0, 3)))


def test_binary_round_trip_bitwise(tmp_path):
    path = tmp_path / "m.bin"
    m = awkward_matrix()
    write_matrix_binary(path, m)
    back = read_matrix_binary(path)
    assert np.array_equal(back, m)
    # -0.0 must survive with its sign bit.
    assert np.signbit(back[0, 2])


def test_binary_layout(tmp_path):
    path = tmp_path / "m.bin"
    write_matrix_binary(path, np.array([[1.0, 2.0, 3.0]]))
    raw = path.read_bytes()
    assert raw[:8] == BINARY_MAGIC
    assert raw[8:24] == (1).to_bytes(8, "little") + (3).to_bytes(8, "little")
    assert np.array_equal(np.frombuffer(raw[24:], dtype="<f8"), [1.0, 2.0, 3.0])
    assert len(raw) == 24 + 3 * 8


def test_binary_reader_rejects_corruption(tmp_path):
    path = tmp_path / "m.bin"
    write_matrix_binary(path, np.eye(2))
    raw = path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(ValueError, match="not a"):
        read_matrix_binary(bad)
    bad.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_matrix_binary(bad)
    bad.write_bytes(raw[:10])
    with pytest.raises(ValueError):
        read_matrix_binary(bad)
    bad.write_bytes(raw[:24] + np.array([1.0, np.nan, 0.0, 1.0]).astype("<f8").tobytes())
    with pytest.raises(ValueError, match="non-finite"):
        read_matrix_binary(bad)


def test_read_matrix_sniffs_format(tmp_path):
    m = awkward_matrix()
    write_matrix_csv(tmp_path / "m.csv", m)
    write_matrix_binary(tmp_path / "m.bin", m)
    assert np.array_equal(read_matrix(tmp_path / "m.csv"), m)
    assert np.array_equal(read_matrix(tmp_path / "m.bin"), m)
