"""Matrix serialization: headerless CSV and a compact binary format.

CSV files are UTF-8, comma-separated, one matrix row per line, '.' as the
decimal separator and no header row.  Values are written with Python's
shortest round-trip float representation, so read(write(M)) == M bitwise.
The reader skips blank and whitespace-only lines and whitespace around
fields, and parses fields with numpy's C reader, which takes what Python's
float() takes except digit-group underscores (``1_0``) and non-ASCII
digits; a ragged row or a field that does not parse raises ValueError
naming its line.

The binary format is an 8-byte magic string ``SMFMAT01``, two little-endian
unsigned 64-bit integers (rows, cols), then the row-major float64
little-endian payload.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .linalg import _as_matrix

__all__ = [
    "read_matrix",
    "read_matrix_binary",
    "read_matrix_csv",
    "write_matrix_binary",
    "write_matrix_csv",
]

BINARY_MAGIC = b"SMFMAT01"


def write_matrix_csv(path, a) -> None:
    m = _as_matrix(a)
    if np.array_equal(m, np.rint(m)) and not np.any(np.signbit(m[m == 0.0])):
        # Integer counts repeat few values, so each distinct value is
        # formatted once, as repr(v) + "," and, for the last column,
        # repr(v) + "\n"; the file is then one join of table cells.  A -0.0
        # would be looked up as 0.0, so it takes the per-element path below.
        values = np.unique(m)
        reprs = [repr(v) for v in values.tolist()]
        table = np.array([r + "," for r in reprs] + [r + "\n" for r in reprs],
                         dtype=object)
        index = np.searchsorted(values, m)
        index[:, -1] += len(reprs)
        text = "".join(table[index].ravel().tolist())
    else:
        text = "\n".join(",".join(map(repr, row)) for row in m.tolist()) + "\n"
    Path(path).write_text(text, encoding="utf-8")


# Python's float() refuses the ASCII information separators U+001C..U+001F
# inside a field, while str.strip() and numpy's reader take them for spaces.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _parse_rows(lines) -> np.ndarray:
    return np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None,
                      ndmin=2)


def _raise_first_fault(path, numbered) -> None:
    # Checks line by line, in file order, what read_matrix_csv checks for
    # the whole file at once, and raises for the first line at fault.
    width = numbered[0][1].count(",") + 1
    for lineno, line in numbered:
        fields = line.count(",") + 1
        if fields != width:
            raise ValueError(
                f"{path}: line {lineno} has {fields} fields, expected {width}"
            )
        if any(c in line for c in _SEPARATORS):
            raise ValueError(f"{path}: line {lineno}: a field holds one of "
                             f"the control characters U+001C..U+001F")
        try:
            _parse_rows([line])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None


def read_matrix_csv(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        numbered = [(lineno, line)
                    for lineno, line in enumerate(map(str.strip, fh), start=1)
                    if line]
    if not numbered:
        raise ValueError(f"{path}: no data rows")
    lines = [line for _, line in numbered]
    joined = "".join(lines)
    if any(c in joined for c in _SEPARATORS):
        _raise_first_fault(path, numbered)
    try:
        # Raises on a ragged row as well as on a field that does not parse.
        m = _parse_rows(lines)
    except ValueError:
        _raise_first_fault(path, numbered)
        raise
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: matrix contains non-finite values")
    return m


def write_matrix_binary(path, a) -> None:
    m = _as_matrix(a)
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())


def read_matrix_binary(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 24 or raw[:8] != BINARY_MAGIC:
        raise ValueError(f"{path}: not a {BINARY_MAGIC.decode()} file")
    n_rows, n_cols = struct.unpack("<QQ", raw[8:24])
    expected = 24 + 8 * n_rows * n_cols
    if n_rows == 0 or n_cols == 0 or len(raw) != expected:
        raise ValueError(f"{path}: truncated or corrupt payload")
    m = np.frombuffer(raw[24:], dtype="<f8").reshape(n_rows, n_cols)
    m = m.astype(np.float64, copy=True)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: matrix contains non-finite values")
    return m


def read_matrix(path) -> np.ndarray:
    """Read a matrix from CSV or binary, sniffing the binary magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head == BINARY_MAGIC:
        return read_matrix_binary(path)
    return read_matrix_csv(path)
