"""Matrix serialization: headerless CSV and a compact binary format.

CSV files are UTF-8, comma-separated, one matrix row per line, '.' as the
decimal separator and no header row.  Values are written with Python's
shortest round-trip float representation, so read(write(M)) == M bitwise.

The binary format is an 8-byte magic string ``SMFMAT01``, two little-endian
unsigned 64-bit integers (rows, cols), then the row-major float64
little-endian payload.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

__all__ = [
    "BINARY_MAGIC",
    "read_matrix",
    "read_matrix_binary",
    "read_matrix_csv",
    "write_matrix_binary",
    "write_matrix_csv",
]

BINARY_MAGIC = b"SMFMAT01"


def _check_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("expected a non-empty 2-dimensional matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite values")
    return m


def write_matrix_csv(path, a) -> None:
    m = _check_matrix(a)
    lines = [",".join(map(repr, row)) for row in m.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix_csv(path) -> np.ndarray:
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
    m = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: matrix contains non-finite values")
    return m


def write_matrix_binary(path, a) -> None:
    m = _check_matrix(a)
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
