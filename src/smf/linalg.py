"""Dense linear algebra primitives shared by the solver and the analyzers.

All functions operate on float64 numpy arrays and are pure: no global state,
no in-place mutation of caller data, and bitwise-deterministic results for
identical inputs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "EmptyRowError",
    "frobenius_norm",
    "numerical_rank",
    "pseudoinverse",
    "row_normalize",
    "simplex_project",
    "simplex_project_rows",
]

DEFAULT_RANK_TOL = 1e-10


class EmptyRowError(ValueError):
    """Raised when a row with zero sum cannot be normalized."""

    def __init__(self, index: int):
        self.index = int(index)
        super().__init__(f"row {self.index} sums to zero and cannot be normalized")


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite values")
    return m


def _frozen(a) -> np.ndarray:
    # Read-only float64 ``a``; a writeable input is copied, not frozen in place.
    m = np.asarray(a, dtype=np.float64)
    m = m.copy() if m.flags.writeable else m
    m.setflags(write=False)
    return m


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries."""
    m = np.asarray(a, dtype=np.float64)
    total = np.sum(m * m)
    # A NaN or infinite entry makes the sum non-finite, so only then is the
    # input scanned; finite entries whose squares overflow give inf.
    if not np.isfinite(total) and not np.all(np.isfinite(m)):
        raise ValueError("input contains non-finite values")
    return float(np.sqrt(total))


def numerical_rank(a, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above ``rank_tol`` times the largest one."""
    m = _as_matrix(a)
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def pseudoinverse(a, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with a relative cutoff.

    Singular values at or below ``rank_tol`` times the largest singular value
    are treated as zero.  An all-zero input maps to the all-zero matrix of
    transposed shape (numerical rank 0).

    Parameters
    ----------
    a : array_like, shape (n, m)
        Matrix to invert; all entries must be finite.
    rank_tol : float
        Relative singular-value cutoff, must be positive.

    Returns
    -------
    numpy.ndarray, shape (m, n)
    """
    m = _as_matrix(a)
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s[0] <= 0.0:
        return np.zeros((m.shape[1], m.shape[0]))
    keep = s > rank_tol * s[0]
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return (vt.T * inv_s) @ u.T


def row_normalize(a) -> np.ndarray:
    """Scale each row to sum to 1.

    Accepts a matrix or a single vector (treated as one row).  Raises
    :class:`EmptyRowError` with the offending row index if any row sums to
    zero.
    """
    arr = np.asarray(a, dtype=np.float64)
    squeeze = arr.ndim == 1
    m = _as_matrix(np.atleast_2d(arr))
    if np.any(m < 0):
        raise ValueError("row_normalize expects non-negative entries")
    sums = m.sum(axis=1)
    zero = np.flatnonzero(sums == 0.0)
    if zero.size:
        raise EmptyRowError(zero[0])
    out = m / sums[:, None]
    return out[0] if squeeze else out


def _simplex_rows_raw(m: np.ndarray) -> np.ndarray:
    # Vectorized simplex projection along the last axis (of a matrix or a
    # stack of them) without the exact-sum canonicalization pass; sums land
    # within ~1e-15 of 1.  The solver's projection, in its iterations and
    # for the factors it returns; other callers get simplex_project_rows.
    u = -np.sort(-m, axis=-1)
    cssv = np.cumsum(u, axis=-1) - 1.0
    n = m.shape[-1]
    # The last index where the condition holds (it always holds at 0).
    rho = (n - 1) - (u * np.arange(1, n + 1) > cssv)[..., ::-1].argmax(axis=-1)
    # cssv at index rho of each row, read through the flat array.
    theta = cssv.reshape(-1)[np.arange(0, cssv.size, n).reshape(rho.shape) + rho]
    return np.maximum(m - (theta / (rho + 1.0))[..., None], 0.0)


def _canonicalize_rows(w: np.ndarray) -> np.ndarray:
    # _canonicalize_list on each row, bit for bit.  The loop there keeps the
    # longest prefix of the descending-sorted support whose sum is exactly
    # 1.0 or whose sum without its last entry is below 1.0; that last entry
    # becomes 1.0 minus that sum unless the prefix sums to 1.0 exactly.
    order = np.argsort(-w, axis=1, kind="stable")
    s = np.take_along_axis(w, order, axis=1)
    cs = np.cumsum(s, axis=1)
    partial = np.zeros_like(cs)
    partial[:, 1:] = cs[:, :-1]
    ok = ((cs == 1.0) | (partial < 1.0)) & (s > 0)
    n = w.shape[1]
    k = (n - 1) - ok[:, ::-1].argmax(axis=1)
    has = ok.any(axis=1)
    s[(np.arange(n) > k[:, None]) & (s > 0)] = 0.0
    rows = np.flatnonzero(has & (cs[np.arange(len(w)), k] != 1.0))
    s[rows, k[rows]] = 1.0 - partial[rows, k[rows]]
    out = np.empty_like(w)
    np.put_along_axis(out, order, s, axis=1)
    # A row without a positive entry becomes the first unit vector.
    out[~has, 0] = 1.0
    return out


def _project_list(x: list) -> list:
    # One simplex projection of a list of floats: sort descending, find the
    # last index rho where u[rho] * (rho + 1) exceeds the cumulative sum minus
    # 1, and subtract that sum over rho + 1 from every entry.
    u = sorted(x, reverse=True)
    total = 0.0
    rho, cssv_rho = 0, u[0] - 1.0
    for i, a in enumerate(u):
        total += a
        c = total - 1.0
        if a * (i + 1) > c:
            rho, cssv_rho = i, c
    theta = cssv_rho / (rho + 1.0)
    # A difference of exactly zero (of either sign) becomes +0.0.
    return [d if (d := a - theta) > 0.0 else 0.0 for a in x]


def _canonicalize_list(w: list) -> list:
    # Rewrite the smallest positive entry so that the cumulative sum of the
    # descending-sorted support is exactly 1.0, which makes the projection a
    # bitwise fixed point of _project_list.  Ties keep index order (sorted
    # is stable under reverse=True).
    w = list(w)
    order = sorted((i for i, a in enumerate(w) if a > 0.0),
                   key=w.__getitem__, reverse=True)
    cs = list(itertools.accumulate(w[i] for i in order))
    for k in range(len(order) - 1, -1, -1):
        if cs[k] == 1.0:
            return w
        last = 1.0 - (cs[k - 1] if k else 0.0)
        if last > 0.0:
            w[order[k]] = last
            return w
        w[order[k]] = 0.0
    w[0] = 1.0
    return w


def simplex_project(v) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    The output is non-negative, sums to 1 (within 1e-12, and exactly along
    the descending cumulative sum used internally), and the projection is
    idempotent: projecting an already-projected vector returns it unchanged.
    """
    # Python floats, not numpy calls: on vectors of R entries, as in
    # retrieval, per-call overhead outweighs the arithmetic.  The IEEE
    # operations and their order are those of simplex_project_rows, so the
    # bits are too.  Per call (400 vectors, half near the simplex; 2-core
    # x86-64 Linux): 11 us at n = 10 against 45 us for the numpy version,
    # but 13 ms at n = 10,000 against 1.2 ms (simplex_project_rows: 1.6 ms).
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("simplex_project expects a non-empty vector")
    xs = x.tolist()
    if not all(map(math.isfinite, xs)):
        raise ValueError("simplex_project expects finite values")
    if len(xs) == 1:
        return np.array([1.0])
    # Shift very large inputs toward the origin; the projection is invariant
    # to adding a constant to every coordinate, and moderate magnitudes avoid
    # catastrophic cancellation in the threshold computation.
    if max(map(abs, xs)) > 2.0:
        shift = max(xs) - 1.0
        xs = [a - shift for a in xs]
    w = _project_list(xs)
    for _ in range(32):
        if _project_list(w) == w:
            break
        w = _canonicalize_list(w)
    return np.array(w)


def simplex_project_rows(a) -> np.ndarray:
    """Project each row of a matrix onto the probability simplex.

    Bitwise equal to :func:`simplex_project` applied to each row: one
    vectorized projection (after the same shift of rows with an entry above
    2 in magnitude) and one vectorized fixed-point check, then the
    canonicalization rounds, vectorized, for the rows that fail it.
    """
    m = _as_matrix(a)
    if m.shape[1] == 1:
        return np.ones_like(m)
    big = np.abs(m).max(axis=1) > 2.0
    if big.any():
        m = m.copy()
        m[big] -= (m[big].max(axis=1) - 1.0)[:, None]
    w = _simplex_rows_raw(m)
    bad = np.flatnonzero((_simplex_rows_raw(w) != w).any(axis=1))
    if bad.size:
        v = _canonicalize_rows(w[bad])
        for _ in range(31):
            again = (_simplex_rows_raw(v) != v).any(axis=1)
            if not again.any():
                break
            v[again] = _canonicalize_rows(v[again])
        w[bad] = v
    return w
