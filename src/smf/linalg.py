"""Dense linear algebra primitives shared by the solver and the analyzers.

All functions operate on float64 numpy arrays and are pure: no global state,
no in-place mutation of caller data (but for the row orders that
``_simplex_rows_ordered`` returns and takes back on its next call), and
bitwise-deterministic results for identical inputs.
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
    # A read-only C-ordered float64 copy of ``a``, made even of a read-only
    # input: no later write to a buffer behind the input, nor an owner that
    # turns writing back on, can change the result.
    m = np.array(a, dtype=np.float64, order="C")
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
    # within ~1e-15 of 1.  The solver's projection, in its iterations (where
    # a tall W takes _simplex_rows_ordered, with the same bits) and for the
    # factors it returns; other callers get simplex_project, which runs the
    # same IEEE operations on Python floats and then canonicalizes.
    u = -np.sort(-m, axis=-1)
    cssv = np.cumsum(u, axis=-1) - 1.0
    n = m.shape[-1]
    # The last index where the condition holds (it always holds at 0).
    rho = (n - 1) - (u * np.arange(1, n + 1) > cssv)[..., ::-1].argmax(axis=-1)
    # cssv at index rho of each row, read through the flat array.
    theta = cssv.reshape(-1)[np.arange(0, cssv.size, n).reshape(rho.shape) + rho]
    return np.maximum(m - (theta / (rho + 1.0))[..., None], 0.0)


def _simplex_rows_ordered(m: np.ndarray, order):
    # _simplex_rows_raw of a tall N×n matrix, given the row orders of the
    # previous call; returns the projection and the row orders of this one.
    # ``order`` is None or an n×N intp array whose column i lists the flat
    # positions in m of row i's entries in descending order; it is updated
    # in place.  One flat take gathers every row in its old order, and only
    # the rows that this leaves out of descending order are sorted again.
    # Equal floats have equal bits but for the sign of a zero, which the
    # sums below erase (cssv subtracts 1 from every one), so each row's
    # descending values, and with them every IEEE operation and its order,
    # are _simplex_rows_raw's: so are the bits.  The layout is n×N, so the
    # cumulative sum runs as n sweeps over length-N vectors.
    n_rows, n = m.shape
    flat = m.reshape(-1)
    if order is None:
        order = np.empty((n, n_rows), dtype=np.intp)
        u = np.empty((n, n_rows))
        broke = np.arange(n_rows)
    else:
        u = flat.take(order)
        broke = np.flatnonzero((u[:-1] < u[1:]).any(axis=0))
    if broke.size:
        order[:, broke] = (np.argsort(-m[broke], axis=1) + (broke * n)[:, None]).T
        u[:, broke] = flat.take(order[:, broke])
    cssv = np.empty_like(u)
    cssv[0] = u[0]
    for k in range(1, n):
        np.add(cssv[k - 1], u[k], out=cssv[k])
        # u[k] is not read again, so it holds its product with k + 1.
        np.multiply(u[k], k + 1.0, out=u[k])
    cssv -= 1.0
    # The last index where u (k + 1) > cssv, as 1 + index (0 where the
    # condition never holds, which _simplex_rows_raw reads as n - 1).
    ks = np.arange(1, n + 1, dtype=np.min_scalar_type(n))[:, None]
    rho = ((np.greater(u, cssv) * ks).max(axis=0).astype(np.intp) - 1) % n
    theta = cssv.reshape(-1).take(rho * n_rows + np.arange(n_rows))
    w = np.subtract(flat, np.repeat(np.divide(theta, rho + 1.0, out=theta), n))
    return np.maximum(w, 0.0, out=w).reshape(m.shape), order


def _threshold(u: list) -> float:
    # The shift theta of the simplex projection of the floats u, which are in
    # descending order: find the last index rho where u[rho] * (rho + 1)
    # exceeds the cumulative sum minus 1, and divide that sum by rho + 1.
    total = 0.0
    rho, cssv_rho = 0, u[0] - 1.0
    for i, a in enumerate(u):
        total += a
        c = total - 1.0
        if a * (i + 1) > c:
            rho, cssv_rho = i, c
    return cssv_rho / (rho + 1.0)


def _is_fixed(u: list, theta: float = 0.0) -> bool:
    # Whether a projection w is a bitwise fixed point, for u in descending
    # order and w the list u, in some order, less theta with non-positive
    # differences set to 0.0 (with theta 0.0, a non-negative w is u in some
    # order).  Subtracting theta keeps the order, so the loop sums the
    # positive entries of w in descending order.  The rule: projecting w
    # again (_threshold of w sorted, then a - theta with non-positive
    # differences set to 0.0) gives a list equal to w exactly when that sum,
    # S, is exactly 1.0.  It holds for n < 2**53 non-negative floats below
    # 2**52 (a projection's entries are about 1 at most), zeros of either
    # sign (the projection's own zeros are +0.0, so it keeps their bits).
    #
    # Let v_0 >= ... >= v_{n-1} be w sorted, P_i the running float sum of
    # v_0..v_i and c_i = P_i - 1.0, rho the last index where v_i * (i + 1) >
    # c_i (it holds at i = 0, as v_0 < 2**52) and q = rho + 1; the shift is
    # c_rho / q, rounded.  Float rounding is monotone, running sums of
    # non-negative terms never fall, and q copies of 2**e add up exactly to
    # q * 2**e.
    #
    # If S == 1.0, the test holds at the last positive entry, where c is
    # 0.0, and fails at each zero after it, where c stays 0.0: the shift is
    # 0.0 and every entry maps to itself.
    #
    # If S != 1.0, v_rho moves.  When v_rho > 0, let 2**e <= v_rho <
    # 2**(e+1); all of v_0..v_rho are at least 2**e, so P_rho >= q * 2**e.
    # (a) P_rho == 1.0 cannot be: then S > 1.0, and at the first j > rho
    #     with P_j > 1.0, P_j = 1.0 + v_j rounded, so v_j > 2**-53 (1.0 +
    #     2**-53 rounds to 1.0).  If v_j < 1, c_j = P_j - 1 exactly and the
    #     addition rounded by at most 2**-53, so c_j < 2 * v_j; if v_j >= 1,
    #     P_j <= 2 * v_j and c_j <= 2 * v_j - 1, exact as gaps there are at
    #     most 1.  As j >= 1, v_j * (j + 1) >= 2 * v_j > c_j: the test holds
    #     at j, after rho.
    # (b) P_rho > 1.0: c_rho is P_rho - 1 >= 2**-52 exactly, or at least
    #     P_rho / 2 when P_rho >= 2; either way c_rho >= (1 + 2**-52) *
    #     2**-53 * P_rho.  A zero fails the test against c_rho > 0, so v_rho
    #     > 0, and c_rho / q >= (1 + 2**-52) * 2**(e-53), the float after
    #     2**(e-53).  So the shift rounds to above 2**(e-53), at least half
    #     the gap below v_rho, and v_rho less it rounds below v_rho or to
    #     0.0.  (Should 2**(e-53) be subnormal, the shift, at least about
    #     2**-52 / q, exceeds v_rho, which maps to 0.0.)
    # (c) P_rho < 1.0: c_rho <= -2**-53, so the shift is negative and a zero
    #     v_rho turns positive.  Else q * 2**e <= P_rho < 1.  Let 2**f be the
    #     largest power of two below 1 / q, so e <= f; 1 / q - 2**f =
    #     (2**-f - q) * 2**f / q >= 2**f / q, so 2**-53 / q exceeds 2**(f-53)
    #     by more than 2**(f-106), half the gap above it, as q < 2**53.  So
    #     the shift's magnitude rounds to above 2**(e-53), half the gap above
    #     v_rho, and v_rho rises.  (A subnormal v_rho, whose gaps are
    #     2**-1074, moves in (b) and (c) alike: the shift is far larger.)
    total = 0.0
    for a in u:
        if (d := a - theta) <= 0.0:
            break
        total += d
    return total == 1.0


def _canonicalize_list(w: list) -> list:
    # Rewrite the smallest positive entry so that the cumulative sum of the
    # descending-sorted support is exactly 1.0, which makes the projection a
    # bitwise fixed point (_is_fixed).  Ties keep index order (sorted is
    # stable under reverse=True).
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


def _fixed_point(w: list) -> list:
    # Canonicalize a projection that is not a fixed point until it is; the
    # rounds are capped at 32.
    for _ in range(32):
        w = _canonicalize_list(w)
        if _is_fixed(sorted(w, reverse=True)):
            break
    return w


def simplex_project(v) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    The output is non-negative, sums to 1 (within 1e-12, and exactly along
    the descending cumulative sum used internally), and the projection is
    idempotent: projecting an already-projected vector returns it unchanged.
    """
    # Python floats, not numpy calls: on vectors of R entries, as in
    # retrieval, per-call overhead outweighs the arithmetic.  After the shift
    # below, the IEEE operations and their order are those of
    # _simplex_rows_raw, and so are the bits before canonicalization.  Per
    # call (400 vectors, half near the simplex; 1 BLAS thread, 2-core x86-64
    # Linux, best of 5): 9.7 us at n = 10 against 42 us for a numpy version,
    # but 4.6 ms at n = 10,000 against 0.33 ms for a numpy version on that
    # one vector.
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
    u = sorted(xs, reverse=True)
    theta = _threshold(u)
    w = [d if (d := a - theta) > 0.0 else 0.0 for a in xs]
    return np.array(w if _is_fixed(u, theta) else _fixed_point(w))


def simplex_project_rows(a) -> np.ndarray:
    """Project each row of a matrix onto the probability simplex.

    Row i of the result is ``simplex_project(a[i])``, bit for bit.
    """
    m = _as_matrix(a)
    return np.vstack([simplex_project(r) for r in m])
