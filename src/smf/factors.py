"""Factor-pair container and feasibility checks.

A factorization X = W @ H is stored as the pair (W, H) together with an
orientation that declares which factor carries the adding-up constraint:
rows of W, rows of H, or both.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .linalg import _frozen, pseudoinverse

__all__ = ["Orientation", "FactorPair"]


class Orientation(Enum):
    """Which factor's rows are constrained to sum to 1."""

    W_ROWS_SUM_TO_1 = "w-rows"
    H_ROWS_SUM_TO_1 = "h-rows"
    BOTH = "both"

    @property
    def w_stochastic(self) -> bool:
        return self in (Orientation.W_ROWS_SUM_TO_1, Orientation.BOTH)

    @property
    def h_stochastic(self) -> bool:
        return self in (Orientation.H_ROWS_SUM_TO_1, Orientation.BOTH)


@dataclass(frozen=True)
class FactorPair:
    """Pair of non-negative factors with a declared stochastic dimension.

    ``w`` and ``h`` are read-only float64 copies of the inputs (a read-only
    input is copied too): an in-place edit raises ``ValueError``, so build a
    new pair instead.
    Two read-only caches derived from them are computed on first use and
    kept for the pair's lifetime: ``h_pinv`` (m x rank floats) and
    ``w_search`` (n x (rank + 1) floats: W transposed and the halved row
    norms -||w_i||^2 / 2), which ``faces.retrieve`` shares across queries.

    Attributes
    ----------
    w : numpy.ndarray, shape (n, rank)
    h : numpy.ndarray, shape (rank, m)
    orientation : Orientation
    """

    w: np.ndarray
    h: np.ndarray
    orientation: Orientation

    def __post_init__(self):
        w = _frozen(self.w)
        h = _frozen(self.h)
        if w.ndim != 2 or h.ndim != 2:
            raise ValueError("factors must be 2-dimensional arrays")
        if w.shape[1] != h.shape[0]:
            raise ValueError(
                f"inner dimensions disagree: W is {w.shape}, H is {h.shape}"
            )
        if w.shape[1] < 1:
            raise ValueError("rank must be at least 1")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(h))):
            raise ValueError("factors contain non-finite values")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "h", h)

    @property
    def rank(self) -> int:
        return self.w.shape[1]

    @cached_property
    def h_pinv(self) -> np.ndarray:
        """pinv(H) at the default cutoff, computed once per pair (read-only)."""
        pinv = pseudoinverse(self.h)
        pinv.setflags(write=False)
        return pinv

    @cached_property
    def w_search(self) -> tuple:
        """``(wt, c, m)`` for nearest-row search, computed once per pair.

        ``wt`` is W transposed, a read-only C-ordered (rank, n) float64
        array, and ``c`` the n-vector -||w_i||^2 / 2; the two share one
        buffer of 8 n (rank + 1) bytes beside W.  ``p @ wt + c`` is
        ``-(||w_i - p||^2 - ||p||^2) / 2``, which ranks the rows by their
        distance to p with one matrix-vector product over rows of length n.
        ``m`` is the largest ||w_i||^2, which bounds the rounding of that
        product.
        """
        sq = np.einsum("ij,ij->i", self.w, self.w)
        buf = np.empty((self.rank + 1, self.w.shape[0]))
        buf[:-1] = self.w.T
        buf[-1] = -0.5 * sq
        buf.setflags(write=False)
        return buf[:-1], buf[-1], float(sq.max())

    def max_violation(self) -> float:
        """Largest feasibility violation over non-negativity and row sums."""
        worst = max(float(np.max(-self.w, initial=0.0)),
                    float(np.max(-self.h, initial=0.0)))
        if self.orientation.w_stochastic:
            worst = max(worst, float(np.max(np.abs(self.w.sum(axis=1) - 1.0))))
        if self.orientation.h_stochastic:
            worst = max(worst, float(np.max(np.abs(self.h.sum(axis=1) - 1.0))))
        return worst


def _data_matrix(x, factors: FactorPair) -> np.ndarray:
    # X as float64, checked to have the shape (n, m) of W @ H.
    xm = np.asarray(x, dtype=np.float64)
    if xm.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    if xm.shape != (factors.w.shape[0], factors.h.shape[1]):
        raise ValueError(
            f"X shape {xm.shape} does not match factors "
            f"({factors.w.shape[0]}, {factors.h.shape[1]})"
        )
    return xm
