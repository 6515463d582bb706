"""Synthetic instances with known factors, plus alignment scoring.

Generated instances are deterministic for a given seed and can embed anchor
structure: for every factor index r one W row equal to the r-th unit vector
and one H column supported only on r, which makes the factorization unique
up to reordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factors import FactorPair, Orientation
from .linalg import frobenius_norm, row_normalize
from .solver import InvalidInputError

__all__ = ["GroundTruth", "align_and_score", "generate"]


@dataclass(frozen=True)
class GroundTruth:
    w: np.ndarray
    h: np.ndarray
    orientation: Orientation
    anchors: bool
    noise_sigma: float
    seed: int

    @property
    def pair(self) -> FactorPair:
        return FactorPair(w=self.w, h=self.h, orientation=self.orientation)


def generate(n_rows: int, n_cols: int, rank: int, *, anchors: bool = True,
             noise_sigma: float = 0.0, orientation: Orientation = Orientation.BOTH,
             seed: int = 0) -> tuple[np.ndarray, GroundTruth]:
    """Draw a random instance X = W @ H (+ optional noise) with known factors.

    W rows are sampled on the probability simplex.  H rows are sampled on
    the simplex when the orientation constrains them, otherwise uniformly on
    [0, 1].  With ``anchors`` the first ``rank`` W rows form the identity and
    the first ``rank`` H columns are supported on a single factor each.
    Noise is Gaussian; the noisy matrix is clipped to stay non-negative and,
    for row-stochastic X, re-normalized so rows remain distributions.

    Returns
    -------
    (X, GroundTruth)
    """
    if rank < 1:
        raise InvalidInputError("rank must be at least 1")
    if n_rows <= rank or n_cols <= rank:
        raise InvalidInputError("need n_rows > rank and n_cols > rank")
    if noise_sigma < 0:
        raise InvalidInputError("noise_sigma must be non-negative")
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(rank), size=n_rows)
    if orientation is Orientation.W_ROWS_SUM_TO_1:
        h = rng.uniform(0.0, 1.0, size=(rank, n_cols))
    else:
        h = rng.dirichlet(np.ones(n_cols), size=rank)
    if anchors:
        w[:rank] = np.eye(rank)
        h[:, :rank] = 0.0
        h[np.arange(rank), np.arange(rank)] = rng.uniform(0.5, 1.0, size=rank)
        if orientation is not Orientation.W_ROWS_SUM_TO_1:
            h = row_normalize(h)
    x = w @ h
    if noise_sigma > 0.0:
        x = x + rng.normal(0.0, noise_sigma, size=x.shape)
        if orientation is Orientation.W_ROWS_SUM_TO_1:
            x = np.clip(x, 0.0, 1.0)
        else:
            x = row_normalize(np.clip(x, 0.0, None))
    truth = GroundTruth(w=w, h=h, orientation=orientation, anchors=anchors,
                        noise_sigma=float(noise_sigma), seed=int(seed))
    return x, truth


def align_and_score(h_est, h_true) -> tuple[np.ndarray, float]:
    """Best row matching of an estimated H against a reference H.

    Finds the permutation ``perm`` minimizing the Frobenius distance between
    ``h_est[perm]`` and ``h_true`` by optimal assignment and returns it
    together with the relative error ``||h_est[perm] - h_true||_F /
    ||h_true||_F``.  scipy is imported here, on first use, so that
    importing the package does not load it.
    """
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(h_est, dtype=np.float64)
    b = np.asarray(h_true, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    rank = a.shape[0]
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    rows, cols = linear_sum_assignment(d2)
    perm = np.empty(rank, dtype=np.int64)
    perm[cols] = rows
    denom = frobenius_norm(b)
    if denom == 0.0:
        raise ValueError("reference factor is identically zero")
    err = frobenius_norm(a[perm] - b) / denom
    return perm, float(err)
