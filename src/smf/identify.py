"""Uniqueness analysis for row-stochastic factorizations.

Given a factor pair (W, H), this module decides whether the factorization is
unique up to column permutation, computes the feasible parameter intervals
along each coordinate axis of the mixing-matrix space, and provides a
random-walk sampler over feasible mixing matrices that serves as a
brute-force cross-check for the analytic intervals.

All factor indices, row indices, and column indices in this module are
0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .factors import FactorPair, _data_matrix
from .linalg import _frozen

__all__ = [
    "AxisBound",
    "DegenerateFactorError",
    "MixingMatrix",
    "SupportSets",
    "UniquenessReport",
    "Violation",
    "ViolationKind",
    "analysis_report",
    "average_consistency_diagnostic",
    "check_uniqueness",
    "natural_bounds",
    "sample_feasible_A",
    "support_sets",
]

# Estimated factors are feasible only up to the solver's slack, so entries
# below this threshold are treated as structural zeros; exact synthetic
# factors should be analyzed with zero_tol=0.
DEFAULT_ZERO_TOL_ESTIMATED = 1e-6

_ROW_SUM_TOL = 1e-10


class DegenerateFactorError(ValueError):
    """Raised when some factor index has an empty support on one side."""


class ViolationKind(Enum):
    W_SUBSET = "W_SUBSET"
    H_SUBSET = "H_SUBSET"


@dataclass(frozen=True)
class SupportSets:
    """Nonzero patterns of the factor columns of W and factor rows of H.

    ``w_support[r]`` holds the row indices i with ``W[i, r] > zero_tol``;
    ``h_support[r]`` holds the column indices j with ``H[r, j] > zero_tol``.
    The comparison is strict, so entries in ``[-zero_tol, zero_tol]`` count
    as zero; a factor with an entry below ``-zero_tol`` is refused.
    """

    w_support: tuple[frozenset, ...]
    h_support: tuple[frozenset, ...]
    zero_tol: float


@dataclass(frozen=True)
class Violation:
    """One ordered pair whose supports are nested, blocking uniqueness."""

    kind: ViolationKind
    r1: int
    r2: int


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of the support-containment uniqueness test.

    ``unique`` is true exactly when ``violations`` is empty.  ``anchor_rows``
    maps each factor index r to the rows of W supported only on r;
    ``anchor_cols`` maps r to the columns of H supported only on r.
    """

    unique: bool
    violations: tuple[Violation, ...]
    anchor_rows: dict
    anchor_cols: dict

    def __post_init__(self):
        if self.unique != (len(self.violations) == 0):
            raise ValueError("unique flag must match emptiness of violations")


def _check_zero_tol(zero_tol: float) -> None:
    # An infinite zero_tol would make every entry a zero, and nan no entry.
    if not 0.0 <= zero_tol < np.inf:
        raise ValueError(f"zero_tol must be non-negative and finite, not {zero_tol!r}")


def _check_step(step: float) -> None:
    # A step that is not positive makes no move; a nan or infinite one would
    # reach report.json and manifest.json, which JSON cannot hold.
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, not {step!r}")


def _supports(factors: FactorPair, zero_tol: float) -> tuple:
    # The one support test behind the verdict, the anchors and the bounds:
    # masks of W > zero_tol (n x R) and H.T > zero_tol (m x R).  An entry
    # below -zero_tol is neither a zero nor a support, so it is refused.
    _check_zero_tol(zero_tol)
    for name, a in (("W", factors.w), ("H", factors.h)):
        below = np.argwhere(a < -zero_tol)
        if below.size:
            i, j = below[0].tolist()
            raise ValueError(f"{name}[{i}, {j}] = {float(a[i, j])!r} lies below "
                             f"-zero_tol (zero_tol = {float(zero_tol)!r})")
    return factors.w > zero_tol, factors.h.T > zero_tol


def support_sets(factors: FactorPair, zero_tol: float = 0.0) -> SupportSets:
    """Compute the per-factor support sets of W's columns and H's rows."""
    w_nz, h_nz = _supports(factors, zero_tol)
    w_sup, h_sup = (tuple(frozenset(np.flatnonzero(col).tolist()) for col in nz.T)
                    for nz in (w_nz, h_nz))
    return SupportSets(w_support=w_sup, h_support=h_sup, zero_tol=float(zero_tol))


def _anchors(nz: np.ndarray) -> dict:
    # A row (of W) or column (of H, a row of the transposed mask) anchors
    # factor r when its support is exactly {r}.
    out = {r: [] for r in range(nz.shape[1])}
    single = np.flatnonzero(nz.sum(axis=1) == 1)
    for i, r in zip(single.tolist(), nz[single].argmax(axis=1).tolist()):
        out[r].append(i)
    return out


def check_uniqueness(factors: FactorPair, zero_tol: float = 0.0) -> UniquenessReport:
    """Test uniqueness up to column permutation via support containment.

    The factorization is unique exactly when no ordered pair (r1, r2) with
    r1 != r2 has the support of W's column r1 contained in that of column r2,
    and likewise for the rows of H.  Containment includes equality, and an
    empty support is contained in every set.  Violations are listed by r1,
    then r2, with W's before H's.
    """
    w_nz, h_nz = _supports(factors, zero_tol)
    # nested[r1, r2, side]: no entry lies in the support of r1 and outside
    # that of r2, one boolean product per side (W, then H).
    nested = np.stack([~(nz.T @ ~nz) for nz in (w_nz, h_nz)], axis=-1)
    nested[np.eye(factors.rank, dtype=bool)] = False
    kinds = (ViolationKind.W_SUBSET, ViolationKind.H_SUBSET)
    violations = tuple(Violation(kinds[k], r1, r2)
                       for r1, r2, k in np.argwhere(nested).tolist())
    return UniquenessReport(
        unique=not violations,
        violations=violations,
        anchor_rows=_anchors(w_nz),
        anchor_cols=_anchors(h_nz),
    )


@dataclass(frozen=True)
class AxisBound:
    """Feasible interval for the single free parameter on one axis.

    The axis (r1, r2) perturbs the factorization by mixing factor r2 into
    factor r1; ``lower`` comes from keeping W non-negative and ``upper``
    from keeping H non-negative, so ``lower <= 0 <= upper`` always holds
    and the factorization is pinned on this axis exactly when the width
    is 0.
    """

    r1: int
    r2: int
    lower: float
    upper: float
    width: float

    def __post_init__(self):
        if not (self.lower <= 0.0 <= self.upper):
            raise ValueError("axis interval must contain 0")
        if abs(self.width - (self.upper - self.lower)) > 1e-12:
            raise ValueError("width must equal upper - lower")


def _ratio_mins(a: np.ndarray, nz: np.ndarray) -> np.ndarray:
    # M[r1, r2] = min of a[i, r2] / a[i, r1] over the rows i in the support
    # nz of column r1, one masked division per column r1.  Numerators
    # outside the support count as exact zeros since they impose no
    # constraint beyond non-negativity.
    num = np.where(nz, a, 0.0)
    out = np.empty((a.shape[1], a.shape[1]))
    for r in range(a.shape[1]):
        keep = nz[:, r]
        out[r] = (num[keep] / a[keep, r, None]).min(axis=0)
    return out


def natural_bounds(factors: FactorPair, zero_tol: float = 0.0) -> list:
    """Closed-form feasible intervals along all R(R-1) coordinate axes.

    For the ordered pair (r1, r2) the interval is
    ``[-min_i W[i, r2] / W[i, r1], min_j H[r1, j] / H[r2, j]]`` with the
    minima restricted to denominators above ``zero_tol``.  Bounds are
    returned in lexicographic (r1, r2) order.

    Raises
    ------
    ValueError
        If ``zero_tol`` is negative or not finite, or an entry lies below
        ``-zero_tol``.
    DegenerateFactorError
        If some factor index has no entry above ``zero_tol`` in its W column
        or its H row.
    """
    w_nz, h_nz = _supports(factors, zero_tol)
    empty = np.argwhere(~np.stack([w_nz.any(axis=0), h_nz.any(axis=0)], axis=1))
    if empty.size:
        r, k = empty[0].tolist()
        raise DegenerateFactorError(f"factor {r} has empty support in {'WH'[k]}")
    rank = factors.rank
    lower = (-_ratio_mins(factors.w, w_nz)).tolist()
    upper = _ratio_mins(factors.h.T, h_nz).T.tolist()
    return [AxisBound(r1=r1, r2=r2, lower=lower[r1][r2], upper=upper[r1][r2],
                      width=upper[r1][r2] - lower[r1][r2])
            for r1 in range(rank) for r2 in range(rank) if r1 != r2]


@dataclass(frozen=True)
class MixingMatrix:
    """Square change-of-basis matrix whose rows sum to 1 (``a`` read-only)."""

    a: np.ndarray

    def __post_init__(self):
        m = _frozen(self.a)
        object.__setattr__(self, "a", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("mixing matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("mixing matrix must be finite")
        if np.max(np.abs(m.sum(axis=1) - 1.0)) > _ROW_SUM_TOL:
            raise ValueError("mixing matrix rows must sum to 1")
        if np.linalg.det(m) == 0.0:
            raise ValueError("mixing matrix must be invertible")


def _fix_row_sums(a: np.ndarray) -> np.ndarray:
    # Re-impose unit row sums by adjusting the diagonal, leaving the
    # off-diagonal proposal untouched.
    out = a.copy()
    diagonal = out.reshape(-1)[::out.shape[0] + 1]
    diagonal[:] = 0.0
    diagonal[:] = 1.0 - out.sum(axis=1)
    return out


def _screens(w: np.ndarray, h: np.ndarray) -> tuple:
    # For each factor, the row of W where its column peaks and the column of
    # H where its row peaks: its anchor row and column, when it has them,
    # where W A and inv(A) H turn negative first as A moves off the
    # identity.  Each slack, times the largest |A| entry (W side) or the
    # largest |inv(A)| row sum (H side), bounds how far two BLAS products
    # may round one length-R dot product apart.
    ws = w[np.unique(np.argmax(w, axis=0))]
    hs = h[:, np.unique(np.argmax(h, axis=1))]
    gamma = 2.0 * (w.shape[1] + 1) * np.finfo(np.float64).eps
    return ws, gamma * np.abs(ws).sum(axis=1).max(), hs, gamma * np.abs(hs).max()


def _is_feasible(a: np.ndarray, w: np.ndarray, h: np.ndarray,
                 zero_tol: float, screens: tuple) -> bool:
    # W A >= -zero_tol and inv(A) H >= -zero_tol, tested first on the
    # screen rows of W and columns of H, so a proposal that a screen rejects
    # forms neither full product.  A screen rejects only below -zero_tol by
    # more than its rounding slack, where the full product rejects as well,
    # so the screens change the cost of a verdict and never the verdict.
    ws, w_slack, hs, h_slack = screens
    low = (ws @ a).min() + zero_tol
    if low < 0.0 and low < -w_slack * np.abs(a).max():
        return False
    try:
        # One R x R inverse and a product: LAPACK's solve with H's many
        # right-hand sides takes several times as long.
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return False
    low = (inv @ hs).min() + zero_tol
    if low < 0.0 and low < -h_slack * np.abs(inv).sum(axis=1).max():
        return False
    if (w @ a).min() < -zero_tol:
        return False
    mixed_h = inv @ h
    if not np.all(np.isfinite(mixed_h)):
        return False
    return mixed_h.min() >= -zero_tol


def sample_feasible_A(factors: FactorPair, n_samples: int, seed: int,
                      step: float = 0.05, *, zero_tol: float = 0.0) -> list:
    """Random-walk sampler over feasible mixing matrices.

    Starting from the identity, each iteration proposes either a reset to
    the identity, a move of a single off-diagonal entry, or a dense Gaussian
    perturbation (row sums re-imposed via the diagonal in all cases).  The
    proposal is adopted only when both W.A and inv(A) H stay above
    ``-zero_tol`` elementwise; the current state is recorded every
    iteration, so exactly ``n_samples`` matrices are returned.  Samples are
    read-only, and every iteration that keeps a state records the same
    ``MixingMatrix`` object.  The single off-diagonal moves make the walk
    trace out the coordinate-axis intervals, which is what the analytic
    bounds are checked against.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    _check_step(step)
    _check_zero_tol(zero_tol)
    rng = np.random.default_rng(seed)
    w, h = factors.w, factors.h
    rank = factors.rank
    identity = MixingMatrix(a=np.eye(rank))
    screens = _screens(w, h)
    # Resets propose the same matrix every time, so their verdict is fixed.
    reset_ok = _is_feasible(identity.a, w, h, zero_tol, screens)
    state = identity
    out = []
    for _ in range(n_samples):
        u = rng.random()
        if rank < 2 or u < 0.25:
            if reset_ok:
                state = identity
        else:
            if u < 0.625:
                r1 = int(rng.integers(rank))
                r2 = int((r1 + 1 + rng.integers(rank - 1)) % rank)
                proposal = state.a.copy()
                proposal[r1, r2] += rng.normal(0.0, step)
                proposal = _fix_row_sums(proposal)
            else:
                proposal = _fix_row_sums(state.a + rng.normal(0.0, step, (rank, rank)))
            if _is_feasible(proposal, w, h, zero_tol, screens):
                state = MixingMatrix(a=proposal)
        out.append(state)
    return out


def average_consistency_diagnostic(x, factors: FactorPair) -> float:
    """Max-norm gap between column means of X and of the reconstruction.

    Averaging X = W H + noise over rows gives mean(X) = mean(W) H up to the
    averaged noise, so for a correct H this gap shrinks with the row count
    while a wrong H leaves a persistent offset.
    """
    x_mean = _data_matrix(x, factors).mean(axis=0)
    w_mean = factors.w.mean(axis=0)
    return float(np.max(np.abs(x_mean - w_mean @ factors.h)))


_HISTOGRAM_EDGES = (0.0, 0.001, 0.01, 0.02, 1.0)


def _widths_histogram(widths) -> dict:
    # counts[k] tallies widths in [edges[k], edges[k+1]); the final slot
    # tallies widths >= the last edge.  Widths are never negative.
    slots = np.searchsorted(_HISTOGRAM_EDGES, np.asarray(widths, dtype=np.float64),
                            side="right") - 1
    counts = np.bincount(slots, minlength=len(_HISTOGRAM_EDGES))
    return {"edges": list(_HISTOGRAM_EDGES), "counts": counts.tolist()}


def analysis_report(factors: FactorPair, zero_tol: float = 0.0) -> dict:
    """JSON-ready uniqueness and bounds report.

    Keys: ``unique``, ``violations`` (list of {kind, r1, r2}), ``anchors``
    (factor index as string -> {rows, cols}), ``bounds`` (list of
    {r1, r2, lower, upper, width} in lexicographic axis order), and
    ``summary`` ({max_width, widths_histogram}).
    """
    report = check_uniqueness(factors, zero_tol)
    bounds = natural_bounds(factors, zero_tol)
    widths = [b.width for b in bounds]
    return {
        "unique": report.unique,
        "violations": [
            {"kind": v.kind.value, "r1": v.r1, "r2": v.r2}
            for v in report.violations
        ],
        "anchors": {
            str(r): {"rows": report.anchor_rows[r], "cols": report.anchor_cols[r]}
            for r in range(factors.rank)
        },
        "bounds": [
            {"r1": b.r1, "r2": b.r2, "lower": b.lower, "upper": b.upper,
             "width": b.width}
            for b in bounds
        ],
        "summary": {
            "max_width": max(widths) if widths else 0.0,
            "widths_histogram": _widths_histogram(widths),
        },
    }
