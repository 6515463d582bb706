"""Constrained least-squares factorization solver.

The estimator concentrates W out of the problem: for a candidate H, the
weight matrix is W = X @ pinv(H) projected onto its feasible set, and the
loss is the Frobenius norm of the residual X - W @ H.  Restart 0 starts
from the separable anchors of X found by successive projection (Gillis &
Vavasis, 2014), the others, which run only when restart 0 does not fit X
exactly, from seeded random points.
The restarts run one after another, each on its own 2-D arrays: projected
alternating least squares whose rounds are extrapolated with an adaptive
step (Ang & Gillis, 2019).  The H a restart ends at is scored once on the
concentrated objective, and the lowest score wins: its H and the W its
score used are the returned factors.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .factors import FactorPair, Orientation
from .linalg import (
    DEFAULT_RANK_TOL,
    _as_matrix,
    _simplex_rows_raw,
    frobenius_norm,
    pseudoinverse,
    row_normalize,
)

__all__ = [
    "InvalidInputError",
    "Mode",
    "RankDeficientError",
    "SolveResult",
    "SolverConfig",
    "concentrate_w",
    "factorize",
    "objective",
    "EPS_FEAS_PROJECTED",
]

EPS_FEAS_PROJECTED = 1e-9

_X_ROW_SUM_TOL = 1e-6


class InvalidInputError(ValueError):
    """Raised when the data matrix or configuration is unusable."""


class RankDeficientError(ValueError):
    """Raised when H does not have full row rank."""


class Mode(Enum):
    """How the concentrated W = X pinv(H) meets its constraints; PROJECTED,
    the only mode, projects it onto its feasible set."""

    PROJECTED = "projected"
    # An alias, not a second mode: perfbench/workloads.py still names
    # Mode.PENALTY.  Penalty mode, which returned the raw W, is gone.
    PENALTY = "projected"

    @classmethod
    def _missing_(cls, value):
        if value == "penalty":
            raise ValueError("penalty mode was removed; use mode 'projected'")
        return None


@dataclass
class SolverConfig:
    """Solver settings.  Of up to ``restarts`` starts, restart 0 is the
    anchor (SPA) start, which does not depend on ``seed``, and restart
    j >= 1 is the random start seeded ``seed + j``.  ``conv_tol`` sets the
    exact-fit bound ``conv_tol * |X|_F``: a restart 0 whose objective ends
    within it is the only restart that runs.  ``max_iter`` is accepted and
    ignored, so callers written for older versions still construct a
    config."""

    rank: int
    orientation: Orientation = Orientation.W_ROWS_SUM_TO_1
    conv_tol: float = 1e-8
    restarts: int = 5
    seed: int = 0
    mode: Mode = Mode.PROJECTED
    max_iter: InitVar[Optional[int]] = None

    def __post_init__(self, max_iter):
        if self.rank < 1:
            raise InvalidInputError("rank must be at least 1")
        if self.restarts < 1:
            raise InvalidInputError("restarts must be at least 1")
        if self.conv_tol <= 0:
            raise InvalidInputError("conv_tol must be positive")
        self.mode = Mode(self.mode)


@dataclass
class SolveResult:
    factors: FactorPair
    objective: float
    # [objective]: each restart is scored once, where its warm start ends.
    objective_trace: list[float]
    # The winning restart's warm-start rounds, and whether its warm start
    # stopped at the loss floor or a plateau (not at the round cap, on a
    # second rise in a row, or on a rank-deficient point or zero W).
    iterations: int
    converged: bool
    best_restart: int
    # Largest feasibility violation of ``factors``, and whether it is within
    # EPS_FEAS_PROJECTED.
    max_violation: float
    feasible: bool
    # Final objective of each restart that ran, by index: restart 0 alone
    # when it is an exact fit, all ``config.restarts`` otherwise.
    restart_objectives: list[float] = field(default_factory=list)


def _check_x(x) -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise InvalidInputError("X must be a non-empty 2-dimensional matrix")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("X contains non-finite values")
    if np.any(m < 0):
        raise InvalidInputError(f"X contains negative entries (min {m.min():.3e})")
    return m


def _full_rank_pinv(h: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL):
    # pinv(H) from one SVD, or None if H lacks full row rank.  On full-rank
    # input this is pseudoinverse()'s arithmetic, bit for bit.
    u, s, vt = np.linalg.svd(h, full_matrices=False)
    if not (s[0] > 0.0 and s[-1] > rank_tol * s[0]):
        return None
    return (vt.T * (1.0 / s)) @ u.T


def concentrate_w(x, h, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Least-squares weights for fixed H: W = X @ pinv(H).

    Raises :class:`RankDeficientError` if H lacks full row rank.
    """
    xm = _check_x(x)
    hm = _as_matrix(h, "H")
    hp = _full_rank_pinv(hm, rank_tol)
    if hp is None:
        raise RankDeficientError(f"H of shape {hm.shape} does not have full row rank")
    return xm @ hp


def objective(x, h, config: SolverConfig) -> float:
    """Concentrated objective at H: |X - W H|_F for W = X pinv(H) projected
    onto its feasible set, the score that :func:`factorize` gives an H.

    Raises :class:`RankDeficientError` if H lacks full row rank.
    """
    xm = _check_x(x)
    hm = _as_matrix(h, "H")
    obj, w = _score(xm, hm, config)
    if w is None:
        raise RankDeficientError(f"H of shape {hm.shape} does not have full row rank")
    return obj


def _score(x, h, config):
    """``(|X - W H|_F, W)`` at H, W being X pinv(H) projected feasible, or
    ``(inf, None)`` if H lacks full row rank.  The residual X - W H is
    formed and squared in one array the size of X."""
    hp = _full_rank_pinv(h)
    if hp is None:
        return np.inf, None
    w = _feasible_w(x @ hp, config.orientation)
    z = w @ h
    np.subtract(x, z, out=z)
    return float(np.sqrt(np.multiply(z, z, out=z).sum())), w


# The feasible sets of H and W.
def _feasible_h(h: np.ndarray, orientation: Orientation) -> np.ndarray:
    if orientation.h_stochastic:
        return _simplex_rows_raw(h)
    return np.clip(h, 0.0, 1.0)


def _feasible_w(w: np.ndarray, orientation: Orientation) -> np.ndarray:
    if orientation.w_stochastic:
        return _simplex_rows_raw(w)
    return np.clip(w, 0.0, None)


def _init_h(rng: np.random.Generator, rank: int, n_cols: int,
            orientation: Orientation) -> np.ndarray:
    h0 = rng.uniform(0.0, 1.0, size=(rank, n_cols))
    if orientation.h_stochastic:
        h0 = row_normalize(h0)
    return h0


def _spa(a: np.ndarray, rank: int, rank_tol: float = DEFAULT_RANK_TOL) -> list[int]:
    """Successive projection (Gillis & Vavasis, IEEE TPAMI 36(4), 2014):
    ``rank`` rows of ``a``, each the row of largest residual norm once the
    rows already picked are projected out.  The squared norms are downdated,
    so no residual matrix is formed.  Picks stop early when the largest
    residual is at most ``rank_tol`` times the largest row."""
    norms = np.einsum("ij,ij->i", a, a)
    cutoff = rank_tol * np.sqrt(norms.max())
    basis = np.zeros((rank, a.shape[1]))
    picks = []
    for i in range(rank):
        j = int(np.argmax(norms))
        # Gram-Schmidt twice, so the basis stays orthogonal in floating point.
        v = a[j] - basis.T @ (basis @ a[j])
        v -= basis.T @ (basis @ v)
        length = np.sqrt(v @ v)
        if not length > cutoff:
            break
        basis[i] = v / length
        norms -= np.square(a @ basis[i])
        picks.append(j)
    return picks


def _anchor_start(x: np.ndarray, config: SolverConfig) -> Optional[np.ndarray]:
    """Restart 0's H from the anchors of X, or None if it is rank-deficient.

    With W row-stochastic, rows of X are convex combinations of rows of H,
    and a unit row of W (an anchor) copies a row of H: H0 is the rows of X
    that :func:`_spa` picks.  With only H row-stochastic, a column of H
    supported on one factor (an anchor word, Arora et al., ICML 2013) copies
    a column of W into X: SPA runs on the columns of X scaled to sum to 1,
    W0 is the picked columns and H0 is pinv(W0) X, rows scaled to sum to 1.
    """
    h_rows = config.orientation is Orientation.H_ROWS_SUM_TO_1
    if h_rows:
        sums = x.sum(axis=0)
        picks = _spa(x.T / np.where(sums > 0.0, sums, 1.0)[:, None], config.rank)
    else:
        picks = _spa(x, config.rank)
    if len(picks) < config.rank:
        return None
    if h_rows:
        h = pseudoinverse(x[:, picks]) @ x
        sums = h.sum(axis=1, keepdims=True)
        h = h / np.where(sums > 0.0, sums, 1.0)
    else:
        h = x[picks]
    h = _feasible_h(h, config.orientation)
    return None if _full_rank_pinv(h) is None else h


# The warm start's round cap, and its extrapolation weight beta: its start,
# the start of its ceiling, its shrink factor after a discarded round, and
# the growth factors of beta and of its ceiling after an accepted round.
_WARM_START_ROUNDS = 2000
_BETA_START = 0.5
_BETA_CEIL_START = 1.0
_BETA_SHRINK = 1.5
_BETA_GROW = 1.01
_BETA_CEIL_GROW = 1.005
# At or below this fraction of |X|_F^2, a squared loss read off the Gram
# products has lost too many digits to cancellation: form X - W H instead.
_GRAM_EXACT = 1e-6


def _warm_start(x, h, config: SolverConfig, rounds: int):
    """Extrapolated projected alternating least squares on the bilinear loss;
    returns ``(h, rounds_run, converged)``.

    Each round refreshes W = X pinv(Y), projects it feasible, then takes
    three Lipschitz-step projected gradient updates on H from Y for that
    fixed W.  After an accepted round H, the next Y is H + beta (H - H_acc)
    projected feasible, H_acc being the previous accepted H (Ang & Gillis,
    Neural Computation 31(2), 2019).  An extrapolated round whose loss rises
    is discarded, shrinks beta and lowers its ceiling, and the next round
    starts plain from H_acc; it still counts toward ``rounds``.  A plain
    round whose loss rises above H_acc's is kept as the next round's plain
    start, since a round with a projected W need not descend; a second
    such round in a row stops the restart.

    It stops converged when the loss effectively reaches zero (returning
    the new H) or plateaus (returning the new H, or H_acc if the new loss is
    higher).  It stops unconverged, returning H_acc (its start if no round
    was accepted), on a second rise in a row, when Y is rank-deficient or W
    is zero, and at the round cap.  A round's loss comes from the R×m
    products it already forms, |X - W H|^2 = |X|^2 - 2 <W'X, H> + <W'W H, H>
    (Gillis & Glineur, 2012); only a near-exact round forms X - W H, in one
    buffer the size of X allocated at its first use and squared in place.
    """
    norm = frobenius_norm(x)
    floor, xx = 1e-13 * max(1.0, norm), norm * norm
    z = None
    y = acc = h
    prev = np.inf
    beta, ceil = _BETA_START, _BETA_CEIL_START
    extrapolated = rose = False
    for t in range(rounds):
        hp = _full_rank_pinv(y)
        if hp is None:
            return acc, t, False
        w = _feasible_w(x @ hp, config.orientation)
        gram = w.T @ w
        # The spectral norm of gram, as np.linalg.norm(gram, 2) finds it (the
        # largest singular value) without its per-call overhead.
        lip = np.linalg.svd(gram, compute_uv=False)[0]
        if not lip > 0.0:
            return acc, t, False
        wtx = w.T @ x
        new = y
        for _ in range(3):
            new = _feasible_h(new - (gram @ new - wtx) / lip, config.orientation)
        sq = xx - 2.0 * np.vdot(wtx, new) + np.vdot(gram @ new, new)
        if sq <= _GRAM_EXACT * xx:
            z = np.matmul(w, new, out=z)
            sq = np.square(np.subtract(x, z, out=z), out=z).sum()
        loss = np.sqrt(sq)
        if loss < floor:
            return new, t + 1, True
        if extrapolated and loss > prev:
            # A discarded round: the next one starts plain from H_acc.
            ceil, beta = beta, beta / _BETA_SHRINK
            y, extrapolated = acc, False
        elif loss > prev and not rose:
            # A plain round whose loss rose: the next one starts plain from it.
            y, rose = new, True
        elif prev - loss < 1e-13 * max(1.0, prev):
            # A plateau, or (loss above H_acc's) a second rise in a row.
            return (new, t + 1, True) if loss <= prev else (acc, t + 1, False)
        else:
            y = _feasible_h(new + beta * (new - acc), config.orientation)
            acc, prev = new, loss
            beta, ceil = min(ceil, _BETA_GROW * beta), min(1.0, _BETA_CEIL_GROW * ceil)
            extrapolated, rose = True, False
    return acc, rounds, False


def factorize(x, config: SolverConfig, *, threads: int = 1,
              progress: Optional[Callable[[int, float], None]] = None) -> SolveResult:
    """Estimate a non-negative factorization of X under the configured
    adding-up constraints.

    Runs up to ``config.restarts`` independent warm starts, scores the H
    each one ends at once on the concentrated objective, and keeps the
    restart with the lowest score (ties go to the lowest restart index).
    Restart 0 starts from the anchors of X: the rows (or, with only H
    row-stochastic, the anchor words) that successive projection picks, as
    in the paper's uniqueness condition; if that start is rank-deficient it
    falls back to the random start seeded ``config.seed``.  Restart j >= 1
    starts from the random point seeded ``config.seed + j``, so a 1-restart
    fit does not depend on the seed.  Restart 0 runs first, alone; when its
    objective is at most ``config.conv_tol * |X|_F`` it is an exact fit and
    the fit returns it with no other restart run.  Otherwise restarts
    1..k-1 run after it, one at a time.  A warm
    start forms a residual the size of X only in near-exact rounds, and the
    score forms one, so a fit's traced peak memory is about one array the
    size of X (1.04 X on a noisy 600x200 fit) whatever k is.  The returned
    factors are the winning restart's H and the W its score used, the
    concentrated least-squares weights projected feasible, so ``objective``
    is the residual |X - W H|_F of the returned pair.

    Parameters
    ----------
    x : array_like, shape (n, m)
        Non-negative data matrix.  With orientation BOTH the rows must
        already sum to 1; with a row-stochastic W no row may be all zero
        and no entry may exceed 1.
    config : SolverConfig
    threads : int
        Accepted and ignored; the restarts run one after another.
    progress : callable, optional
        Called once as ``progress(rounds, objective)`` when restart 0's warm
        start ends: its round count and its objective.

    Returns
    -------
    SolveResult
        ``iterations`` and ``converged`` describe the winning restart's warm
        start, and ``objective_trace`` is ``[objective]``.

    Raises
    ------
    RankDeficientError
        If every restart ends at an H without full row rank.
    """
    xm = _check_x(x)
    n_rows, n_cols = xm.shape
    if config.rank >= min(n_rows, n_cols):
        raise InvalidInputError(
            f"rank {config.rank} must be smaller than min(X.shape) = {min(xm.shape)}"
        )
    if config.orientation is Orientation.BOTH:
        dev = float(np.max(np.abs(xm.sum(axis=1) - 1.0)))
        if dev > _X_ROW_SUM_TOL:
            raise InvalidInputError(
                f"orientation BOTH requires X rows summing to 1 (max deviation {dev:.3e})"
            )
    # A zero row of X forces w H = 0 with w on the simplex and H >= 0, so H
    # would need a zero row and could not have full row rank.
    nonzero = xm.any(axis=1)
    if config.orientation.w_stochastic and not nonzero.all():
        raise InvalidInputError(f"row {int(np.argmin(nonzero))} of X is all zero, "
                                "which a row-stochastic W cannot fit")
    # Each x_ij is then a convex combination of entries of H, all in [0, 1].
    if config.orientation.w_stochastic and xm.max() > 1.0 + _X_ROW_SUM_TOL:
        raise InvalidInputError(f"X has entries above 1 (max {xm.max():.3e}), "
                                "which a row-stochastic W with H <= 1 cannot fit")

    def random_start(k):
        h0 = _init_h(np.random.default_rng(config.seed + k), config.rank, n_cols,
                     config.orientation)
        return _feasible_h(h0, config.orientation)

    def solve(h):
        h, rounds, converged = _warm_start(xm, h, config, _WARM_START_ROUNDS)
        obj, w = _score(xm, h, config)
        return h, obj, rounds, converged, w

    # The objective is non-negative, so once a restart ends within conv_tol
    # |X|_F no other restart could improve on it by more than the solver's
    # own tolerance: restart 0 runs alone, the others only if it ends above.
    exact = config.conv_tol * frobenius_norm(xm)
    anchored = _anchor_start(xm, config)
    results = [solve(random_start(0) if anchored is None else anchored)]
    if progress is not None:
        progress(results[0][2], results[0][1])
    if results[0][1] > exact:
        results += [solve(random_start(k)) for k in range(1, config.restarts)]

    finals = [obj for _, obj, _, _, _ in results]
    best = min(range(len(finals)), key=lambda k: (finals[k], k))
    h, obj, rounds, converged, w = results[best]
    if w is None:
        raise RankDeficientError("every restart ended at an H without full row rank")
    factors = FactorPair(w=w, h=h, orientation=config.orientation)
    violation = factors.max_violation()
    return SolveResult(
        factors=factors,
        objective=obj,
        objective_trace=[obj],
        iterations=rounds,
        converged=converged,
        best_restart=best,
        max_violation=violation,
        feasible=violation <= EPS_FEAS_PROJECTED,
        restart_objectives=finals,
    )
