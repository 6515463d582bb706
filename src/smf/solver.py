"""Constrained least-squares factorization solver.

The estimator concentrates W out of the problem: for a candidate H, the
weight matrix is W = X @ pinv(H), and the loss is the Frobenius norm of the
residual X - W @ H plus weighted penalties for the constraints that W and H
must satisfy (non-negativity, rows summing to 1 on the stochastic side, and
H bounded by 1).  Restart 0 starts from the separable anchors of X found
by successive projection (Gillis & Vavasis, 2014), the others, which run
only when restart 0 does not fit X exactly, from seeded random points.
The restarts run one after another, each on its own 2-D arrays: a warm
start of projected alternating least squares whose rounds are extrapolated
with an adaptive step (Ang & Gillis, 2019), then projected/penalized
gradient descent on H with the monotone line search of spectral projected
gradient (Birgin, Martinez & Raydan, 2000) on the exact objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    simplex_project_rows,
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
    "objective_terms",
    "EPS_FEAS_PENALTY",
    "EPS_FEAS_PROJECTED",
]

EPS_FEAS_PENALTY = 1e-3
EPS_FEAS_PROJECTED = 1e-9

_X_ROW_SUM_TOL = 1e-6


class InvalidInputError(ValueError):
    """Raised when the data matrix or configuration is unusable."""


class RankDeficientError(ValueError):
    """Raised when H does not have full row rank."""


class Mode(Enum):
    """How constraints are enforced during optimization."""

    PENALTY = "penalty"
    PROJECTED = "projected"


@dataclass
class SolverConfig:
    """Solver settings.  Of up to ``restarts`` starts, restart 0 is the
    anchor (SPA) start, which does not depend on ``seed``, and restart
    j >= 1 is the random start seeded ``seed + j``.  ``conv_tol`` is the
    descent's relative stopping tolerance and also sets the exact-fit
    bound ``conv_tol * |X|_F``: a restart 0 that ends within it is the
    only restart that runs."""

    rank: int
    orientation: Orientation = Orientation.W_ROWS_SUM_TO_1
    max_iter: int = 500
    conv_tol: float = 1e-8
    penalty_sum1: float = 100.0
    penalty_nonneg: float = 10.0
    restarts: int = 5
    seed: int = 0
    mode: Mode = Mode.PENALTY

    def __post_init__(self):
        if self.rank < 1:
            raise InvalidInputError("rank must be at least 1")
        if self.max_iter < 1:
            raise InvalidInputError("max_iter must be at least 1")
        if self.restarts < 1:
            raise InvalidInputError("restarts must be at least 1")
        if self.conv_tol <= 0:
            raise InvalidInputError("conv_tol must be positive")
        if self.penalty_sum1 < 0 or self.penalty_nonneg < 0:
            raise InvalidInputError("penalty weights must be non-negative")


@dataclass
class SolveResult:
    factors: FactorPair
    objective: float
    objective_trace: list[float]
    iterations: int
    converged: bool
    best_restart: int
    # Largest feasibility violation of ``factors``, and whether it is within
    # the mode's EPS_FEAS_PENALTY or EPS_FEAS_PROJECTED.
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


def objective_terms(x, h, config: SolverConfig) -> dict[str, float]:
    """Break the concentrated objective into its named components.

    In PENALTY mode W is the raw least-squares weight X pinv(H) and the keys
    are ``residual`` (Frobenius norm of X - W H), ``w_nonneg``, ``h_nonneg``,
    ``h_upper``, plus the row-sum penalties ``w_row_sum`` / ``h_row_sum`` for
    whichever factors the orientation declares stochastic.  In PROJECTED mode
    W is first projected onto its feasible set, so its penalty terms are
    identically zero and only the residual and H terms remain.
    """
    xm = _check_x(x)
    hm = _as_matrix(h, "H")
    out = _terms(xm, hm, config, np.empty(xm.shape), np.empty(xm.shape))
    if out is None:
        raise RankDeficientError(f"H of shape {hm.shape} does not have full row rank")
    return out[0]


def objective(x, h, config: SolverConfig) -> float:
    """Concentrated objective at H (penalized or projected per config.mode)."""
    return float(sum(objective_terms(x, h, config).values()))


def _terms(x, h, config, z, sq):
    """The terms of :func:`objective_terms` at H, or None if H lacks full
    row rank.

    Returns ``(terms, hp, w)``: the terms by name, pinv(H) and W; the
    residual X - W H is written into the buffer ``z`` and squared into
    ``sq``.
    """
    hp = _full_rank_pinv(h)
    if hp is None:
        return None
    w = x @ hp
    if config.mode is Mode.PROJECTED:
        w = _feasible_w(w, config.orientation)
    np.matmul(w, h, out=z)
    np.subtract(x, z, out=z)
    # np.maximum(a, 0.0) is the ufunc np.clip(a, 0.0, None) calls, without
    # its wrappers' overhead.
    p1, p2 = config.penalty_sum1, config.penalty_nonneg
    terms = {"residual": np.sqrt(np.multiply(z, z, out=sq).sum())}
    if config.mode is not Mode.PROJECTED:
        terms["w_nonneg"] = p2 * np.maximum(-w, 0.0).sum()
        if config.orientation.w_stochastic:
            terms["w_row_sum"] = p1 * np.abs(w.sum(axis=1) - 1.0).sum()
    if config.orientation.h_stochastic:
        terms["h_row_sum"] = p1 * np.abs(h.sum(axis=1) - 1.0).sum()
    terms["h_nonneg"] = p2 * np.maximum(-h, 0.0).sum()
    terms["h_upper"] = p2 * np.maximum(h - 1.0, 0.0).sum()
    return {name: float(t) for name, t in terms.items()}, hp, w


def _eval(x, h, config, z, sq):
    """The objective at H plus the intermediates the gradient reuses:
    ``(value, hp, w, z, fro)``, z being the residual X - W H (in the buffer
    ``z``) and fro its norm.  The value (inf for a rank-deficient H) sums
    :func:`_terms` in order, so it equals :func:`objective` bit for bit.
    """
    out = _terms(x, h, config, z, sq)
    if out is None:
        return np.inf, None, None, None, None
    terms, hp, w = out
    return sum(terms.values()), hp, w, z, terms["residual"]


def _smooth_sign(t: np.ndarray, mu: float) -> np.ndarray:
    if mu <= 0.0:
        return np.sign(t)
    return np.tanh(t / mu)


def _smooth_step(t: np.ndarray, mu: float) -> np.ndarray:
    # Smooth version of the indicator [t > 0], used for hinge derivatives.
    if mu <= 0.0:
        return (t > 0.0).astype(np.float64)
    return 1.0 / (1.0 + np.exp(np.clip(-t / mu, -500.0, 500.0)))


def _gradient(h, hp, w, z, fro, config, mu: float = 0.0) -> np.ndarray:
    """Analytic (sub)gradient / search direction with respect to H.

    ``hp``, ``w``, ``z`` and ``fro`` are pinv(H), W, the residual X - W H
    and its Frobenius norm, as :func:`_eval` returns them.

    PENALTY mode: the residual and W-dependent penalty terms are
    differentiated through W = X pinv(H) using the full-row-rank derivative
    of the pseudoinverse.  With ``mu > 0`` the kinked penalty derivatives
    (sign and hinge indicators) are smoothed at width ``mu``; the line
    search still evaluates the exact objective, so smoothing only shapes
    the search direction.

    PROJECTED mode: gradient of the residual with the projected W held
    fixed; feasibility is enforced by projection in the line search, so no
    penalty terms enter the direction.
    """
    p1, p2 = config.penalty_sum1, config.penalty_nonneg
    g = np.zeros_like(h)

    if fro > 0.0:
        g -= (w.T @ z) / fro
    if config.mode is Mode.PROJECTED:
        return g

    # Derivative of the penalties that act on W, pushed through pinv(H).
    v = np.zeros_like(w)
    if config.orientation.w_stochastic:
        v += p1 * _smooth_sign(w.sum(axis=1) - 1.0, mu)[:, None]
    v -= p2 * _smooth_step(-w, mu)
    if np.any(v):
        gram = h @ h.T
        g += np.linalg.solve(gram, v.T @ z)
        g -= (w.T @ v) @ hp.T

    if config.orientation.h_stochastic:
        g += p1 * _smooth_sign(h.sum(axis=1) - 1.0, mu)[:, None]
    g += p2 * (_smooth_step(h - 1.0, mu) - _smooth_step(-h, mu))
    return g


# The feasible sets of H and W, ``project`` being the row simplex projector:
# _simplex_rows_raw in the iterations, the exact one in _postprocess.
def _feasible_h(h: np.ndarray, orientation: Orientation,
                project=_simplex_rows_raw) -> np.ndarray:
    if orientation.h_stochastic:
        return project(h)
    return np.clip(h, 0.0, 1.0)


def _feasible_w(w: np.ndarray, orientation: Orientation,
                project=_simplex_rows_raw) -> np.ndarray:
    if orientation.w_stochastic:
        return project(w)
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


_MU_START = 1e-1
_MU_FLOOR = 1e-9
_BB_MIN, _BB_MAX = 1e-12, 1e8
_WARM_START_ROUNDS = 2000
_ARMIJO = 1e-4
_SHRINK_MIN, _SHRINK_MAX = 0.1, 0.5
_STEP_FLOOR = 1e-12


def _descend(x, h, config: SolverConfig,
             progress: Optional[Callable[[int, float], None]], exact: float = 0.0):
    """Projected/penalized gradient descent from ``h``; returns ``(h, trace,
    converged)``.

    Every candidate is scored by :func:`_eval` into one residual buffer
    (and one squaring buffer) allocated per call: the gradient is taken
    from the residual as soon as a candidate is accepted, and only a
    smoothing-width drop after a failed line search rebuilds X - W H, into
    the same buffer.  A rank-deficient start has no objective and stops at
    once; any other start is reported to ``progress`` as iteration 0, and
    one whose objective is at most ``exact`` is an exact fit, returned
    converged with no step.

    The line search is the monotone one of spectral projected gradient
    (Birgin, Martinez & Raydan, SIAM J. Optim. 10(4), 2000).  Along d =
    feasible(H - step g) - H, step the Barzilai-Borwein step, it accepts
    H + lam d once f falls there by at least -_ARMIJO lam g.d; otherwise lam
    moves to the minimizer of the quadratic fit, kept in [_SHRINK_MIN lam,
    _SHRINK_MAX lam].  Candidates are convex combinations of feasible
    points, so none is projected.  The search fails once lam |d| <=
    _STEP_FLOOR max(1, |H|): the smoothing width then shrinks or, at its
    floor, the point is declared stationary.
    """
    buf, sq = np.empty(x.shape), np.empty(x.shape)
    obj, hp, w, z, fro = _eval(x, h, config, buf, sq)
    trace = [obj]
    if obj == np.inf:
        return h, trace, False
    if progress is not None:
        progress(0, obj)
    if obj <= exact:
        return h, trace, True
    converged = False
    smoothable = config.mode is Mode.PENALTY and (
        config.penalty_sum1 > 0.0 or config.penalty_nonneg > 0.0)
    mu = _MU_START if smoothable else 0.0
    h_prev = g_prev = None
    g = _gradient(h, hp, w, z, fro, config, mu)
    # Annealing passes that fail to step do not count against max_iter; the
    # mu ladder is finite so the extra budget is bounded.
    for _ in range(config.max_iter + 200):
        gn = frobenius_norm(g)
        if gn == 0.0:
            converged = True
            break
        if h_prev is None:
            step = 1.0 / gn
        else:
            s = h - h_prev
            y = g - g_prev
            sy = float(np.sum(s * y))
            step = float(np.sum(s * s)) / sy if sy > 1e-300 else 1.0 / gn
            step = min(max(step, _BB_MIN), _BB_MAX)
        # Penalty mode leaves H unconstrained.
        d = (_feasible_h(h - step * g, config.orientation) - h
             if config.mode is Mode.PROJECTED else -step * g)
        slope = float(np.sum(g * d))
        floor = _STEP_FLOOR * max(1.0, frobenius_norm(h))
        dn = frobenius_norm(d)
        lam, accepted = 1.0, None
        while lam * dn > floor:
            cand = h + lam * d
            accepted = _eval(x, cand, config, buf, sq)
            val = accepted[0]
            if val < obj and val <= obj + _ARMIJO * lam * slope:
                break
            accepted = None
            # The model's curvature is positive whenever the test fails; an
            # infinite value (rank-deficient candidate) gives the largest cut.
            curv = val - obj - lam * slope
            q = -slope * lam * lam / (2.0 * curv) if curv > 0.0 else lam
            lam = min(max(q, _SHRINK_MIN * lam), _SHRINK_MAX * lam)
        if accepted is None:
            if smoothable and mu > _MU_FLOOR:
                mu *= 0.1
                h_prev = g_prev = None
                np.subtract(x, np.matmul(w, h, out=buf), out=buf)
                g = _gradient(h, hp, w, buf, fro, config, mu)
                continue
            converged = True
            break
        h_prev, g_prev = h, g
        val, hp, w, z, fro = accepted
        rel = (obj - val) / max(abs(obj), 1e-300)
        h, obj = cand, val
        trace.append(obj)
        if progress is not None:
            progress(len(trace) - 1, obj)
        if rel < config.conv_tol:
            if not (smoothable and mu > _MU_FLOOR):
                converged = True
                break
            mu *= 0.1
            h_prev = g_prev = None
        if len(trace) > config.max_iter:
            break
        g = _gradient(h, hp, w, z, fro, config, mu)
    return h, trace, converged


# The warm start's extrapolation weight beta: its start, the start of its
# ceiling, its shrink factor after a discarded round, and the growth
# factors of beta and of its ceiling after an accepted round.
_BETA_START = 0.5
_BETA_CEIL_START = 1.0
_BETA_SHRINK = 1.5
_BETA_GROW = 1.01
_BETA_CEIL_GROW = 1.005


def _warm_start(x, h, config: SolverConfig, rounds: int) -> np.ndarray:
    """Extrapolated projected alternating least squares on the bilinear loss.

    Cheap warm-up that settles both the row space and a feasible
    representative before the exact-objective descent takes over.  Each
    round refreshes W = X pinv(Y), projects it feasible, then takes three
    Lipschitz-step projected gradient updates on H from Y for that fixed W.
    After an accepted round H, the next Y is H + beta (H - H_acc) projected
    feasible, H_acc being the previous accepted H (Ang & Gillis, Neural
    Computation 31(2), 2019).  An extrapolated round whose loss rises is
    discarded, shrinks beta and lowers its ceiling, and the next round
    starts plain from H_acc; it still counts toward ``rounds``.  A plain
    round whose loss rises above H_acc's is kept as the next round's plain
    start, since a round with a projected W need not descend; a second
    such round in a row stops the restart.

    It stops when the loss effectively reaches zero (returning the new H),
    when it plateaus or rises twice (returning whichever of the new H and
    H_acc has the lower loss), or when Y is rank-deficient or W is zero
    (returning H_acc, its start if no round was accepted); at the round cap
    it returns H_acc.  Each round's residual X - W H is written into one
    buffer allocated per call and squared in place.
    """
    floor = 1e-13 * max(1.0, frobenius_norm(x))
    z = np.empty(x.shape)
    y = acc = h
    prev = np.inf
    beta, ceil = _BETA_START, _BETA_CEIL_START
    extrapolated = rose = False
    for _ in range(rounds):
        hp = _full_rank_pinv(y)
        if hp is None:
            return acc
        w = _feasible_w(x @ hp, config.orientation)
        gram = w.T @ w
        # The spectral norm of gram, as np.linalg.norm(gram, 2) finds it (the
        # largest singular value) without its per-call overhead.
        lip = np.linalg.svd(gram, compute_uv=False)[0]
        if not lip > 0.0:
            return acc
        wtx = w.T @ x
        new = y
        for _ in range(3):
            new = _feasible_h(new - (gram @ new - wtx) / lip, config.orientation)
        np.matmul(w, new, out=z)
        np.subtract(x, z, out=z)
        loss = np.sqrt(np.square(z, out=z).sum())
        if loss < floor:
            return new
        if extrapolated and loss > prev:
            # A discarded round: the next one starts plain from H_acc.
            ceil, beta = beta, beta / _BETA_SHRINK
            y, extrapolated = acc, False
        elif loss > prev and not rose:
            # A plain round whose loss rose: the next one starts plain from it.
            y, rose = new, True
        elif prev - loss < 1e-13 * max(1.0, prev):
            return new if loss <= prev else acc
        else:
            y = _feasible_h(new + beta * (new - acc), config.orientation)
            acc, prev = new, loss
            beta, ceil = min(ceil, _BETA_GROW * beta), min(1.0, _BETA_CEIL_GROW * ceil)
            extrapolated, rose = True, False
    return acc


def _snap(arr: np.ndarray, eps: float, upper: bool = False) -> np.ndarray:
    out = arr.copy()
    out[(out > -eps) & (out < 0.0)] = 0.0
    if upper:
        out[(out > 1.0) & (out < 1.0 + eps)] = 1.0
    return out


def _postprocess(x, h, config: SolverConfig) -> FactorPair:
    if config.mode is Mode.PENALTY:
        w = _snap(x @ pseudoinverse(h), EPS_FEAS_PENALTY)
        h = _snap(h, EPS_FEAS_PENALTY, upper=True)
        return FactorPair(w=w, h=h, orientation=config.orientation)
    # W is built from the projected H, so it is the W of the H returned.
    h = _feasible_h(h, config.orientation, simplex_project_rows)
    w = _feasible_w(x @ pseudoinverse(h), config.orientation, simplex_project_rows)
    return FactorPair(w=w, h=h, orientation=config.orientation)


def factorize(x, config: SolverConfig, *, threads: int = 1,
              progress: Optional[Callable[[int, float], None]] = None) -> SolveResult:
    """Estimate a non-negative factorization of X under the configured
    adding-up constraints.

    Runs up to ``config.restarts`` independent descents and keeps the
    restart with the lowest final objective (ties go to the lowest restart
    index).  Restart 0 starts from the anchors of X: the rows (or, with only
    H row-stochastic, the anchor words) that successive projection picks, as
    in the paper's uniqueness condition; if that start is rank-deficient it
    falls back to the random start seeded ``config.seed``.  Restart j >= 1
    starts from the random point seeded ``config.seed + j``, so a 1-restart
    fit does not depend on the seed.  Restart 0 runs first, alone; when its
    objective ends at most ``config.conv_tol * |X|_F`` it is an exact fit
    (the objective is non-negative, so no other restart could improve it by
    more than that tolerance) and the fit returns it, with no other restart
    run and, if the warm start already reached the bound, no descent step.
    Otherwise restarts 1..k-1 run after it, one at a time.  Each restart
    keeps one residual buffer (and one squaring buffer) the size of X, so
    the fit's peak memory is about two arrays the size of X whatever k is.
    The returned W is the concentrated least-squares weight matrix
    post-processed to feasibility for the configured mode.

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
        Called as ``progress(iteration, objective)`` for restart 0 at the
        start of the descent (iteration 0), also on an exact fit, and after
        each accepted step.

    Returns
    -------
    SolveResult
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
        return _feasible_h(h0, config.orientation) if config.mode is Mode.PROJECTED else h0

    def solve(h, report):
        h = _warm_start(xm, h, config, _WARM_START_ROUNDS)
        return _descend(xm, h, config, report, exact)

    # The objective is non-negative, so once a restart ends within conv_tol
    # |X|_F no other restart could improve on it by more than the solver's
    # own tolerance: restart 0 runs alone, the others only if it ends above.
    exact = config.conv_tol * frobenius_norm(xm)
    anchored = _anchor_start(xm, config)
    results = [solve(random_start(0) if anchored is None else anchored, progress)]
    if results[0][1][-1] > exact:
        results += [solve(random_start(k), None) for k in range(1, config.restarts)]

    finals = [trace[-1] for _, trace, _ in results]
    best = min(range(len(finals)), key=lambda k: (finals[k], k))
    h, trace, converged = results[best]
    factors = _postprocess(xm, h, config)
    violation = factors.max_violation()
    eps = EPS_FEAS_PROJECTED if config.mode is Mode.PROJECTED else EPS_FEAS_PENALTY
    return SolveResult(
        factors=factors,
        objective=trace[-1],
        objective_trace=trace,
        iterations=len(trace) - 1,
        converged=converged,
        best_restart=best,
        max_violation=violation,
        feasible=violation <= eps,
        restart_objectives=finals,
    )
