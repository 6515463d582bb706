"""Constrained least-squares factorization solver.

The estimator concentrates W out of the problem: for a candidate H, the
weight matrix is W = X @ pinv(H) projected onto its feasible set, and the
loss is the Frobenius norm of the residual X - W @ H.  Restart 0 starts
from the separable anchors of X found by successive projection (Gillis &
Vavasis, 2014), the others, which count only when restart 0 does not fit X
exactly, from seeded random points.
Each restart runs on its own 2-D arrays: projected alternating least
squares whose rounds are extrapolated with an adaptive step (Ang & Gillis,
2019).  The H a restart ends at is scored once on the concentrated
objective, and the lowest score wins: its H and the W its score used are
the returned factors.

A fit runs with numpy's bundled OpenBLAS pinned to one thread, so its bits
do not depend on the BLAS thread setting, and a large fit on two CPUs runs
restarts 1..k-1 on a worker thread beside restart 0 (see :func:`factorize`).
On the benchmark's topics fit (800x356, R=20, 2 restarts; 2-core x86-64) a
fit took 151-209 ms serial and 117-150 ms shared, over 10 alternating runs.

A warm start projects each round's W = X pinv(Y) onto its feasible set.  A
row-stochastic W of N rows and R columns with N >= 64 R goes through
``linalg._simplex_rows_ordered``, which keeps each row's order from the
round before and sorts again only the rows that left it (about 1% a round
on a 2400x10 W); its bits are those of the row-wise ``_simplex_rows_raw``,
which other shapes use.  Per projection, over the rounds of a fit (median
of 9, one BLAS thread, 2-core x86-64): 2400x10 472 -> 266 us, 4000x4 480
-> 180 us, 1000x4 131 -> 66 us, 800x10 160 -> 106 us, 640x10 136 -> 104
us, 256x4 47 -> 38 us, and 200x4 41 -> 40 us, about even.  An 800x20 W
(the topics fit's) stays row-wise: through the kernel its whole fit took
154.1 against 149.4 ms (median of 15).  The cost is one R x N intp array
per restart, 192 KB at 2400x10.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
import threading
from collections import deque
from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .factors import FactorPair, Orientation
from .linalg import (
    DEFAULT_RANK_TOL,
    _as_matrix,
    _simplex_rows_ordered,
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
    "factorize",
    "objective",
]

EPS_FEAS_PROJECTED = 1e-9
# A restart 0 whose objective ends within EXACT_FIT_TOL * |X|_F is an exact
# fit, and the only restart that runs.
EXACT_FIT_TOL = 1e-8

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
    j >= 1 is the random start seeded ``seed + j``; a restart 0 whose
    objective ends within ``EXACT_FIT_TOL * |X|_F`` is the only restart that
    counts.  Restarts 1..k-1 may run on a second thread beside restart 0
    (see :func:`factorize`) with the bits of a serial run.  ``max_iter`` is
    accepted and ignored, so callers written for older versions still
    construct a config."""

    rank: int
    orientation: Orientation = Orientation.W_ROWS_SUM_TO_1
    restarts: int = 5
    seed: int = 0
    mode: Mode = Mode.PROJECTED
    max_iter: InitVar[Optional[int]] = None

    def __post_init__(self, max_iter):
        if self.rank < 1:
            raise InvalidInputError("rank must be at least 1")
        if self.restarts < 1:
            raise InvalidInputError("restarts must be at least 1")
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
    # Whether the fit ran with numpy's OpenBLAS pinned to one thread, which
    # makes its bits those of a one-thread run on any BLAS thread setting.
    blas_pinned: bool = False


def _check_x(x) -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise InvalidInputError("X must be a non-empty 2-dimensional matrix")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("X contains non-finite values")
    if np.any(m < 0):
        raise InvalidInputError(f"X contains negative entries (min {m.min():.3e})")
    return m


def _full_rank_pinv(h: np.ndarray):
    # pinv(H) from one SVD, or None if H lacks full row rank.  On full-rank
    # input this is pseudoinverse()'s arithmetic, bit for bit.
    u, s, vt = np.linalg.svd(h, full_matrices=False)
    if not (s[0] > 0.0 and s[-1] > DEFAULT_RANK_TOL * s[0]):
        return None
    return (vt.T * (1.0 / s)) @ u.T


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


def _anchor_start(x: np.ndarray, config: SolverConfig):
    """Restart 0's H from the anchors of X with its pinv, as ``(h, pinv)``,
    or None if it is rank-deficient.

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
    hp = _full_rank_pinv(h)
    return None if hp is None else (h, hp)


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
# A row-stochastic W with at least this many rows per factor is projected
# by _simplex_rows_ordered, which reuses the previous round's row orders.
_ORDERED_ROWS_PER_FACTOR = 64
# Restarts 1..k-1 go to a second thread only when n m R, the size of a
# round's X pinv(Y) and W'X products, is at least this.  Smaller rounds
# spend most of their time holding the interpreter lock, and two restarts
# then wait on each other: with two CPUs and one BLAS thread, 2-restart fits
# of 1.0e6 to 1.5e6 ran 0.7x to 1.12x their serial time, and of 1.6e6 to
# 5.8e6 0.59x to 0.84x; 3-restart fits of 1.1e3 to 2.4e5 ran 1.35x to 2.2x.
_SHARED_RESTART_WORK = 1_600_000


def _warm_start(x, h, config: SolverConfig, rounds: int, norm: float, hp=None,
                after_first_round: Optional[Callable[[], None]] = None,
                cancel: Optional[threading.Event] = None):
    """Extrapolated projected alternating least squares on the bilinear loss;
    returns ``(h, rounds_run, converged)``.  ``norm`` is |X|_F, and ``hp``,
    when given, is pinv(h), which the first round then does not compute.
    ``after_first_round``, when given, is called once the first round has
    run without ending the warm start; a set ``cancel`` stops it unconverged
    before its next round.

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

    It stops converged when the loss falls below 1e-13 |X|_F (returning the
    new H) or plateaus, falling by less than 1e-13 times H_acc's loss
    (returning the new H, or H_acc if the new loss is higher).  Both tests
    are relative, so where to stop does not depend on the scale of X.  It
    stops unconverged, returning H_acc (its start if no round was accepted),
    on a second rise in a row, when Y is rank-deficient or W is zero
    (converged if X is zero too), and at the round cap.  A round's loss
    comes from the R×m products it already forms,
    |X - W H|^2 = |X|^2 - 2 <W'X, H> + <W'W H, H> (Gillis & Glineur, 2012);
    only a near-exact round forms X - W H, in one buffer the size of X
    allocated at its first use and squared in place.
    """
    floor, xx = 1e-13 * norm, norm * norm
    ordered = (config.orientation.w_stochastic
               and x.shape[0] >= _ORDERED_ROWS_PER_FACTOR * config.rank)
    order = z = None
    y = acc = h
    prev = np.inf
    beta, ceil = _BETA_START, _BETA_CEIL_START
    extrapolated = rose = False
    for t in range(rounds):
        if t == 1 and after_first_round is not None:
            after_first_round()
        if cancel is not None and cancel.is_set():
            return acc, t, False
        if t or hp is None:
            hp = _full_rank_pinv(y)
        if hp is None:
            return acc, t, False
        if ordered:
            w, order = _simplex_rows_ordered(x @ hp, order)
        else:
            w = _feasible_w(x @ hp, config.orientation)
        gram = w.T @ w
        # The spectral norm of gram, as np.linalg.norm(gram, 2) finds it (the
        # largest singular value) without its per-call overhead.
        lip = np.linalg.svd(gram, compute_uv=False)[0]
        if not lip > 0.0:
            # W = 0 leaves the loss at |X|, so only a zero X has converged.
            return acc, t, norm == 0.0
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
        elif prev - loss < 1e-13 * prev:
            # A plateau, or (loss above H_acc's) a second rise in a row.
            return (new, t + 1, True) if loss <= prev else (acc, t + 1, False)
        else:
            y = _feasible_h(new + beta * (new - acc), config.orientation)
            acc, prev = new, loss
            beta, ceil = min(ceil, _BETA_GROW * beta), min(1.0, _BETA_CEIL_GROW * ceil)
            extrapolated, rose = True, False
    return acc, rounds, False


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS
    (``numpy.libs/libscipy_openblas64_-*.so``), or None where numpy was
    built against another BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        name = min(n for n in os.listdir(libs) if n.startswith("libscipy_openblas64_"))
        lib = ctypes.CDLL(os.path.join(libs, name))
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (OSError, ValueError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# The BLAS thread count is one per process: the first of overlapping fits
# saves the caller's count and pins it to one, and the last restores it.
_pin_lock = threading.Lock()
_pin_users = 0
_pin_saved = 1


def _pin_blas() -> bool:
    """Pins numpy's OpenBLAS to one thread until :func:`_unpin_blas`;
    returns False, pinning nothing, where numpy bundles no OpenBLAS."""
    global _pin_users, _pin_saved
    calls = _openblas_threads()
    if calls is None:
        return False
    with _pin_lock:
        if _pin_users == 0:
            _pin_saved = calls[0]()
            calls[1](1)
        _pin_users += 1
    return True


def _unpin_blas() -> None:
    global _pin_users
    with _pin_lock:
        _pin_users -= 1
        if _pin_users == 0:
            _openblas_threads()[1](_pin_saved)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    fit does not depend on the seed.  When restart 0's objective is at most
    ``EXACT_FIT_TOL * |X|_F`` it is an exact fit, and the fit returns it
    alone.  Otherwise restarts 1..k-1 count too.

    The fit runs with numpy's bundled OpenBLAS pinned to one thread, and
    the caller's thread count is restored on return.  Under the pin, with
    at least two usable CPUs and n m R of at least ``_SHARED_RESTART_WORK``,
    restarts 1..k-1 go to one worker thread once restart 0 has run a round
    without ending, and the caller takes those still pending when restart 0
    ends; an exact restart 0 cancels them and drops their results and
    errors.  Otherwise they run after restart 0, one at a time.  Either way
    each restart gives the bits of a serial run, and an error a restart
    raises reaches the caller only if the serial path would have raised
    it: restart 0 not exact, and the first failing restart by index.

    A warm start forms a residual the size of X only in near-exact rounds,
    and the score forms one, so a fit's traced peak memory is about one
    array the size of X per restart in flight, at most two: on a noisy
    600x200 fit, 1.04 X at one restart and 1.18 X at five on two threads.
    The returned factors are the winning restart's H and the W its score
    used, the concentrated least-squares weights projected feasible, so
    ``objective`` is the residual |X - W H|_F of the returned pair.

    Parameters
    ----------
    x : array_like, shape (n, m)
        Non-negative data matrix.  With orientation BOTH the rows must
        already sum to 1; with a row-stochastic W no row may be all zero
        and no entry may exceed 1.
    config : SolverConfig
    threads : int
        Accepted and ignored; the fit decides from its size and the CPUs
        it may use whether restarts 1..k-1 run beside restart 0.
    progress : callable, optional
        Called once as ``progress(rounds, objective)`` when restart 0's warm
        start ends: its round count and its objective.

    Returns
    -------
    SolveResult
        ``iterations`` and ``converged`` describe the winning restart's warm
        start, ``objective_trace`` is ``[objective]``, and ``blas_pinned``
        says whether the pin held.

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

    def random_start(j):
        h0 = _init_h(np.random.default_rng(config.seed + j), config.rank, n_cols,
                     config.orientation)
        return _feasible_h(h0, config.orientation)

    pinned = _pin_blas()
    k = config.restarts
    results = [None] * k
    errors = {}
    # (index, start) of the random restarts no thread has taken yet, in
    # index order.  Their starts are built in the caller's thread.
    pending = deque()
    worker = cancel = None

    def solve(h, hp=None, after_first_round=None):
        h, rounds, converged = _warm_start(xm, h, config, _WARM_START_ROUNDS, norm,
                                           hp, after_first_round, cancel)
        obj, w = _score(xm, h, config)
        return h, obj, rounds, converged, w

    def run_pending():
        # After a failure every pending index is above the failed one, so
        # none of them can change which error is raised.
        while not (errors or cancel and cancel.is_set()):
            try:
                j, h0 = pending.popleft()
            except IndexError:
                return
            try:
                results[j] = solve(h0)
            except Exception as exc:  # raised in the caller, by index
                errors[j] = exc

    def share_restarts():
        # Restart 0 has run a round without ending: a second CPU takes
        # restarts 1..k-1 beside it.  One BLAS thread per fit keeps the bits
        # those of a serial run.
        nonlocal worker, cancel
        if _usable_cpus() < 2:
            return
        pending.extend((j, random_start(j)) for j in range(1, k))
        cancel = threading.Event()
        worker = threading.Thread(target=contextvars.copy_context().run,
                                  args=(run_pending,), name="smf-restarts")
        worker.start()

    try:
        norm = frobenius_norm(xm)
        # The objective is non-negative, so once a restart ends within
        # EXACT_FIT_TOL |X|_F no other restart could improve on it by more
        # than that: restarts 1..k-1 count only if restart 0 ends above.
        exact = EXACT_FIT_TOL * norm
        anchored = _anchor_start(xm, config)
        h0, hp0 = (random_start(0), None) if anchored is None else anchored
        shared = (pinned and k > 1
                  and n_rows * n_cols * config.rank >= _SHARED_RESTART_WORK)
        results[0] = solve(h0, hp0, share_restarts if shared else None)
        if progress is not None:
            progress(results[0][2], results[0][1])
        if results[0][1] > exact:
            if worker is None:
                pending.extend((j, random_start(j)) for j in range(1, k))
            run_pending()
            if worker is not None:
                worker.join()
    finally:
        # An exact restart 0, or an error in this thread, cancels the
        # restarts still running; none outlives the call.
        if worker is not None:
            cancel.set()
            worker.join()
        if pinned:
            _unpin_blas()

    if results[0][1] > exact:
        if errors:
            raise errors[min(errors)]
    else:
        del results[1:]
    finals = [obj for _, obj, _, _, _ in results]
    best = min(range(len(finals)), key=lambda j: (finals[j], j))
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
        blas_pinned=pinned,
    )
