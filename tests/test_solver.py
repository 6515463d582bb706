"""Unit tests for the constrained factorization solver."""

import dataclasses
import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from smf import (
    InvalidInputError,
    Mode,
    Orientation,
    RankDeficientError,
    SolverConfig,
    align_and_score,
    check_uniqueness,
    factorize,
    generate,
    objective,
)
from smf import solver
from smf.linalg import DEFAULT_RANK_TOL, frobenius_norm, pseudoinverse
from smf.solver import (
    EPS_FEAS_PROJECTED,
    _anchor_start,
    _feasible_h,
    _feasible_w,
    _full_rank_pinv,
    _init_h,
    _score,
    _spa,
    _warm_start,
)


def cfg(rank=2, orientation=Orientation.W_ROWS_SUM_TO_1, **kw):
    return SolverConfig(rank=rank, orientation=orientation, **kw)


# ------------------------------------------------------------ configuration


def test_config_validation():
    with pytest.raises(InvalidInputError):
        cfg(rank=0)
    with pytest.raises(InvalidInputError):
        cfg(restarts=0)
    with pytest.raises(InvalidInputError, match="seed must be at least 0"):
        cfg(seed=-2)
    # The exact-fit tolerance is the fixed solver.EXACT_FIT_TOL.
    with pytest.raises(TypeError):
        cfg(conv_tol=1e-8)
    # numpy integers are integers.
    assert cfg(rank=np.int64(3), restarts=np.int32(2), seed=np.uint8(4)).rank == 3


@pytest.mark.parametrize("field, value", [
    ("rank", 2.0), ("rank", "3"), ("rank", True), ("restarts", 2.0),
    ("restarts", None), ("seed", 1.5), ("seed", "3"), ("seed", True),
    ("seed", np.float64(1.0)),
])
def test_config_refuses_a_count_that_is_not_an_integer(field, value):
    # A float seed used to fail only at restart 1, in numpy, after restart
    # 0 had run; a bool is not a count.
    with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
        cfg(**{field: value})


def test_default_penalty_weights():
    # Penalty mode went with its weights: the config takes none, and its
    # one mode is the default.
    c = cfg()
    assert c.mode is Mode.PROJECTED
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "rank", "orientation", "restarts", "seed", "mode"]
    with pytest.raises(TypeError):
        cfg(penalty_sum1=100.0)


def test_penalty_mode_is_an_alias_that_old_values_cannot_reach():
    # Mode.PENALTY names the one mode, so code that spells it still runs a
    # projected fit; the value "penalty" (an old CLI manifest's) is refused.
    assert Mode.PENALTY is Mode.PROJECTED
    assert list(Mode) == [Mode.PROJECTED]
    assert Mode("projected") is Mode.PROJECTED
    with pytest.raises(ValueError, match="is not a valid Mode"):
        Mode("bogus")
    for make in (lambda: Mode("penalty"), lambda: cfg(mode="penalty")):
        with pytest.raises(ValueError, match="penalty mode was removed"):
            make()
    assert cfg(mode="projected").mode is Mode.PROJECTED


# ------------------------------------------------------------ concentration


def test_objective_validates_h():
    x = np.eye(3)
    for h in (np.ones(3), np.zeros((0, 3)), np.array([[np.nan, 1.0, 0.0]])):
        with pytest.raises(ValueError):
            objective(x, h, cfg(rank=1))


def reference_instances():
    rng = np.random.default_rng(41)
    for orientation in Orientation:
        for trial in range(3):
            x = rng.uniform(0.0, 1.0, size=(15, 7))
            if orientation is Orientation.BOTH:
                x = x / x.sum(axis=1, keepdims=True)
            h = rng.uniform(0.05, 1.0, size=(2 + trial % 2, 7))
            yield orientation, x, h


@pytest.mark.parametrize("mode", list(Mode))
def test_full_rank_pinv_and_objective_equal_pseudoinverse_bitwise(mode):
    # The solver's one-SVD pinv against pseudoinverse, and the objective, its
    # residual formed and squared in one buffer, against frobenius_norm of
    # the residual of the projected W = X pinv(H).
    for orientation, x, h in reference_instances():
        assert np.array_equal(_full_rank_pinv(h), pseudoinverse(h))
        w = x @ pseudoinverse(h)
        c = cfg(rank=h.shape[0], orientation=orientation, mode=mode)
        assert objective(x, h, c) == frobenius_norm(x - _feasible_w(w, orientation) @ h)


# ------------------------------------------------- objective frozen examples


def test_objective_projected_mode_drops_w_terms():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.4]])
    h = np.array([[0.7, 0.3], [0.4, 0.6]])
    c = cfg(orientation=Orientation.H_ROWS_SUM_TO_1)
    # W = X inv(H) has rows [2, -1] and [-4/3, 7/3].  The objective charges
    # no penalty for them: it clips them to the feasible set, which leaves
    # a genuine residual.
    clipped = np.clip(x @ pseudoinverse(h), 0.0, None)
    assert objective(x, h, c) == frobenius_norm(x - clipped @ h)
    assert objective(x, h, c) > 0.1


def test_objective_rejects_rank_deficient_h():
    with pytest.raises(RankDeficientError):
        objective(np.eye(3), np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]), cfg())


# ----------------------------------------------------------------- solving


def test_factorize_validates_input():
    c = cfg(rank=2)
    with pytest.raises(InvalidInputError):
        factorize(np.array([[1.0, -0.2], [0.3, 0.4]]), c)
    with pytest.raises(InvalidInputError):
        factorize(np.ones(4), c)
    with pytest.raises(InvalidInputError):
        factorize(np.array([[np.nan, 1.0], [1.0, 1.0]]), c)
    # rank must leave room for a strictly smaller factorization
    with pytest.raises(InvalidInputError):
        factorize(np.full((2, 5), 0.2), c)
    with pytest.raises(InvalidInputError):
        factorize(np.full((5, 2), 0.2), c)


@pytest.mark.parametrize("orientation", [Orientation.W_ROWS_SUM_TO_1,
                                         Orientation.BOTH])
def test_factorize_rejects_zero_rows_for_stochastic_w(orientation):
    # A zero row of X would need a zero row in H; no full-rank H fits it.
    x, _ = generate(20, 8, 2, seed=29, orientation=orientation)
    x[7] = 0.0
    c = cfg(rank=2, orientation=orientation, restarts=1)
    for bad in (x, np.zeros_like(x)):
        with pytest.raises(InvalidInputError):
            factorize(bad, c)


def test_factorize_rejects_x_above_one_for_stochastic_w():
    # A row-stochastic W and 0 <= H <= 1 make every entry of X at most 1.
    x, _ = generate(20, 8, 2, seed=29, orientation=Orientation.W_ROWS_SUM_TO_1)
    c = cfg(rank=2, restarts=1)
    for scale in (2.0, 1e8):
        with pytest.raises(InvalidInputError, match="above 1"):
            factorize(x * scale / x.max(), c)
    # Just under the tolerance still fits, and a free W takes any scale.
    factorize(x * (1.0 + 1e-7) / x.max(), c)
    res = factorize(x * 2.0, cfg(rank=2, orientation=Orientation.H_ROWS_SUM_TO_1,
                                 restarts=1))
    assert np.isfinite(res.objective)


def test_factorize_accepts_zero_rows_for_free_w():
    x, _ = generate(20, 8, 2, seed=29, orientation=Orientation.H_ROWS_SUM_TO_1)
    x[7] = 0.0
    res = factorize(x, cfg(rank=2, orientation=Orientation.H_ROWS_SUM_TO_1,
                           restarts=1))
    assert np.isfinite(res.objective)


def test_factorize_both_requires_stochastic_rows():
    x = np.full((5, 4), 0.3)
    with pytest.raises(InvalidInputError, match="summing to 1"):
        factorize(x, cfg(orientation=Orientation.BOTH))


def test_rank_one_projected_recovers_column_means():
    # With W pinned to the single column of ones, the least-squares H is the
    # column mean of X.
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, size=(30, 6))
    c = cfg(rank=1, orientation=Orientation.W_ROWS_SUM_TO_1,
            mode=Mode.PROJECTED, restarts=2)
    res = factorize(x, c)
    assert np.allclose(res.factors.w, np.ones((30, 1)), atol=1e-12)
    assert np.max(np.abs(res.factors.h[0] - x.mean(axis=0))) < 1e-9


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("orientation", list(Orientation))
def test_factorize_modes_and_orientations(mode, orientation):
    x, gt = generate(24, 10, 2, anchors=True, orientation=orientation, seed=31)
    c = cfg(rank=2, orientation=orientation, mode=mode, restarts=2, seed=0)
    res = factorize(x, c)
    assert res.factors.max_violation() <= EPS_FEAS_PROJECTED
    assert res.factors.h.max() <= 1.0 + EPS_FEAS_PROJECTED
    assert np.isfinite(res.objective)
    diffs = np.diff(res.objective_trace)
    assert np.all(diffs <= 1e-9)
    _, err = align_and_score(res.factors.h, gt.h)
    assert err < 1e-2


def test_projected_fits_of_uniform_inputs_are_feasible():
    # Inputs no rank-R model fits exactly, each a uniform X scaled into the
    # orientation's domain (rows normalized for both, divided by its max for
    # w-rows): every projected-mode fit meets EPS_FEAS_PROJECTED.
    rng = np.random.default_rng(12345)
    for i in range(60):
        orientation = list(Orientation)[i % 3]
        n_rows, n_cols = int(rng.integers(12, 40)), int(rng.integers(8, 20))
        rank = int(rng.integers(2, 5))
        x = rng.uniform(size=(n_rows, n_cols))
        if orientation is Orientation.BOTH:
            x = x / x.sum(axis=1, keepdims=True)
        elif orientation is Orientation.W_ROWS_SUM_TO_1:
            x = x / x.max()
        res = factorize(x, cfg(rank=rank, orientation=orientation, seed=i,
                               restarts=3, mode=Mode.PROJECTED))
        assert res.feasible, (i, res.max_violation)


def test_noiseless_recovery_is_accurate():
    x, gt = generate(40, 12, 3, anchors=True,
                     orientation=Orientation.W_ROWS_SUM_TO_1, seed=2)
    res = factorize(x, cfg(rank=3, restarts=3, seed=0))
    assert res.objective < 1e-4
    _, err = align_and_score(res.factors.h, gt.h)
    assert err < 1e-2
    assert res.converged


@pytest.mark.parametrize("sigma", [0.0, 0.03])
@pytest.mark.parametrize("orientation", list(Orientation))
def test_objective_is_the_residual_of_the_returned_factors(orientation, sigma):
    # The returned W is the one the winning score used, so the objective is
    # the residual of the returned pair bit for bit, on exact and noisy fits.
    x, _ = generate(40, 12, 3, anchors=True, noise_sigma=sigma,
                    orientation=orientation, seed=6)
    c = cfg(rank=3, orientation=orientation, restarts=3)
    res = factorize(x, c)
    assert res.objective == objective(x, res.factors.h, c)
    assert res.objective == frobenius_norm(x - res.factors.w @ res.factors.h)


def test_fit_raises_when_every_restart_ends_rank_deficient(monkeypatch):
    # Every score is inf when no restart ends at a full-rank H: no W
    # exists to return, so the fit fails instead of returning factors.
    x, _ = generate(30, 9, 3, seed=37, noise_sigma=0.03,
                    orientation=Orientation.W_ROWS_SUM_TO_1)

    def degenerate(x, h, config, rounds, *_):
        h = h.copy()
        h[1] = h[0]
        return h, 1, 0, "cap"

    monkeypatch.setattr(solver, "_warm_start", degenerate)
    with pytest.raises(RankDeficientError):
        factorize(x, cfg(rank=3, restarts=2))


def check_bookkeeping(res, c):
    assert res.objective == min(res.restart_objectives)
    assert res.best_restart == int(np.argmin(res.restart_objectives))
    assert res.objective_trace == [res.objective]
    assert res.iterations >= 1


def test_result_bookkeeping():
    # restart_objectives lists the restarts that ran: on this noiseless
    # input restart 0 ends as an exact fit (objective at most EXACT_FIT_TOL
    # |X|_F), so it runs alone.
    x, _ = generate(20, 8, 2, seed=9, orientation=Orientation.W_ROWS_SUM_TO_1)
    c = cfg(rank=2, restarts=4, seed=7)
    res = factorize(x, c)
    assert len(res.restart_objectives) == 1
    assert res.objective <= solver.EXACT_FIT_TOL * frobenius_norm(x)
    check_bookkeeping(res, c)


def test_result_bookkeeping_of_a_noisy_fit_lists_every_restart():
    x, _ = generate(20, 8, 2, seed=9, noise_sigma=0.05,
                    orientation=Orientation.W_ROWS_SUM_TO_1)
    c = cfg(rank=2, restarts=4, seed=7)
    res = factorize(x, c)
    assert len(res.restart_objectives) == 4
    assert res.objective > solver.EXACT_FIT_TOL * frobenius_norm(x)
    check_bookkeeping(res, c)


def test_factorize_is_deterministic():
    x, _ = generate(20, 8, 2, seed=13, orientation=Orientation.W_ROWS_SUM_TO_1)
    c = cfg(rank=2, restarts=3, seed=1)
    a = factorize(x, c)
    b = factorize(x, c)
    assert np.array_equal(a.factors.w, b.factors.w)
    assert np.array_equal(a.factors.h, b.factors.h)
    assert a.objective_trace == b.objective_trace


# ------------------------------------------- restarts beside restart 0


@pytest.fixture
def shared(monkeypatch):
    """Lets a fit of any size hand its random restarts to a worker thread,
    with a private CPU count that ``shared.cpus`` sets (2 to start with),
    and records in ``shared.started`` each worker thread started."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def cpus(n):
        monkeypatch.setattr(solver, "_usable_cpus", lambda: n)

    monkeypatch.setattr(solver, "_SHARED_RESTART_WORK", 0)
    monkeypatch.setattr(solver.threading, "Thread", Recorded)
    cpus(2)
    return SimpleNamespace(cpus=cpus, started=started)


def failing_random_restarts(monkeypatch, fail):
    # Wraps _warm_start so that a random restart (one given no pinv) calls
    # fail(start) first; restart 0 starts from the anchors with their pinv.
    def wrapped(x, h, config, rounds, norm, hp=None, cancel=None):
        if hp is None:
            fail(h)
        return _warm_start(x, h, config, rounds, norm, hp, cancel)

    monkeypatch.setattr(solver, "_warm_start", wrapped)


@pytest.mark.blas_threads
def test_threaded_restarts_match_sequential(shared):
    # With two usable CPUs the random restarts of a noisy fit run on a
    # worker thread beside restart 0, with one after it; each restart's
    # bits are its own, so the fit's are the same byte for byte.
    for orientation in Orientation:
        x, _ = generate(60, 14, 3, anchors=True, noise_sigma=0.03,
                        orientation=orientation, seed=17)
        for restarts in (2, 5):
            c = cfg(rank=3, orientation=orientation, restarts=restarts, seed=3)
            shared.cpus(1)
            seq = factorize(x, c)
            assert shared.started == []
            shared.cpus(2)
            par = factorize(x, c)
            assert len(shared.started) == int(par.blas_pinned)
            shared.started.clear()
            assert seq.factors.w.tobytes() == par.factors.w.tobytes()
            assert seq.factors.h.tobytes() == par.factors.h.tobytes()
            assert len(seq.restart_objectives) == restarts
            assert (np.array(seq.restart_objectives).tobytes()
                    == np.array(par.restart_objectives).tobytes())
            assert (seq.best_restart, seq.iterations, seq.converged) == (
                par.best_restart, par.iterations, par.converged)


@pytest.mark.blas_threads
def test_exact_fit_on_two_cpus_returns_restart_0_alone(shared):
    # The worker starts before restart 0; a one-round exact restart 0
    # cancels it, so the fit returns restart 0 alone with the bytes of a
    # one-CPU fit, and no worker is left running.
    x, _ = generate(40, 12, 3, anchors=True, orientation=Orientation.BOTH, seed=6)
    c = cfg(rank=3, orientation=Orientation.BOTH, restarts=5)
    shared.cpus(1)
    seq = factorize(x, c)
    assert shared.started == []
    shared.cpus(2)
    res = factorize(x, c)
    assert (res.iterations, res.restart_objectives) == (1, [res.objective])
    assert res.restart_objectives == seq.restart_objectives
    assert res.factors.w.tobytes() == seq.factors.w.tobytes()
    assert res.factors.h.tobytes() == seq.factors.h.tobytes()
    assert len(shared.started) == int(res.blas_pinned)
    assert not any(t.is_alive() for t in shared.started)


@pytest.mark.blas_threads
def test_small_fits_keep_their_restarts_in_the_callers_thread(shared, monkeypatch):
    # Below _SHARED_RESTART_WORK (n m R) two restarts would mostly wait on
    # each other for the interpreter lock.
    monkeypatch.setattr(solver, "_SHARED_RESTART_WORK", 60 * 14 * 3 + 1)
    x, _ = generate(60, 14, 3, anchors=True, noise_sigma=0.03, seed=17)
    res = factorize(x, cfg(rank=3, restarts=3))
    assert len(res.restart_objectives) == 3
    assert shared.started == []


@pytest.mark.blas_threads
def test_no_thread_outlives_factorize(shared, monkeypatch):
    noisy, _ = generate(60, 14, 3, anchors=True, noise_sigma=0.03, seed=17)
    # Noiseless but not anchored: restart 0 takes many rounds to fit exactly,
    # and the worker's restart runs until the exact fit cancels it; what it
    # raises then is dropped, as the serial path would not have run it.
    exact, _ = generate(40, 12, 3, anchors=False, seed=0)
    c = cfg(rank=3, restarts=5)
    pinned = factorize(noisy, c).blas_pinned
    uncancelled = []

    def until_cancelled(x, h, config, rounds, norm, hp=None, cancel=None):
        if hp is not None:
            return _warm_start(x, h, config, rounds, norm, hp, cancel)
        if not cancel.wait(timeout=10):
            uncancelled.append(h)
        raise ValueError("random restart")

    monkeypatch.setattr(solver, "_warm_start", until_cancelled)
    res = factorize(exact, c)
    assert not any(t.is_alive() for t in shared.started)
    assert uncancelled == []
    assert res.iterations > 1 and res.restart_objectives == [res.objective]

    def fail(h):
        raise ValueError("random restart")

    failing_random_restarts(monkeypatch, fail)
    with pytest.raises(ValueError, match="random restart"):
        factorize(noisy, c)
    # One worker for each of the three fits, where the pin holds.
    assert len(shared.started) == 3 * int(pinned)
    assert not any(t.is_alive() for t in shared.started)


@pytest.mark.blas_threads
def test_a_cancelled_restart_is_not_scored(shared, monkeypatch):
    # Restart 0 fits a noiseless, non-anchored X exactly after many rounds;
    # the worker's restart, held until the exact fit cancels it, returns
    # from its warm start at once and is dropped without a score, so the
    # fit scores restart 0 alone.
    x, _ = generate(40, 12, 3, anchors=False, seed=0)
    scored, uncancelled = [], []

    def counting(*args):
        scored.append(threading.current_thread().name)
        return _score(*args)

    def held(x, h, config, rounds, norm, hp=None, cancel=None):
        if hp is None and not cancel.wait(timeout=10):
            uncancelled.append(h)
        return _warm_start(x, h, config, rounds, norm, hp, cancel)

    monkeypatch.setattr(solver, "_score", counting)
    monkeypatch.setattr(solver, "_warm_start", held)
    res = factorize(x, cfg(rank=3, restarts=5))
    assert res.iterations > 1 and res.restart_objectives == [res.objective]
    assert len(shared.started) == int(res.blas_pinned)
    assert uncancelled == []
    assert scored == [threading.current_thread().name]


@pytest.mark.blas_threads
@pytest.mark.parametrize("cpus", [1, 2])
def test_first_failing_restart_in_index_order_is_raised(shared, monkeypatch, cpus):
    # Restart 1 fails after a full warm start and restarts 2..4 at once, so
    # on two CPUs the caller's restart 2 can fail first; the serial path
    # raises restart 1's error, and so does the shared one.
    x, _ = generate(60, 14, 3, anchors=True, noise_sigma=0.03, seed=17)
    c = cfg(rank=3, restarts=5)
    starts = [_feasible_h(_init_h(np.random.default_rng(c.seed + j), c.rank, x.shape[1],
                                  c.orientation), c.orientation)
              for j in range(c.restarts)]

    def wrapped(x, h, config, rounds, norm, hp=None, cancel=None):
        j = next((j for j in range(1, c.restarts) if np.array_equal(h, starts[j])), 0)
        if j > 1:
            raise ValueError(f"restart {j}")
        out = _warm_start(x, h, config, rounds, norm, hp, cancel)
        if j == 1:
            raise ValueError("restart 1")
        return out

    shared.cpus(cpus)
    monkeypatch.setattr(solver, "_warm_start", wrapped)
    with pytest.raises(ValueError, match="restart 1"):
        factorize(x, c)


@pytest.mark.blas_threads
@pytest.mark.parametrize("cpus", [1, 2])
def test_failing_random_restart_raises_under_the_callers_errstate(shared, monkeypatch,
                                                                  cpus):
    # The worker runs in a copy of the caller's context, so np.errstate
    # turns a division by zero into FloatingPointError there too.
    x, _ = generate(60, 14, 3, anchors=True, noise_sigma=0.03, seed=17)
    shared.cpus(cpus)
    failing_random_restarts(monkeypatch, lambda h: np.divide(1.0, np.zeros(1)))
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        factorize(x, cfg(rank=3, restarts=2))
    for thread in shared.started:
        assert not thread.is_alive()


@pytest.mark.blas_threads
def test_fit_restores_the_callers_blas_thread_count(shared, monkeypatch):
    calls = solver._openblas_threads()
    if calls is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get, set_ = calls
    before = get()
    x, _ = generate(60, 14, 3, anchors=True, noise_sigma=0.03, seed=17)
    c = cfg(rank=3, restarts=3)
    seen = []
    try:
        set_(2)
        res = factorize(x, c, progress=lambda *_: seen.append(get()))
        assert (res.blas_pinned, seen, get()) == (True, [1], 2)
        failing_random_restarts(monkeypatch, lambda h: np.divide(1.0, np.zeros(1)))
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            factorize(x, c)
        assert get() == 2
    finally:
        set_(before)


@pytest.mark.blas_threads
def test_concurrent_fits_keep_their_bits_and_the_blas_thread_count(shared):
    # Six fits at once, each with its own worker, from a caller on two BLAS
    # threads: the pin's count of fits in flight must not lose an update, or
    # a fit would run on two threads or the count would not read 2 after;
    # a shortened switch interval makes that likelier.
    calls = solver._openblas_threads()
    if calls is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get, set_ = calls
    x, _ = generate(60, 14, 3, anchors=True, noise_sigma=0.03, seed=17)
    c = cfg(rank=3, restarts=3)
    ref = factorize(x, c)
    out = [None] * 6

    def fit(i):
        out[i] = factorize(x, c)

    before, interval = get(), sys.getswitchinterval()
    try:
        set_(2)
        sys.setswitchinterval(1e-5)
        fits = [threading.Thread(target=fit, args=(i,)) for i in range(len(out))]
        for t in fits:
            t.start()
        for t in fits:
            t.join(timeout=60)
            assert not t.is_alive()
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        set_(before)
    for res in out:
        assert res.factors.w.tobytes() == ref.factors.w.tobytes()
        assert res.factors.h.tobytes() == ref.factors.h.tobytes()
    assert not any(t.is_alive() for t in shared.started)


@pytest.mark.blas_threads
def test_topics_shaped_fit_bits_do_not_depend_on_blas_threads(tmp_path):
    # An 800-document, 360-term fit at R=20 (the benchmark's topics fit),
    # whose restart 1 runs beside restart 0 on two CPUs: its W and H bytes
    # are the same in processes started with one and with two OpenBLAS
    # threads, and in this one.
    if solver._openblas_threads() is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    rng = np.random.default_rng(8)
    h = np.zeros((20, 360))
    for r in range(20):
        h[r, 18 * r:18 * (r + 1)] = rng.dirichlet(np.ones(18))
    w = rng.dirichlet(np.ones(20), size=800)
    w[:20] = np.eye(20)
    counts = np.array([rng.multinomial(int(rng.integers(80, 200)), p) for p in w @ h],
                      dtype=np.float64)
    x_path = tmp_path / "x.npy"
    np.save(x_path, counts / counts.sum(axis=1, keepdims=True))
    code = """if True:
        import hashlib, sys
        import numpy as np
        from smf import Orientation, SolverConfig, factorize
        r = factorize(np.load(sys.argv[1]),
                      SolverConfig(rank=20, orientation=Orientation.BOTH, restarts=2))
        print(hashlib.sha256(r.factors.w.tobytes() + r.factors.h.tobytes()).hexdigest())
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(solver.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code, str(x_path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    r = factorize(np.load(x_path), cfg(rank=20, orientation=Orientation.BOTH, restarts=2))
    digests.add(hashlib.sha256(r.factors.w.tobytes() + r.factors.h.tobytes()).hexdigest())
    assert len(digests) == 1


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("orientation", list(Orientation))
def test_stacked_restarts_match_single_restart_runs(mode, orientation):
    # Restart 0 is the anchor start in every run, and restart j >= 1 is the
    # random start seeded seed + j: restart j of a 4-restart run is restart
    # 1 of the 2-restart run seeded seed + j - 1.  Ties go to the lower
    # index, so the best restart of the 4-restart run is the best of each
    # 2-restart run that holds it.
    x, _ = generate(30, 9, 3, seed=37, noise_sigma=0.03, orientation=orientation)
    seed = 5
    res = factorize(x, cfg(rank=3, orientation=orientation, mode=mode,
                           restarts=4, seed=seed))
    for j in range(1, 4):
        two = factorize(x, cfg(rank=3, orientation=orientation, mode=mode,
                               restarts=2, seed=seed + j - 1))
        assert res.restart_objectives[0] == two.restart_objectives[0]
        assert res.restart_objectives[j] == two.restart_objectives[1]
        if res.best_restart in (0, j):
            assert two.best_restart == min(res.best_restart, 1)
            assert res.factors.w.tobytes() == two.factors.w.tobytes()
            assert res.factors.h.tobytes() == two.factors.h.tobytes()
            assert res.objective_trace == two.objective_trace
            assert res.iterations == two.iterations
            assert res.converged == two.converged


def test_progress_callback_sees_descent():
    # progress fires once, when restart 0's warm start ends, with its round
    # count and objective; the random restarts do not report.
    x, _ = generate(20, 8, 2, seed=19, noise_sigma=0.05,
                    orientation=Orientation.W_ROWS_SUM_TO_1)
    seen = []
    c = cfg(rank=2, restarts=3, seed=0)
    res = factorize(x, c, progress=lambda it, obj: seen.append((it, obj)))
    one = factorize(x, cfg(rank=2, restarts=1, seed=0))
    assert len(res.restart_objectives) == 3
    assert seen == [(one.iterations, res.restart_objectives[0])]
    assert one.iterations >= 1


def test_warm_start_round_cap_is_not_convergence(monkeypatch):
    # A restart ends where its warm start stops, so one cut at the round cap
    # is reported unconverged, with the rounds it ran.
    monkeypatch.setattr(solver, "_WARM_START_ROUNDS", 2)
    x, _ = generate(30, 9, 3, seed=37, noise_sigma=0.03,
                    orientation=Orientation.W_ROWS_SUM_TO_1)
    res = factorize(x, cfg(rank=3, mode=Mode.PROJECTED))
    assert not res.converged
    assert res.iterations == 2
    assert res.stop_reason == "cap"
    assert [(e["index"], e["rounds"], e["stop_reason"]) for e in res.stats] == [
        (j, 2, "cap") for j in range(5)]


def test_seed_changes_initialization():
    # The seed draws the random starts of restarts j >= 1; restart 0 is the
    # anchor start whatever the seed.
    x, _ = generate(25, 9, 3, seed=23, noise_sigma=0.1,
                    orientation=Orientation.W_ROWS_SUM_TO_1)
    r0 = factorize(x, cfg(rank=3, restarts=2, seed=0))
    r1 = factorize(x, cfg(rank=3, restarts=2, seed=100))
    assert r0.restart_objectives[1] != r1.restart_objectives[1]


# ------------------------------------------------------------ anchor start


@pytest.mark.parametrize("orientation", list(Orientation))
def test_spa_picks_the_anchors(orientation):
    # On separable data SPA's picks are the anchors that make the
    # factorization unique: the unit rows of W (anchor_rows), or with only
    # H stochastic the columns of H supported on one factor (anchor_cols),
    # and the anchor start is H itself.
    for seed in range(4):
        x, gt = generate(40, 12, 3, anchors=True, orientation=orientation, seed=seed)
        report = check_uniqueness(gt.pair)
        if orientation is Orientation.H_ROWS_SUM_TO_1:
            picks = _spa(x.T / x.sum(axis=0)[:, None], 3, 1e-10)
            anchors = report.anchor_cols
        else:
            picks = _spa(x, 3, 1e-10)
            anchors = report.anchor_rows
        assert sorted(picks) == sorted(i for rows in anchors.values() for i in rows)
        h0, _ = _anchor_start(x, cfg(rank=3, orientation=orientation))
        _, err = align_and_score(h0, gt.h)
        assert err < 1e-12


def test_instance_without_anchors_fits_through_random_restarts():
    # Without anchors the anchor start can end above the data's exact fit;
    # a random restart then reaches it and wins.
    x, _ = generate(60, 12, 3, anchors=False,
                    orientation=Orientation.H_ROWS_SUM_TO_1, seed=3)
    res = factorize(x, cfg(rank=3, orientation=Orientation.H_ROWS_SUM_TO_1,
                           restarts=4, seed=0))
    assert res.restart_objectives[0] > 1e-3
    assert res.best_restart >= 1
    assert res.objective < 1e-9
    assert res.factors.max_violation() <= EPS_FEAS_PROJECTED
    assert frobenius_norm(x - res.factors.w @ res.factors.h) < 1e-9


@pytest.mark.parametrize("orientation", list(Orientation))
def test_rank_deficient_anchor_start_falls_back_to_seeded_start(orientation,
                                                                 monkeypatch):
    # The rows of X span two directions, so no three rows of X (or anchor
    # columns) make a rank-3 H: restart 0 is then the random start seeded
    # seed, which is restart 1 of a 2-restart run seeded seed - 1.
    x, _ = generate(20, 8, 2, anchors=True, orientation=orientation, seed=11)
    c = cfg(rank=3, orientation=orientation)
    assert _anchor_start(x, c) is None
    if orientation is Orientation.H_ROWS_SUM_TO_1:
        # A free W admits an all-zero X, which has no anchor at all.
        assert _anchor_start(np.zeros_like(x), c) is None
        zero = factorize(np.zeros_like(x), c)
        assert zero.objective == 0.0 and zero.converged is True
        # Its W is zero, at loss 0: the loss floor, not a zero-W stop.
        assert zero.stop_reason == "floor"
    # The seeded start of restart 0 fits this input exactly under h-rows and
    # both, which would end the 2-restart run before restart 1; a tolerance
    # below every objective lets restart 1 run.
    monkeypatch.setattr(solver, "EXACT_FIT_TOL", 1e-300)
    one = factorize(x, cfg(rank=3, orientation=orientation, restarts=1, seed=4))
    two = factorize(x, cfg(rank=3, orientation=orientation, restarts=2, seed=3))
    assert one.restart_objectives[0] == two.restart_objectives[1]
    assert one.restart_objectives[0] != two.restart_objectives[0]


@pytest.mark.parametrize("orientation", list(Orientation))
def test_one_restart_fit_is_the_anchor_start_for_any_seed(orientation):
    x, _ = generate(30, 9, 3, anchors=True, noise_sigma=0.02,
                    orientation=orientation, seed=43)
    runs = [factorize(x, cfg(rank=3, orientation=orientation, restarts=1, seed=seed))
            for seed in (0, 0, 9)]
    for res in runs[1:]:
        assert res.factors.w.tobytes() == runs[0].factors.w.tobytes()
        assert res.factors.h.tobytes() == runs[0].factors.h.tobytes()
        assert res.objective_trace == runs[0].objective_trace


# ----------------------------------------------------------- exact-fit stop


def counting_warm_start(monkeypatch):
    # The start of every _warm_start call a fit makes.
    starts = []

    def counting(x, h, config, rounds, *args):
        starts.append(h)
        return _warm_start(x, h, config, rounds, *args)

    monkeypatch.setattr(solver, "_warm_start", counting)
    return starts


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("orientation", list(Orientation))
def test_exact_fit_runs_restart_0_alone(mode, orientation, monkeypatch):
    # On noiseless anchored input the anchor start fits X exactly: restart
    # 0 ends within EXACT_FIT_TOL |X|_F and the random restarts never start.
    x, gt = generate(40, 12, 3, anchors=True, orientation=orientation, seed=6)
    c = cfg(rank=3, orientation=orientation, mode=mode, restarts=5)
    starts = counting_warm_start(monkeypatch)
    seen = []
    res = factorize(x, c, progress=lambda it, obj: seen.append((it, obj)))
    assert len(starts) == 1
    assert len(res.restart_objectives) == 1
    assert res.best_restart == 0
    assert res.objective <= solver.EXACT_FIT_TOL * frobenius_norm(x)
    assert res.converged and res.stop_reason in ("floor", "plateau")
    assert res.stats == [{"index": 0, "rounds": res.iterations,
                          "discarded": res.stats[0]["discarded"],
                          "stop_reason": res.stop_reason}]
    assert res.iterations >= 1
    assert res.objective_trace == [res.objective]
    assert res.feasible
    assert seen == [(res.iterations, res.objective)]
    _, err = align_and_score(res.factors.h, gt.h)
    assert err < 1e-6


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("orientation", list(Orientation))
def test_noisy_fit_runs_every_restart(mode, orientation, monkeypatch):
    # Restart 0 ends far above the exact-fit bound, so restarts 1..4 run
    # after it, one at a time.
    x, _ = generate(40, 12, 3, anchors=True, noise_sigma=0.03,
                    orientation=orientation, seed=6)
    c = cfg(rank=3, orientation=orientation, mode=mode, restarts=5)
    starts = counting_warm_start(monkeypatch)
    res = factorize(x, c)
    assert len(starts) == 5
    assert len(res.restart_objectives) == 5
    assert res.restart_objectives[0] > solver.EXACT_FIT_TOL * frobenius_norm(x)


# ------------------------------------------------ warm-start reference


def reference_warm_start(x, h, config, rounds):
    # The extrapolated warm start run for one H alone, with 2-D arithmetic:
    # a singular-value-only SVD for the rank test, pseudoinverse() for W
    # and np.linalg.norm(gram, 2) for the step.  The solver's
    # version must reproduce it bit for bit.  Returns the final H, the
    # number of rounds that updated H before the stop (None at the cap),
    # the stop reason, the accepted losses, the number of discarded rounds,
    # the number of accepted rounds whose new beta is the ceiling and the
    # number of plain rounds whose loss rose without ending the run.
    floor = 1e-13 * frobenius_norm(x)
    prev = np.inf
    beta, ceil = 0.5, 1.0
    acc = y = h
    extrapolated = rose = False
    accepted, discarded, capped, rises = [], 0, 0, 0
    for t in range(rounds):
        s = np.linalg.svd(y, compute_uv=False)
        if s[0] <= 0.0 or s[-1] <= DEFAULT_RANK_TOL * s[0]:
            return acc, t, "rank_deficient", accepted, discarded, capped, rises
        w = _feasible_w(x @ pseudoinverse(y, DEFAULT_RANK_TOL), config.orientation)
        gram = w.T @ w
        lip = float(np.linalg.norm(gram, 2))
        if lip <= 0.0:
            # A zero W: the loss is |X|, at the floor only for a zero X.
            reason = "floor" if not x.any() else "zero_w"
            return acc, t, reason, accepted, discarded, capped, rises
        wtx = w.T @ x
        new = y
        for _ in range(3):
            new = _feasible_h(new - (gram @ new - wtx) / lip, config.orientation)
        loss = frobenius_norm(x - w @ new)
        if loss < floor:
            return new, t + 1, "floor", accepted, discarded, capped, rises
        if extrapolated and loss > prev:
            ceil, beta = beta, beta / 1.5
            y, extrapolated = acc, False
            discarded += 1
            continue
        if loss > prev and not rose:
            y, rose = new, True
            rises += 1
            continue
        rose = False
        if prev - loss < 1e-13 * prev:
            # A plateau converges; a second rise in a row is a stall.
            if loss <= prev:
                return new, t + 1, "plateau", accepted, discarded, capped, rises
            return acc, t + 1, "second_rise", accepted, discarded, capped, rises
        y = _feasible_h(new + beta * (new - acc), config.orientation)
        acc, prev, extrapolated = new, loss, True
        accepted.append(loss)
        capped += ceil < 1.01 * beta
        beta, ceil = min(ceil, 1.01 * beta), min(1.0, 1.005 * ceil)
    return acc, None, "cap", accepted, discarded, capped, rises


# Per orientation, a (seed, noise) instance whose first restart climbs back
# to the ceiling that a discarded round set, which few short runs do.
CEILING_INSTANCES = {
    Orientation.W_ROWS_SUM_TO_1: (20, 0.02),
    Orientation.H_ROWS_SUM_TO_1: (20, 0.04),
    Orientation.BOTH: (9, 0.02),
}


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("orientation", list(Orientation))
def test_warm_start_matches_reference_bitwise(mode, orientation):
    # Restarts that plateau at different rounds, and a rank-deficient H
    # (two equal rows) that stops at once; on the first instance the
    # ceiling on beta binds.
    discarded = capped = rises = 0
    reasons = set()
    for seed, sigma in [CEILING_INSTANCES[orientation]] + [(s, 0.02 * s) for s in range(3)]:
        x, _ = generate(30, 9, 3, seed=seed, noise_sigma=sigma,
                        orientation=orientation)
        c = cfg(rank=3, orientation=orientation, mode=mode)
        h0 = np.stack([_init_h(np.random.default_rng(seed + 10 * j), 3, x.shape[1],
                               orientation) for j in range(5)])
        h0[2, 1] = h0[2, 0]
        h0 = _feasible_h(h0, orientation)
        for rounds in (1, 7, 200, 2000):
            runs = [reference_warm_start(x, h, c, rounds) for h in h0]
            for h, run in zip(h0, runs):
                got, got_rounds, got_discarded, got_reason = _warm_start(
                    x, h, c, rounds, frobenius_norm(x))
                assert np.array_equal(got, run[0])
                assert got_rounds == (rounds if run[1] is None else run[1])
                assert (got_discarded, got_reason) == (run[4], run[2])
                reasons.add(got_reason)
        for _, _, _, accepted, n_discarded, n_capped, n_rises in runs:
            assert all(b < a for a, b in zip(accepted, accepted[1:]))
            discarded += n_discarded
            capped += n_capped
            rises += n_rises
    stops = [run[1] for run in runs]
    assert stops[2] == 0
    full_rank = [stops[j] for j in (0, 1, 3, 4)]
    assert None not in full_rank
    assert len(set(full_rank)) >= 3
    assert min(full_rank) > 7
    # The discard path (a loss increase after an extrapolated round) runs,
    # and so do the ceiling it lowers and a plain round whose loss rose.
    assert discarded > 0
    assert capped > 0
    assert rises > 0
    assert {"rank_deficient", "second_rise", "cap"} <= reasons


@pytest.mark.parametrize("mode", list(Mode))
def test_warm_start_goes_on_after_one_rising_round(mode):
    # On this instance the 7th round is plain and its loss rises above the
    # last accepted one.  Stopping there left the restart more than three
    # times above the loss that the rounds after it reach.
    x, _ = generate(30, 9, 3, seed=0, noise_sigma=0.02,
                    orientation=Orientation.H_ROWS_SUM_TO_1)
    c = cfg(rank=3, orientation=Orientation.H_ROWS_SUM_TO_1, mode=mode)
    h0 = _feasible_h(_init_h(np.random.default_rng(20), 3, x.shape[1], c.orientation),
                     c.orientation)
    _, _, _, first, _, _, first_rises = reference_warm_start(x, h0, c, 7)
    h, stop, reason, accepted, discarded, _, _ = reference_warm_start(x, h0, c, 2000)
    got, got_stop, got_discarded, got_reason = _warm_start(x, h0, c, 2000,
                                                           frobenius_norm(x))
    assert np.array_equal(got, h)
    assert (got_stop, got_discarded, got_reason) == (stop, discarded, reason)
    assert first_rises == 1
    assert stop > 20
    assert accepted[-1] < first[-1] / 3.0


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("seed, sigma", [(1, 0.01), (3, 0.005)])
def test_warm_start_matches_reference_where_gram_rounding_is_largest(mode, seed, sigma):
    # The warm start reads a round's loss off |X|^2 - 2 <W'X, H> + <W'W H, H>,
    # whose rounding grows with |X|^2 / loss^2.  These low-noise instances
    # end at |X|^2 / loss^2 of about 2.6e3 and 1.1e4, the largest the Gram
    # score meets (from 1e6 on a round forms its residual instead), and the
    # rounds must still take the reference's accept, discard and stop
    # decisions.
    x, _ = generate(400, 60, 5, seed=seed, noise_sigma=sigma,
                    orientation=Orientation.W_ROWS_SUM_TO_1)
    c = cfg(rank=5, mode=mode)
    h0 = _feasible_h(_init_h(np.random.default_rng(seed), 5, x.shape[1], c.orientation),
                     c.orientation)
    h, stop, reason, accepted, discarded, _, _ = reference_warm_start(x, h0, c, 2000)
    got, got_stop, got_discarded, got_reason = _warm_start(x, h0, c, 2000,
                                                           frobenius_norm(x))
    assert np.array_equal(got, h)
    assert (got_stop, got_discarded, got_reason) == (stop, discarded, reason)
    assert 1e3 < frobenius_norm(x) ** 2 / accepted[-1] ** 2 < 1e6


def stop_reason_instance(reason):
    # (X, start H, config, rounds) whose warm start stops for reason.
    if reason == "zero_w":
        # X lives on columns that no row of H touches, so X pinv(H) = 0 and
        # the free W clipped at 0 is zero while X is not.
        x = np.zeros((8, 6))
        x[:, 4:] = np.random.default_rng(0).uniform(0.1, 1.0, (8, 2))
        h0 = np.array([[0.5, 0.5, 0, 0, 0, 0], [0, 0, 0.25, 0.75, 0, 0]])
        return x, h0, cfg(rank=2, orientation=Orientation.H_ROWS_SUM_TO_1), 10
    if reason == "floor":
        # Noiseless anchored input from its own H: the first round is exact.
        x, gt = generate(40, 12, 3, anchors=True, seed=6,
                         orientation=Orientation.W_ROWS_SUM_TO_1)
        return x, gt.h, cfg(rank=3), 2000
    # A plateau's last fall is below 1e-13 of the loss, so the Gram score
    # and the reference's residual may part there; on this instance they
    # do not.
    orientation, seed, sigma = ((Orientation.H_ROWS_SUM_TO_1, 3, 0.02)
                                if reason in ("plateau", "cap")
                                else (Orientation.W_ROWS_SUM_TO_1, 1, 0.005))
    x, _ = generate(30, 9, 3, anchors=False, seed=seed, noise_sigma=sigma,
                    orientation=orientation)
    h0 = _feasible_h(_init_h(np.random.default_rng(seed), 3, 9, orientation),
                     orientation)
    if reason == "rank_deficient":
        h0[1] = h0[0]
    return x, h0, cfg(rank=3, orientation=orientation), 7 if reason == "cap" else 2000


@pytest.mark.parametrize("reason", ["floor", "plateau", "second_rise", "rank_deficient",
                                    "zero_w", "cap"])
def test_each_stop_reason_is_reached(reason):
    # Every exit of the warm start names why it stopped, and the reference
    # takes the same exit with the same bits and discarded rounds.
    x, h0, c, rounds = stop_reason_instance(reason)
    got, got_rounds, got_discarded, got_reason = _warm_start(x, h0, c, rounds,
                                                             frobenius_norm(x))
    h, stop, want, _, discarded, _, _ = reference_warm_start(x, h0, c, rounds)
    assert got_reason == want == reason
    assert np.array_equal(got, h)
    assert (got_rounds, got_discarded) == (rounds if stop is None else stop, discarded)
    if reason in ("rank_deficient", "zero_w"):
        assert got_rounds == 0 and got is h0


# ------------------------------------------------------- tall W projection


@pytest.mark.blas_threads
@pytest.mark.parametrize("n, m, rank, restarts, sigma, seed, orientation, tall", [
    (2400, 81, 10, 1, 0.02, 7, Orientation.W_ROWS_SUM_TO_1, True),
    (4000, 30, 4, 3, 0.01, 700, Orientation.W_ROWS_SUM_TO_1, True),
    (1000, 30, 4, 2, 0.01, 3, Orientation.BOTH, True),
    (800, 60, 20, 1, 0.02, 8, Orientation.W_ROWS_SUM_TO_1, False),
], ids=["criterion-7", "criterion-6", "both", "topics-w"])
def test_tall_w_projection_keeps_the_row_wise_bits(n, m, rank, restarts, sigma, seed,
                                                    orientation, tall, monkeypatch):
    # A row-stochastic W with at least 64 rows per factor is projected by the
    # kernel that reuses the last round's row orders; the fit's bytes must be
    # those of the row-wise projection.  On two BLAS threads X pinv(Y) may
    # round differently and reorder other rows, and the two must still match.
    x, _ = generate(n, m, rank, anchors=True, noise_sigma=sigma,
                    orientation=orientation, seed=seed)
    c = cfg(rank=rank, orientation=orientation, restarts=restarts)
    calls = []

    def counted(w, order):
        calls.append(order is None)
        return kernel(w, order)

    kernel = solver._simplex_rows_ordered
    monkeypatch.setattr(solver, "_simplex_rows_ordered", counted)
    fast = factorize(x, c)
    assert (len(calls) > 0) == tall
    assert calls.count(True) == (len(fast.restart_objectives) if tall else 0)

    def row_wise(w, order):
        return solver._simplex_rows_raw(w), order

    monkeypatch.setattr(solver, "_simplex_rows_ordered", row_wise)
    slow = factorize(x, c)
    assert fast.factors.w.tobytes() == slow.factors.w.tobytes()
    assert fast.factors.h.tobytes() == slow.factors.h.tobytes()
    assert fast.restart_objectives == slow.restart_objectives
    assert (fast.iterations, fast.converged) == (slow.iterations, slow.converged)


@pytest.mark.parametrize("orientation", [Orientation.H_ROWS_SUM_TO_1,
                                         Orientation.W_ROWS_SUM_TO_1])
def test_fit_of_a_scaled_input_is_the_scaled_fit(orientation):
    # The loss floor and the plateau test are relative to |X|_F and to the
    # loss, so a fit of 2^-40 X takes the rounds of the fit of X: with H
    # row-stochastic its H is the same and its W 2^-40 times, with W
    # row-stochastic its W is the same and its H 2^-40 times.  With floors
    # of at least 1e-13 the small fit stopped after 2 rounds, converged.
    scale = 2.0 ** -40
    for seed in range(3):
        x, _ = generate(50, 12, 3, noise_sigma=0.02, orientation=orientation, seed=seed)
        c = cfg(rank=3, orientation=orientation, restarts=1)
        one, small = factorize(x, c), factorize(scale * x, c)
        assert (small.iterations, small.converged) == (one.iterations, one.converged)
        assert small.iterations > 10
        if orientation is Orientation.H_ROWS_SUM_TO_1:
            assert np.array_equal(small.factors.h, one.factors.h)
            assert np.array_equal(small.factors.w, scale * one.factors.w)
        else:
            assert np.array_equal(small.factors.w, one.factors.w)
            assert np.array_equal(small.factors.h, scale * one.factors.h)
        assert small.objective == scale * one.objective


# ------------------------------------------------------------- peak memory


def traced_peak(run):
    # The result of run() and the peak of the memory it traced.
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("restarts", [1, 2, 5])
def test_factorize_peak_memory_is_one_residual_per_restart(restarts, shared):
    # A noisy warm start reads each round's loss off its R×m Gram products
    # and forms no residual, the score of its H forms one array the size of
    # X after it, and no restart keeps a residual after it ends.  At most two
    # restarts are in flight, restart 0 in the caller's thread and one on
    # the worker thread, which this fit starts whatever its size.  The
    # traced peak of a whole noisy fit (which runs every restart) is then at
    # most about one array of X's size per restart in flight: 1.04, 1.14 and
    # 1.18 X at 1, 2 and 5 restarts.  The bound allows 3.
    noisy, _ = generate(600, 200, 2, seed=0, noise_sigma=0.02,
                        orientation=Orientation.BOTH)
    c = cfg(rank=2, orientation=Orientation.BOTH, mode=Mode.PROJECTED,
            restarts=restarts)
    res, peak = traced_peak(lambda: factorize(noisy, c))
    assert len(res.restart_objectives) == restarts
    assert len(shared.started) == int(restarts > 1 and res.blas_pinned)
    assert peak <= 3 * noisy.nbytes
