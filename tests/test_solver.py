"""Unit tests for the constrained factorization solver."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from smf import (
    FactorPair,
    InvalidInputError,
    Mode,
    Orientation,
    RankDeficientError,
    SolverConfig,
    align_and_score,
    check_uniqueness,
    concentrate_w,
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
    _init_h,
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
    with pytest.raises(InvalidInputError):
        cfg(conv_tol=0.0)


def test_default_penalty_weights():
    # Penalty mode went with its weights: the config takes none, and its
    # one mode is the default.
    c = cfg()
    assert c.mode is Mode.PROJECTED
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "rank", "orientation", "conv_tol", "restarts", "seed", "mode"]
    with pytest.raises(TypeError):
        cfg(penalty_sum1=100.0)


def test_penalty_mode_is_an_alias_that_old_values_cannot_reach():
    # Mode.PENALTY names the one mode, so code that spells it still runs a
    # projected fit; the value "penalty" (an old CLI manifest's) is refused.
    assert Mode.PENALTY is Mode.PROJECTED
    assert list(Mode) == [Mode.PROJECTED]
    assert Mode("projected") is Mode.PROJECTED
    for make in (lambda: Mode("penalty"), lambda: cfg(mode="penalty")):
        with pytest.raises(ValueError, match="penalty mode was removed"):
            make()
    assert cfg(mode="projected").mode is Mode.PROJECTED


# ------------------------------------------------------------ concentration


def test_concentrate_w_identity_h():
    x = np.array([[0.6, 0.4], [0.2, 0.8]])
    assert np.allclose(concentrate_w(x, np.eye(2)), x, atol=1e-14)


def test_concentrate_w_exact_inverse():
    h = np.array([[0.7, 0.3], [0.4, 0.6]])
    w_true = np.array([[0.9, 0.1], [0.25, 0.75], [0.5, 0.5]])
    w = concentrate_w(w_true @ h, h)
    assert np.allclose(w, w_true, atol=1e-12)


def test_concentrate_w_rank_deficient_h():
    with pytest.raises(RankDeficientError):
        concentrate_w(np.eye(3), np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]))


def test_concentrate_w_validates_h():
    x = np.eye(3)
    for h in (np.ones(3), np.zeros((0, 3)), np.array([[np.nan, 1.0, 0.0]])):
        with pytest.raises(ValueError):
            concentrate_w(x, h)
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
def test_concentrate_w_and_terms_equal_pseudoinverse_bitwise(mode):
    # The objective, its residual formed and squared in one buffer, against
    # frobenius_norm of the residual of the projected W = X pinv(H).
    for orientation, x, h in reference_instances():
        w = x @ pseudoinverse(h)
        assert np.array_equal(concentrate_w(x, h), w)
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

    def degenerate(x, h, config, rounds):
        h = h.copy()
        h[1] = h[0]
        return h, 1, False

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
    # input restart 0 ends as an exact fit (objective at most conv_tol
    # |X|_F), so it runs alone.
    x, _ = generate(20, 8, 2, seed=9, orientation=Orientation.W_ROWS_SUM_TO_1)
    c = cfg(rank=2, restarts=4, seed=7)
    res = factorize(x, c)
    assert len(res.restart_objectives) == 1
    assert res.objective <= c.conv_tol * frobenius_norm(x)
    check_bookkeeping(res, c)


def test_result_bookkeeping_of_a_noisy_fit_lists_every_restart():
    x, _ = generate(20, 8, 2, seed=9, noise_sigma=0.05,
                    orientation=Orientation.W_ROWS_SUM_TO_1)
    c = cfg(rank=2, restarts=4, seed=7)
    res = factorize(x, c)
    assert len(res.restart_objectives) == 4
    assert res.objective > c.conv_tol * frobenius_norm(x)
    check_bookkeeping(res, c)


def test_factorize_is_deterministic():
    x, _ = generate(20, 8, 2, seed=13, orientation=Orientation.W_ROWS_SUM_TO_1)
    c = cfg(rank=2, restarts=3, seed=1)
    a = factorize(x, c)
    b = factorize(x, c)
    assert np.array_equal(a.factors.w, b.factors.w)
    assert np.array_equal(a.factors.h, b.factors.h)
    assert a.objective_trace == b.objective_trace


def test_threaded_restarts_match_sequential():
    x, _ = generate(20, 8, 2, seed=17, orientation=Orientation.W_ROWS_SUM_TO_1)
    c = cfg(rank=2, restarts=4, seed=3)
    seq = factorize(x, c, threads=1)
    par = factorize(x, c, threads=4)
    assert np.array_equal(seq.factors.h, par.factors.h)
    assert seq.restart_objectives == par.restart_objectives
    assert seq.best_restart == par.best_restart


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
        h0 = _anchor_start(x, cfg(rank=3, orientation=orientation))
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
def test_rank_deficient_anchor_start_falls_back_to_seeded_start(orientation):
    # The rows of X span two directions, so no three rows of X (or anchor
    # columns) make a rank-3 H: restart 0 is then the random start seeded
    # seed, which is restart 1 of a 2-restart run seeded seed - 1.
    x, _ = generate(20, 8, 2, anchors=True, orientation=orientation, seed=11)
    c = cfg(rank=3, orientation=orientation)
    assert _anchor_start(x, c) is None
    if orientation is Orientation.H_ROWS_SUM_TO_1:
        # A free W admits an all-zero X, which has no anchor at all.
        assert _anchor_start(np.zeros_like(x), c) is None
        assert factorize(np.zeros_like(x), c).objective == 0.0
    # The seeded start of restart 0 fits this input exactly under h-rows and
    # both, which would end the 2-restart run before restart 1; a tolerance
    # below every objective lets restart 1 run.
    one = factorize(x, cfg(rank=3, orientation=orientation,
                           restarts=1, seed=4, conv_tol=1e-300))
    two = factorize(x, cfg(rank=3, orientation=orientation,
                           restarts=2, seed=3, conv_tol=1e-300))
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

    def counting(x, h, config, rounds):
        starts.append(h)
        return _warm_start(x, h, config, rounds)

    monkeypatch.setattr(solver, "_warm_start", counting)
    return starts


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("orientation", list(Orientation))
def test_exact_fit_runs_restart_0_alone(mode, orientation, monkeypatch):
    # On noiseless anchored input the anchor start fits X exactly: restart
    # 0 ends within conv_tol |X|_F and the random restarts never start.
    x, gt = generate(40, 12, 3, anchors=True, orientation=orientation, seed=6)
    c = cfg(rank=3, orientation=orientation, mode=mode, restarts=5)
    starts = counting_warm_start(monkeypatch)
    seen = []
    res = factorize(x, c, progress=lambda it, obj: seen.append((it, obj)))
    assert len(starts) == 1
    assert len(res.restart_objectives) == 1
    assert res.best_restart == 0
    assert res.objective <= c.conv_tol * frobenius_norm(x)
    assert res.converged
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
    assert res.restart_objectives[0] > c.conv_tol * frobenius_norm(x)


# ------------------------------------------------ warm-start reference


def reference_warm_start(x, h, config, rounds):
    # The extrapolated warm start run for one H alone, with 2-D arithmetic:
    # a singular-value-only SVD for the rank test, pseudoinverse() for W
    # and np.linalg.norm(gram, 2) for the step.  The solver's
    # version must reproduce it bit for bit.  Returns the final H, the
    # number of rounds that updated H before the stop (None at the cap),
    # whether the stop is convergence (the loss floor or a plateau), the
    # accepted losses, the number of discarded rounds, the number of
    # accepted rounds whose new beta is the ceiling and the number of plain
    # rounds whose loss rose without ending the run.
    floor = 1e-13 * max(1.0, frobenius_norm(x))
    prev = np.inf
    beta, ceil = 0.5, 1.0
    acc = y = h
    extrapolated = rose = False
    accepted, discarded, capped, rises = [], 0, 0, 0
    for t in range(rounds):
        s = np.linalg.svd(y, compute_uv=False)
        if s[0] <= 0.0 or s[-1] <= DEFAULT_RANK_TOL * s[0]:
            return acc, t, False, accepted, discarded, capped, rises
        w = _feasible_w(x @ pseudoinverse(y, DEFAULT_RANK_TOL), config.orientation)
        gram = w.T @ w
        lip = float(np.linalg.norm(gram, 2))
        if lip <= 0.0:
            return acc, t, False, accepted, discarded, capped, rises
        wtx = w.T @ x
        new = y
        for _ in range(3):
            new = _feasible_h(new - (gram @ new - wtx) / lip, config.orientation)
        loss = frobenius_norm(x - w @ new)
        if loss < floor:
            return new, t + 1, True, accepted, discarded, capped, rises
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
        if prev - loss < 1e-13 * max(1.0, prev):
            # A plateau converges; a second rise in a row is a stall.
            if loss <= prev:
                return new, t + 1, True, accepted, discarded, capped, rises
            return acc, t + 1, False, accepted, discarded, capped, rises
        y = _feasible_h(new + beta * (new - acc), config.orientation)
        acc, prev, extrapolated = new, loss, True
        accepted.append(loss)
        capped += ceil < 1.01 * beta
        beta, ceil = min(ceil, 1.01 * beta), min(1.0, 1.005 * ceil)
    return acc, None, False, accepted, discarded, capped, rises


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
                got, got_rounds, got_converged = _warm_start(x, h, c, rounds)
                assert np.array_equal(got, run[0])
                assert got_rounds == (rounds if run[1] is None else run[1])
                assert got_converged == run[2]
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
    h, stop, converged, accepted, _, _, _ = reference_warm_start(x, h0, c, 2000)
    got, got_stop, got_converged = _warm_start(x, h0, c, 2000)
    assert np.array_equal(got, h)
    assert (got_stop, got_converged) == (stop, converged)
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
    h, stop, converged, accepted, _, _, _ = reference_warm_start(x, h0, c, 2000)
    got, got_stop, got_converged = _warm_start(x, h0, c, 2000)
    assert np.array_equal(got, h)
    assert (got_stop, got_converged) == (stop, converged)
    assert 1e3 < frobenius_norm(x) ** 2 / accepted[-1] ** 2 < 1e6


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
def test_factorize_peak_memory_is_one_residual_per_restart(restarts):
    # Restarts run one after another: a noisy warm start reads each round's
    # loss off its R×m Gram products and forms no residual, the score of its
    # H forms one array the size of X after it, and no restart keeps a
    # residual after it ends.  The traced peak of a whole noisy fit (which
    # runs every restart) is about 1.04 arrays of X's size whatever the
    # number of restarts; the bound allows 3.
    noisy, _ = generate(600, 200, 2, seed=0, noise_sigma=0.02,
                        orientation=Orientation.BOTH)
    c = cfg(rank=2, orientation=Orientation.BOTH, mode=Mode.PROJECTED,
            restarts=restarts)
    res, peak = traced_peak(lambda: factorize(noisy, c))
    assert len(res.restart_objectives) == restarts
    assert peak <= 3 * noisy.nbytes
