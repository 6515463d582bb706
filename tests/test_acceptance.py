"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N ... PASS`` line with its measured
margins (visible in the live terminal via capsys.disabled), and pytest -v
adds the per-test PASSED/FAILED verdict.  These tests are intentionally
heavier than the unit tests; the whole file runs in a couple of minutes.
"""

import time

import numpy as np
import pytest

from smf import (
    FactorPair,
    GrayImage,
    Mode,
    Orientation,
    SolverConfig,
    Violation,
    ViolationKind,
    align_and_score,
    analysis_report,
    average_consistency_diagnostic,
    check_uniqueness,
    downsample_2x2,
    factorize,
    fit_topics,
    frobenius_norm,
    generate,
    natural_bounds,
    pseudoinverse,
    read_matrix,
    reconstruction_error,
    retrieve,
    sample_feasible_A,
    top_terms,
    write_matrix_csv,
)
from smf.cli import EXIT_OK, main as cli_main
from smf.topics import Corpus


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line, flush=True)
    return _announce


# --------------------------------------------------------------- criterion 1


def test_criterion_1_pseudoinverse_conditions(announce):
    """200 random matrices satisfy all four Moore-Penrose conditions."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, 40))
        kind = trial % 4
        if kind == 0:
            a = rng.normal(size=(n, m))
        elif kind == 1:
            r = int(rng.integers(1, min(n, m) + 1))
            a = rng.normal(size=(n, r)) @ rng.normal(size=(r, m))
        elif kind == 2:
            a = rng.normal(size=(n, m)) * rng.choice([1e-6, 1.0, 1e6])
        else:
            a = np.zeros((n, m))
        ap = pseudoinverse(a)
        scale = max(1.0, float(np.max(np.abs(a))))
        gap = max(
            np.max(np.abs(a @ ap @ a - a)) / scale,
            np.max(np.abs(ap @ a @ ap - ap)) / max(1.0, np.max(np.abs(ap))),
            np.max(np.abs((a @ ap).T - a @ ap)),
            np.max(np.abs((ap @ a).T - ap @ a)),
        )
        worst = max(worst, float(gap))
        assert gap < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    announce(f"criterion 1 (pseudoinverse conditions): PASS "
             f"max gap {worst:.2e}, {elapsed:.2f} s for 200 matrices")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_sampler_soundness(announce):
    """10,000 sampled mixing matrices stay row-stochastic and feasible."""
    rng = np.random.default_rng(202)
    n_total = 0
    worst_row_dev = 0.0
    identity_locked = 0
    axis_checked = 0
    for inst in range(20):
        anchored = inst < 10
        rank = int(rng.integers(2, 5))
        _, gt = generate(rank + 8, rank + 6, rank, anchors=anchored,
                         seed=1000 + inst)
        pair = gt.pair
        samples = sample_feasible_A(pair, 500, seed=inst)
        assert len(samples) == 500
        n_total += len(samples)
        bounds = {(b.r1, b.r2): b for b in natural_bounds(pair)}
        for s in samples:
            a = s.a
            worst_row_dev = max(worst_row_dev,
                                float(np.max(np.abs(a.sum(axis=1) - 1.0))))
            assert worst_row_dev <= 1e-10
            assert (pair.w @ a).min() >= -1e-12
            assert np.linalg.solve(a, pair.h).min() >= -1e-12
            if anchored:
                # anchors pin the feasible set to the identity alone
                assert np.array_equal(a, np.eye(rank))
                identity_locked += 1
            else:
                off = a - np.diag(np.diag(a))
                nz = np.argwhere(np.abs(off) > 1e-12)
                if len(nz) == 1:
                    r1, r2 = (int(v) for v in nz[0])
                    b = bounds[(r1, r2)]
                    assert b.lower - 1e-12 <= a[r1, r2] <= b.upper + 1e-12
                    axis_checked += 1
    assert n_total == 10000
    assert axis_checked > 100
    announce(f"criterion 2 (feasible-A sampler): PASS 10000 samples, "
             f"row-sum dev {worst_row_dev:.1e}, {identity_locked} identity-locked, "
             f"{axis_checked} single-axis samples inside analytic bounds")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_uniqueness_round_trip(announce):
    """Anchored instances test unique; induced nestings are localized."""
    ranks = [2, 3, 5]
    for seed in range(100):
        rank = ranks[seed % 3]
        _, gt = generate(rank + 9, rank + 7, rank, anchors=True, seed=seed)
        report = check_uniqueness(gt.pair)
        assert report.unique
        assert report.violations == ()

    detected = 0
    rng = np.random.default_rng(303)
    for case in range(100):
        rank = ranks[case % 3]
        _, gt = generate(rank + 9, rank + 7, rank, anchors=True,
                         seed=5000 + case)
        r1 = int(rng.integers(rank))
        r2 = int((r1 + 1 + rng.integers(rank - 1)) % rank)
        w, h = gt.w.copy(), gt.h.copy()
        if case % 2 == 0:
            w[:, r1] = 0.5 * w[:, r2]
            w[int(np.flatnonzero(w[:, r1])[0]), r1] = 0.0
            expected = Violation(ViolationKind.W_SUBSET, r1, r2)
        else:
            h[r1, :] = 0.7 * h[r2, :]
            h[r1, int(np.flatnonzero(h[r1])[0])] = 0.0
            expected = Violation(ViolationKind.H_SUBSET, r1, r2)
        report = check_uniqueness(
            FactorPair(w=w, h=h, orientation=gt.orientation))
        assert not report.unique
        assert expected in report.violations
        detected += 1
    assert detected == 100
    announce("criterion 3 (uniqueness round-trip): PASS 100 anchored seeds "
             "unique, 100/100 induced violations located")


# --------------------------------------------------------------- criterion 4


def grid_axis_interval(w, h, r1, r2, lo, hi, res=1e-3):
    # Brute-force scan of the one-parameter mixing family: keep the grid
    # values where W A and inv(A) H both stay non-negative.
    rank = w.shape[1]
    ks = np.arange(int(np.floor(lo / res)), int(np.ceil(hi / res)) + 1)
    vals = ks * res
    mats = np.tile(np.eye(rank), (vals.size, 1, 1))
    mats[:, r1, r2] = vals
    mats[:, r1, r1] = 1.0 - vals
    keep = np.abs(np.linalg.det(mats)) > 1e-12
    mixed_w = np.einsum("ir,krs->kis", w, mats)
    mixed_h = np.linalg.solve(mats[keep], np.broadcast_to(
        h, (int(keep.sum()),) + h.shape))
    ok = np.full(vals.size, False)
    ok[keep] = mixed_h.min(axis=(1, 2)) >= -1e-12
    ok &= mixed_w.min(axis=(1, 2)) >= -1e-12
    feas = vals[ok]
    return float(feas.min()), float(feas.max())


def test_criterion_4_axis_bounds_against_grid(announce):
    """Closed-form intervals match a 1e-3 grid scan on 50 rank-2 instances."""
    pair = FactorPair(w=np.array([[0.7, 0.3], [0.4, 0.6]]),
                      h=np.array([[0.6, 0.4], [0.2, 0.8]]),
                      orientation=Orientation.BOTH)
    b01 = natural_bounds(pair)[0]
    assert b01.lower == pytest.approx(-3.0 / 7.0, abs=1e-12)
    assert b01.upper == pytest.approx(0.5, abs=1e-12)

    rng = np.random.default_rng(404)
    worst = 0.0
    for inst in range(50):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(4, 9))
        w = rng.dirichlet(np.ones(2), size=n)
        h = rng.dirichlet(np.ones(m), size=2)
        p = FactorPair(w=w, h=h, orientation=Orientation.BOTH)
        for b in natural_bounds(p):
            lo, hi = grid_axis_interval(w, h, b.r1, b.r2,
                                        b.lower - 0.05, b.upper + 0.05)
            worst = max(worst, abs(lo - b.lower), abs(hi - b.upper))
            assert abs(lo - b.lower) <= 1.5e-3
            assert abs(hi - b.upper) <= 1.5e-3
    announce(f"criterion 4 (rank-2 interval grid check): PASS worked example "
             f"exact, 50 instances within {worst:.1e} of the 1e-3 grid")


# --------------------------------------------------------------- criterion 5


def test_criterion_5_noiseless_recovery(announce):
    """200x30 rank-4 anchored instances recover H in >= 90% of 20 seeds."""
    start = time.monotonic()
    hits = 0
    traced = exact = 0
    errs = []
    for seed in range(20):
        x, gt = generate(200, 30, 4, anchors=True, noise_sigma=0.0,
                         orientation=Orientation.W_ROWS_SUM_TO_1,
                         seed=100 + seed)
        cfg = SolverConfig(rank=4, orientation=Orientation.W_ROWS_SUM_TO_1,
                           restarts=5, seed=0)
        res = factorize(x, cfg)
        _, err = align_and_score(res.factors.h, gt.h)
        errs.append(err)
        hits += err < 1e-2
        # The trace is [objective], and the objective is the residual of
        # the returned factors, bit for bit.
        traced += res.objective_trace == [res.objective]
        exact += res.objective == frobenius_norm(x - res.factors.w @ res.factors.h)
    elapsed = time.monotonic() - start
    assert hits >= 18
    assert traced == 20 and exact == 20
    assert elapsed < 120.0
    announce(f"criterion 5 (noiseless recovery): PASS {hits}/20 seeds below "
             f"1e-2 (median err {np.median(errs):.1e}), 20/20 traces [objective], "
             f"20/20 objectives the returned factors' residual bitwise, "
             f"{elapsed:.1f} s")


# --------------------------------------------------------------- criterion 6


def test_criterion_6_noisy_consistency(announce):
    """Errors shrink with N and the averaging diagnostic scales as 1/sqrt(N)."""
    sigma = 0.01
    sizes = (250, 1000, 4000)
    med_err = {}
    med_diag = {}
    for n in sizes:
        errs, diags = [], []
        for seed in range(10):
            x, gt = generate(n, 30, 4, anchors=True, noise_sigma=sigma,
                             orientation=Orientation.W_ROWS_SUM_TO_1,
                             seed=700 + seed)
            cfg = SolverConfig(rank=4,
                               orientation=Orientation.W_ROWS_SUM_TO_1,
                               restarts=3, seed=0, mode=Mode.PROJECTED)
            res = factorize(x, cfg)
            _, err = align_and_score(res.factors.h, gt.h)
            errs.append(err)
            diags.append(average_consistency_diagnostic(x, gt.pair))
        med_err[n] = float(np.median(errs))
        med_diag[n] = float(np.median(diags))
    assert med_err[250] >= med_err[1000] >= med_err[4000]
    # diagnostic * sqrt(N) should be flat; a factor-3 spread is allowed
    scaled = [med_diag[n] * np.sqrt(n) for n in sizes]
    assert max(scaled) / min(scaled) <= 3.0
    announce(f"criterion 6 (noisy consistency): PASS median err "
             f"{med_err[250]:.1e} -> {med_err[1000]:.1e} -> {med_err[4000]:.1e}, "
             f"diag*sqrt(N) spread x{max(scaled)/min(scaled):.2f}")


# --------------------------------------------------------------- criterion 7


def test_criterion_7_image_compression_pipeline(announce):
    """2400 synthetic images: downsample, fit R=10, reconstruct, retrieve."""
    x19, gt = generate(2400, 361, 10, anchors=True, noise_sigma=0.02,
                       orientation=Orientation.W_ROWS_SUM_TO_1, seed=7)

    def shrink(row):
        return downsample_2x2(GrayImage(pixels=row.reshape(19, 19))).flatten()

    x9 = np.stack([shrink(row) for row in x19])
    h9 = np.stack([shrink(row) for row in gt.h])
    assert x9.shape == (2400, 81)
    assert h9.size == 810
    noise_floor = float(np.mean((x9 - gt.w @ h9) ** 2))

    cfg = SolverConfig(rank=10, orientation=Orientation.W_ROWS_SUM_TO_1,
                       restarts=3, seed=0, mode=Mode.PROJECTED)
    res = factorize(x9, cfg, threads=3)
    err = reconstruction_error(x9, res.factors)
    assert err < 5.0 * noise_floor

    hit = 0
    for i in range(2400):
        idx, _ = retrieve(GrayImage(pixels=x9[i].reshape(9, 9)), res.factors)
        hit += idx == i
    rate = hit / 2400.0
    assert rate >= 0.95
    announce(f"criterion 7 (image pipeline): PASS reconstruction error "
             f"{err:.2e} vs noise floor {noise_floor:.2e} "
             f"(x{err / noise_floor:.2f} < 5), retrieval {rate:.1%}")


# --------------------------------------------------------------- criterion 8


def test_criterion_8_topic_pipeline(announce):
    """5000-document block-anchored corpus: stochastic H, anchors on top."""
    rng = np.random.default_rng(8)
    n_topics, terms_per, n_docs = 20, 18, 5000
    n_terms = n_topics * terms_per
    vocab = ["w" + chr(97 + b) + chr(97 + t)
             for b in range(n_topics) for t in range(terms_per)]
    anchor_terms = {vocab[b * terms_per] for b in range(n_topics)}

    h_true = np.zeros((n_topics, n_terms))
    for r in range(n_topics):
        block = slice(r * terms_per, (r + 1) * terms_per)
        p = rng.dirichlet(np.ones(terms_per))
        p = 0.7 * p / p.sum()
        p[0] += 0.3
        h_true[r, block] = p
    w_true = rng.dirichlet(np.ones(n_topics), size=n_docs)
    w_true[:n_topics] = np.eye(n_topics)
    probs = w_true @ h_true
    counts = np.zeros((n_docs, n_terms))
    for i in range(n_docs):
        counts[i] = rng.multinomial(int(rng.integers(80, 200)), probs[i])
    corpus = Corpus(vocabulary=tuple(vocab), doc_term=counts,
                    doc_ids=tuple(str(i) for i in range(n_docs)))

    cfg = SolverConfig(rank=n_topics, orientation=Orientation.BOTH,
                       restarts=2, seed=0, mode=Mode.PROJECTED)
    model = fit_topics(corpus, cfg)
    h = model.factors.h
    row_dev = float(np.max(np.abs(h.sum(axis=1) - 1.0)))
    assert row_dev <= 1e-3

    ranked = top_terms(model, 3)
    tops = [ranked[r][0][0] for r in range(n_topics)]
    assert all(t in anchor_terms for t in tops)
    assert len(set(tops)) == n_topics

    report = analysis_report(model.factors, zero_tol=1e-6)
    max_width = report["summary"]["max_width"]
    assert max_width < 0.01
    announce(f"criterion 8 (topic pipeline): PASS H row-sum dev {row_dev:.1e}, "
             f"20/20 anchor terms ranked first, max interval width "
             f"{max_width:.1e}")


# --------------------------------------------------------------- criterion 9


def test_criterion_9_cli_rerun_bitwise(announce, tmp_path):
    """rerun reproduces every artifact byte for byte from the manifest."""
    x, _ = generate(30, 10, 3, anchors=True, seed=9,
                    orientation=Orientation.W_ROWS_SUM_TO_1)
    x_path = tmp_path / "X.csv"
    write_matrix_csv(x_path, x)
    run1 = tmp_path / "run1"
    assert cli_main(["factorize", str(x_path), "--rank", "3",
                     "--restarts", "3", "--out-dir", str(run1)]) == EXIT_OK
    run2 = tmp_path / "run2"
    assert cli_main(["rerun", str(run1 / "manifest.json"),
                     "--out-dir", str(run2)]) == EXIT_OK
    artifacts = ["W.csv", "H.csv", "result.json"]
    for name in artifacts:
        assert (run1 / name).read_bytes() == (run2 / name).read_bytes()

    w_est = read_matrix(run1 / "W.csv")
    h_est = read_matrix(run1 / "H.csv")
    wa_path = tmp_path / "Wa.csv"
    ha_path = tmp_path / "Ha.csv"
    write_matrix_csv(wa_path, w_est)
    write_matrix_csv(ha_path, h_est)
    an1 = tmp_path / "an1"
    assert cli_main(["analyze", str(wa_path), str(ha_path), "--samples",
                     "500", "--out-dir", str(an1)]) == EXIT_OK
    an2 = tmp_path / "an2"
    assert cli_main(["rerun", str(an1 / "manifest.json"),
                     "--out-dir", str(an2)]) == EXIT_OK
    assert (an1 / "report.json").read_bytes() == (an2 / "report.json").read_bytes()
    announce("criterion 9 (CLI rerun): PASS factorize and analyze artifacts "
             "reproduced bitwise from their manifests")
