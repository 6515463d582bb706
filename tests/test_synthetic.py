"""Unit tests for the synthetic instance generator and alignment scoring."""

import itertools

import numpy as np
import pytest

from smf import (
    InvalidInputError,
    Orientation,
    align_and_score,
    check_uniqueness,
    generate,
)


def test_generate_shapes_and_reconstruction():
    x, gt = generate(12, 9, 3, anchors=True, seed=0)
    assert x.shape == (12, 9)
    assert gt.w.shape == (12, 3)
    assert gt.h.shape == (3, 9)
    assert np.allclose(x, gt.w @ gt.h, atol=1e-12)


def test_generate_is_deterministic():
    x1, gt1 = generate(10, 8, 2, seed=5)
    x2, gt2 = generate(10, 8, 2, seed=5)
    assert np.array_equal(x1, x2)
    assert np.array_equal(gt1.w, gt2.w)
    assert np.array_equal(gt1.h, gt2.h)
    x3, _ = generate(10, 8, 2, seed=6)
    assert not np.array_equal(x1, x3)


@pytest.mark.parametrize("orientation", list(Orientation))
def test_generate_respects_orientation(orientation):
    _, gt = generate(15, 10, 3, orientation=orientation, seed=1)
    assert gt.pair.max_violation() < 1e-12
    if orientation.w_stochastic:
        assert np.allclose(gt.w.sum(axis=1), 1.0, atol=1e-12)
    if orientation.h_stochastic:
        assert np.allclose(gt.h.sum(axis=1), 1.0, atol=1e-12)
    else:
        assert gt.h.max() <= 1.0
    assert gt.w.min() >= 0.0
    assert gt.h.min() >= 0.0


def test_generate_anchor_structure():
    _, gt = generate(14, 11, 4, anchors=True, seed=2)
    assert np.array_equal(gt.w[:4], np.eye(4))
    # each of the first 4 columns of H is supported on exactly one factor
    for j in range(4):
        assert np.count_nonzero(gt.h[:, j]) == 1
    assert check_uniqueness(gt.pair).unique


def test_generate_without_anchors():
    _, gt = generate(14, 11, 4, anchors=False, seed=3)
    assert not np.array_equal(gt.w[:4], np.eye(4))


def test_generate_noise_perturbs_but_preserves_feasibility():
    x0, gt = generate(20, 10, 3, noise_sigma=0.0, seed=4,
                      orientation=Orientation.W_ROWS_SUM_TO_1)
    x1, _ = generate(20, 10, 3, noise_sigma=0.05, seed=4,
                     orientation=Orientation.W_ROWS_SUM_TO_1)
    assert not np.array_equal(x0, x1)
    assert x1.min() >= 0.0
    dev = np.abs(x1 - x0)
    assert dev.max() < 0.5
    assert dev.mean() > 0.01


def test_generate_noise_keeps_stochastic_x_rows():
    x, _ = generate(20, 10, 3, noise_sigma=0.05, seed=5,
                    orientation=Orientation.BOTH)
    assert np.allclose(x.sum(axis=1), 1.0, atol=1e-12)
    assert x.min() >= 0.0


def test_generate_validates_arguments():
    with pytest.raises(InvalidInputError):
        generate(5, 5, 0, seed=0)
    with pytest.raises(InvalidInputError):
        generate(3, 10, 3, seed=0)
    with pytest.raises(InvalidInputError):
        generate(10, 3, 3, seed=0)
    with pytest.raises(InvalidInputError):
        generate(10, 10, 2, noise_sigma=-0.1, seed=0)


# ---------------------------------------------------------------- alignment


def test_align_identity():
    _, gt = generate(10, 8, 3, seed=7)
    perm, err = align_and_score(gt.h, gt.h)
    assert np.array_equal(perm, [0, 1, 2])
    assert err == 0.0


def test_align_recovers_permutation():
    _, gt = generate(10, 8, 4, seed=8)
    shuffle = np.array([2, 0, 3, 1])
    perm, err = align_and_score(gt.h[shuffle], gt.h)
    assert err < 1e-14
    assert np.array_equal(gt.h[shuffle][perm], gt.h)


def test_align_error_value():
    h_true = np.array([[1.0, 0.0], [0.0, 1.0]])
    h_est = np.array([[0.0, 1.0], [0.6, 0.4]])
    # best match flips the rows; the remaining gap is ||(0.6,0.4)-(1,0)||_F
    # over ||h_true||_F = sqrt(0.32) / sqrt(2)
    perm, err = align_and_score(h_est, h_true)
    assert np.array_equal(perm, [1, 0])
    assert err == pytest.approx(np.sqrt(0.32 / 2.0), rel=1e-12)


def test_align_rejects_a_zero_reference():
    with pytest.raises(ValueError, match="identically zero"):
        align_and_score(np.eye(2), np.zeros((2, 2)))


def exhaustive_align_cost(h_est, h_true):
    rank = h_est.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(rank)):
        cost = np.linalg.norm(h_est[list(perm)] - h_true)
        best = min(best, cost)
    return best / np.linalg.norm(h_true)


def test_align_matches_exhaustive_search():
    rng = np.random.default_rng(9)
    for trial in range(20):
        rank = int(rng.integers(2, 6))
        h_true = rng.random((rank, 7))
        h_est = h_true[rng.permutation(rank)] + rng.normal(0, 0.2, (rank, 7))
        _, err = align_and_score(h_est, h_true)
        assert err == pytest.approx(exhaustive_align_cost(h_est, h_true),
                                    rel=1e-10)


def test_align_large_rank_uses_assignment():
    # a pure permutation at rank 10 must still be matched exactly.
    rng = np.random.default_rng(10)
    h_true = rng.random((10, 12))
    shuffle = rng.permutation(10)
    perm, err = align_and_score(h_true[shuffle], h_true)
    assert err < 1e-14


def test_align_shape_mismatch():
    with pytest.raises(ValueError):
        align_and_score(np.ones((2, 3)), np.ones((3, 2)))
