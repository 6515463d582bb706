"""Unit tests for the factor-pair container."""

import numpy as np
import pytest

from smf import (FactorPair, Orientation, average_consistency_diagnostic,
                 reconstruction_error)
from smf.linalg import pseudoinverse


def test_orientation_flags():
    assert Orientation.W_ROWS_SUM_TO_1.w_stochastic
    assert not Orientation.W_ROWS_SUM_TO_1.h_stochastic
    assert not Orientation.H_ROWS_SUM_TO_1.w_stochastic
    assert Orientation.H_ROWS_SUM_TO_1.h_stochastic
    assert Orientation.BOTH.w_stochastic
    assert Orientation.BOTH.h_stochastic


def test_orientation_values_are_cli_names():
    assert {o.value for o in Orientation} == {"w-rows", "h-rows", "both"}


def test_factor_pair_basic():
    pair = FactorPair(w=np.eye(2), h=np.array([[0.5, 0.5], [1.0, 0.0]]),
                      orientation=Orientation.BOTH)
    assert pair.rank == 2
    assert pair.max_violation() == 0.0


def test_factor_pair_shape_checks():
    with pytest.raises(ValueError):
        FactorPair(w=np.ones((3, 2)), h=np.ones((3, 4)),
                   orientation=Orientation.BOTH)
    with pytest.raises(ValueError):
        FactorPair(w=np.ones(3), h=np.ones((3, 4)),
                   orientation=Orientation.BOTH)
    with pytest.raises(ValueError):
        FactorPair(w=np.array([[np.nan, 1.0]]), h=np.ones((2, 2)),
                   orientation=Orientation.BOTH)
    with pytest.raises(ValueError, match="rank must be at least 1"):
        FactorPair(w=np.ones((3, 0)), h=np.ones((0, 4)),
                   orientation=Orientation.BOTH)


def test_max_violation_reports_worst_gap():
    # Negative entry of magnitude 0.2 dominates the 0.1 row-sum gap.
    w = np.array([[1.1, -0.2]])
    h = np.ones((2, 3))
    pair = FactorPair(w=w, h=h, orientation=Orientation.W_ROWS_SUM_TO_1)
    assert pair.max_violation() == pytest.approx(0.2)


def test_max_violation_respects_orientation():
    w = np.array([[0.7, 0.7]])
    h = np.array([[0.5, 0.5], [0.25, 0.75]])
    # H rows already sum to 1, so only W's row sum can be in violation.
    assert FactorPair(w=w, h=h, orientation=Orientation.H_ROWS_SUM_TO_1
                      ).max_violation() == pytest.approx(0.0)
    assert FactorPair(w=w, h=h, orientation=Orientation.W_ROWS_SUM_TO_1
                      ).max_violation() == pytest.approx(0.4)
    assert FactorPair(w=w, h=h, orientation=Orientation.BOTH
                      ).max_violation() == pytest.approx(0.4)


def test_factor_pair_coerces_to_float64():
    pair = FactorPair(w=np.eye(2, dtype=np.int64),
                      h=np.eye(2, dtype=np.float32),
                      orientation=Orientation.BOTH)
    assert pair.w.dtype == np.float64
    assert pair.h.dtype == np.float64


def test_factor_pair_arrays_are_read_only():
    w = np.eye(2)
    h = np.array([[0.5, 0.5], [1.0, 0.0]])
    pair = FactorPair(w=w, h=h, orientation=Orientation.BOTH)
    with pytest.raises(ValueError):
        pair.w[0, 0] = 0.5
    with pytest.raises(ValueError):
        pair.h[0, 0] = 0.5
    # The caller's arrays were copied, not frozen in place.
    w[0, 0] = 0.5
    h[0, 0] = 0.25
    assert pair.w[0, 0] == 1.0 and pair.h[0, 0] == 0.5
    # A read-only float64 array is copied too: the new pair shares no
    # memory with the one it came from.
    again = FactorPair(w=w, h=pair.h, orientation=Orientation.BOTH)
    assert not np.shares_memory(again.h, pair.h)
    assert again.h.tobytes() == pair.h.tobytes()


def test_factor_pair_copies_a_read_only_view_of_a_writeable_array():
    # The view is read-only, but its buffer is not: a later write to the
    # buffer must not reach the pair or the search cache built from it.
    buf = np.eye(2)
    view = buf[:]
    view.setflags(write=False)
    pair = FactorPair(w=view, h=np.eye(2), orientation=Orientation.BOTH)
    assert not np.shares_memory(pair.w, buf)
    wt, c, max_sq = pair.w_search
    buf[:] = 7.0
    assert np.array_equal(pair.w, np.eye(2)) and np.array_equal(wt, np.eye(2))
    assert np.array_equal(c, [-0.5, -0.5]) and max_sq == 1.0


def test_factor_pair_copies_a_read_only_owner():
    # An array that owns its memory can have writing switched back on; a
    # later write must not reach the pair or the caches built from it.
    w = np.eye(2)
    h = np.array([[0.5, 0.5], [1.0, 0.0]])
    w.setflags(write=False)
    h.setflags(write=False)
    pair = FactorPair(w=w, h=h, orientation=Orientation.BOTH)
    assert not np.shares_memory(pair.w, w) and not np.shares_memory(pair.h, h)
    wt, c, max_sq = pair.w_search
    h_pinv = pair.h_pinv.copy()
    for a in (w, h):
        a.setflags(write=True)
        a[:] = 7.0
    assert np.array_equal(pair.w, np.eye(2)) and np.array_equal(wt, np.eye(2))
    assert np.array_equal(pair.h, [[0.5, 0.5], [1.0, 0.0]])
    assert np.array_equal(pair.h_pinv, h_pinv)


def test_h_pinv_is_cached_and_matches_pseudoinverse():
    h = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
    pair = FactorPair(w=np.eye(2), h=h, orientation=Orientation.BOTH)
    assert pair.h_pinv is pair.h_pinv
    assert np.array_equal(pair.h_pinv, pseudoinverse(h))
    assert not pair.h_pinv.flags.writeable


@pytest.mark.blas_threads
def test_w_search_is_cached_and_holds_w_transposed_and_halved_row_norms():
    w = np.array([[0.5, 0.5], [1.0, 0.0], [-0.25, 1.5]])
    pair = FactorPair(w=w, h=np.eye(2), orientation=Orientation.W_ROWS_SUM_TO_1)
    wt, c, max_sq = pair.w_search
    assert pair.w_search is pair.w_search
    assert wt.shape == (2, 3) and c.shape == (3,)
    assert wt.flags.c_contiguous and c.flags.c_contiguous
    assert not wt.flags.writeable and not c.flags.writeable
    # One buffer of n (rank + 1) floats holds both.
    assert wt.base is c.base and wt.base.nbytes == 8 * 3 * (2 + 1)
    assert np.array_equal(wt, w.T)
    assert np.array_equal(c, [-0.25, -0.5, -1.15625])
    assert max_sq == 2.3125


@pytest.mark.parametrize("measure", [reconstruction_error,
                                     average_consistency_diagnostic])
def test_data_matrix_must_match_the_factors_shape(measure):
    pair = FactorPair(w=np.full((3, 2), 0.5), h=np.eye(2),
                      orientation=Orientation.W_ROWS_SUM_TO_1)
    assert measure([[0.5, 0.5]] * 3, pair) == 0.0
    with pytest.raises(ValueError, match="X must be 2-dimensional"):
        measure(np.zeros(6), pair)
    with pytest.raises(ValueError, match=r"X shape \(2, 3\) does not match "
                                         r"factors \(3, 2\)"):
        measure(np.zeros((2, 3)), pair)
