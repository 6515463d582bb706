"""Unit tests for the uniqueness and feasible-interval analysis."""

import numpy as np
import pytest

from smf import (
    AxisBound,
    Corpus,
    DegenerateFactorError,
    FactorPair,
    MixingMatrix,
    Orientation,
    SolverConfig,
    UniquenessReport,
    Violation,
    ViolationKind,
    analysis_report,
    average_consistency_diagnostic,
    check_uniqueness,
    factorize,
    fit_topics,
    generate,
    natural_bounds,
    pseudoinverse,
    sample_feasible_A,
    support_sets,
)
from smf.identify import (DEFAULT_ZERO_TOL_ESTIMATED, _is_feasible, _screens,
                          _widths_histogram)

WORKED_W = np.array([[0.7, 0.3], [0.4, 0.6]])
WORKED_H = np.array([[0.6, 0.4], [0.2, 0.8]])


def pair(w, h, orientation=Orientation.BOTH):
    return FactorPair(w=np.asarray(w, dtype=float),
                      h=np.asarray(h, dtype=float), orientation=orientation)


def anchored_pair(seed=0, rank=3):
    _, gt = generate(rank + 10, rank + 6, rank, anchors=True, seed=seed)
    return gt.pair


# ------------------------------------------------------------------ support


def test_support_sets_example():
    w = [[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]
    h = [[0.0, 1.0, 0.0], [0.2, 0.3, 0.5]]
    sets = support_sets(pair(w, h))
    assert sets.w_support == (frozenset({0, 1}), frozenset({1, 2}))
    assert sets.h_support == (frozenset({1}), frozenset({0, 1, 2}))


def test_support_threshold_is_strict():
    w = [[1e-6, 1.0], [1.0, 1e-6]]
    h = np.eye(2)
    sets = support_sets(pair(w, h), zero_tol=1e-6)
    # Entries exactly at zero_tol count as zeros.
    assert sets.w_support == (frozenset({1}), frozenset({0}))
    sets0 = support_sets(pair(w, h), zero_tol=0.0)
    assert sets0.w_support == (frozenset({0, 1}), frozenset({0, 1}))
    with pytest.raises(ValueError):
        support_sets(pair(w, h), zero_tol=-1.0)


# --------------------------------------------------------------- uniqueness


def test_anchored_instance_is_unique():
    report = check_uniqueness(anchored_pair(seed=1))
    assert report.unique
    assert report.violations == ()
    # The generator puts one anchor row and one anchor column on each factor.
    for r in range(3):
        assert r in report.anchor_rows[r]
        assert r in report.anchor_cols[r]


def test_uniqueness_report_flag_must_match_its_violations():
    v = Violation(ViolationKind.W_SUBSET, 0, 1)
    for unique, violations in ((True, (v,)), (False, ())):
        with pytest.raises(ValueError, match="unique flag"):
            UniquenessReport(unique=unique, violations=violations,
                             anchor_rows={}, anchor_cols={})


def test_nested_h_support_is_flagged():
    p = anchored_pair(seed=2)
    h = p.h.copy()
    h[0] = 0.5 * h[1]
    h[0, 0] = 0.0
    report = check_uniqueness(FactorPair(w=p.w, h=h, orientation=p.orientation))
    assert not report.unique
    assert Violation(ViolationKind.H_SUBSET, 0, 1) in report.violations


def test_nested_w_support_is_flagged():
    p = anchored_pair(seed=3)
    w = p.w.copy()
    w[:, 2] = 0.4 * w[:, 1]
    w[0, 2] = 0.0
    report = check_uniqueness(FactorPair(w=w, h=p.h, orientation=p.orientation))
    assert Violation(ViolationKind.W_SUBSET, 2, 1) in report.violations


def test_equal_supports_violate_both_directions():
    w = [[0.5, 0.5], [0.4, 0.6], [0.3, 0.7]]
    h = [[0.6, 0.4], [0.2, 0.8]]
    report = check_uniqueness(pair(w, h))
    kinds = {(v.kind, v.r1, v.r2) for v in report.violations}
    assert (ViolationKind.W_SUBSET, 0, 1) in kinds
    assert (ViolationKind.W_SUBSET, 1, 0) in kinds
    assert (ViolationKind.H_SUBSET, 0, 1) in kinds
    assert (ViolationKind.H_SUBSET, 1, 0) in kinds


def test_empty_support_is_contained_everywhere():
    w = [[1.0, 0.0], [1.0, 0.0]]
    h = [[0.5, 0.5], [0.3, 0.7]]
    report = check_uniqueness(pair(w, h))
    assert Violation(ViolationKind.W_SUBSET, 1, 0) in report.violations


def test_uniqueness_is_permutation_invariant():
    p = anchored_pair(seed=4)
    perm = [2, 0, 1]
    swapped = FactorPair(w=p.w[:, perm], h=p.h[perm, :],
                         orientation=p.orientation)
    assert check_uniqueness(swapped).unique == check_uniqueness(p).unique


def test_anchor_maps_cover_all_factors():
    report = check_uniqueness(anchored_pair(seed=5, rank=4))
    assert set(report.anchor_rows) == {0, 1, 2, 3}
    assert set(report.anchor_cols) == {0, 1, 2, 3}


def test_an_entry_below_minus_zero_tol_is_refused():
    # W = [[1, -0.5], [0, 1]] would read as nested under |x| > 0 and as
    # pinned under x > 0: a factor the analysis cannot interpret.
    w = [[1.0, -0.5], [0.0, 1.0]]
    h = np.eye(2)
    for call in (support_sets, check_uniqueness, natural_bounds, analysis_report):
        with pytest.raises(ValueError, match=r"W\[0, 1\] = -0.5 lies below -zero_tol"):
            call(pair(w, h))
        with pytest.raises(ValueError, match=r"H\[1, 0\] = -0.2 lies below"):
            call(pair(np.eye(2), [[1.0, 0.0], [-0.2, 1.0]]), zero_tol=0.1)
    # The zero_tol check still comes first.
    with pytest.raises(ValueError, match="zero_tol must be non-negative"):
        support_sets(pair(w, h), zero_tol=-1.0)


@pytest.mark.parametrize("zero_tol", [np.nan, np.inf, -1.0])
def test_bounds_refuse_a_zero_tol_that_is_negative_or_not_finite(zero_tol):
    # An infinite zero_tol would empty every support, which would read as a
    # degenerate factor, and nan would make no entry a zero.
    with pytest.raises(ValueError, match="zero_tol must be non-negative and finite"):
        natural_bounds(pair(WORKED_W, WORKED_H), zero_tol=zero_tol)


def test_an_entry_within_zero_tol_below_zero_counts_as_zero():
    w = [[1.0, -1e-7], [1e-7, 1.0]]
    h = [[0.6, 0.4, -1e-7], [0.0, 0.5, 0.5]]
    p = pair(w, h)
    sets = support_sets(p, zero_tol=1e-6)
    assert sets.w_support == (frozenset({0}), frozenset({1}))
    assert sets.h_support == (frozenset({0, 1}), frozenset({1, 2}))
    report = check_uniqueness(p, zero_tol=1e-6)
    assert report.unique
    assert report.anchor_rows == {0: [0], 1: [1]}
    assert report.anchor_cols == {0: [0], 1: [2]}
    bounds = natural_bounds(p, zero_tol=1e-6)
    assert [(b.lower, b.upper) for b in bounds] == [(0.0, 0.0), (0.0, 0.0)]


def reference_analysis(w, h, zero_tol):
    """support_sets, check_uniqueness and natural_bounds (or its error) of
    non-negative factors, by frozensets and scalar loops."""
    rank = w.shape[1]
    w_sup = tuple(frozenset(i for i in range(w.shape[0]) if w[i, r] > zero_tol)
                  for r in range(rank))
    h_sup = tuple(frozenset(j for j in range(h.shape[1]) if h[r, j] > zero_tol)
                  for r in range(rank))
    violations = []
    for r1 in range(rank):
        for r2 in range(rank):
            if r1 != r2 and w_sup[r1] <= w_sup[r2]:
                violations.append(Violation(ViolationKind.W_SUBSET, r1, r2))
            if r1 != r2 and h_sup[r1] <= h_sup[r2]:
                violations.append(Violation(ViolationKind.H_SUBSET, r1, r2))
    rows = {r: [i for i in range(w.shape[0]) if w_sup[r] >= {i}
                and sum(i in s for s in w_sup) == 1] for r in range(rank)}
    cols = {r: [j for j in range(h.shape[1]) if h_sup[r] >= {j}
                and sum(j in s for s in h_sup) == 1] for r in range(rank)}
    for r in range(rank):
        for side, sup in (("W", w_sup), ("H", h_sup)):
            if not sup[r]:
                empty = f"factor {r} has empty support in {side}"
                return w_sup, h_sup, violations, rows, cols, empty
    bounds = []
    for r1 in range(rank):
        for r2 in range(rank):
            if r1 != r2:
                lower = -min((w[i, r2] if i in w_sup[r2] else 0.0) / w[i, r1]
                             for i in w_sup[r1])
                upper = min((h[r1, j] if j in h_sup[r1] else 0.0) / h[r2, j]
                            for j in h_sup[r2])
                bounds.append((r1, r2, float(lower), float(upper)))
    return w_sup, h_sup, violations, rows, cols, bounds


def random_supported_pair(rng):
    # Non-negative factors with 40% zeros, entries near the 0.05 threshold,
    # and at times a support copied from another factor (equal supports).
    rank = int(rng.integers(1, 6))
    n, m = (int(v) for v in rng.integers(1, 9, size=2))
    w = rng.choice([0.0, 0.03, 0.05, 0.2, 0.7], size=(n, rank),
                   p=[0.4, 0.1, 0.1, 0.2, 0.2]) * rng.uniform(0.5, 1.5, size=(n, rank))
    h = rng.choice([0.0, 0.04, 0.05, 0.3, 1.0], size=(rank, m),
                   p=[0.4, 0.1, 0.1, 0.2, 0.2]) * rng.uniform(0.5, 1.5, size=(rank, m))
    w[rng.random(w.shape) < 0.1] = 0.05
    if rank > 1 and rng.random() < 0.3:
        w[:, 1] = np.where(w[:, 0] > 0.05, 0.5, 0.0)
        h[1] = np.where(h[0] > 0.05, 0.5, 0.0)
    return pair(w, h)


def test_support_verdict_and_bounds_match_the_loop_reference():
    rng = np.random.default_rng(20)
    seen = {"empty": 0, "equal": 0, "rank-1": 0, "bounds": 0}
    for _ in range(600):
        p = random_supported_pair(rng)
        for zero_tol in (0.0, 0.05):
            w_sup, h_sup, violations, rows, cols, bounds = reference_analysis(
                p.w, p.h, zero_tol)
            sets = support_sets(p, zero_tol)
            assert (sets.w_support, sets.h_support) == (w_sup, h_sup)
            report = check_uniqueness(p, zero_tol)
            assert report.violations == tuple(violations)
            assert (report.anchor_rows, report.anchor_cols) == (rows, cols)
            if isinstance(bounds, str):
                with pytest.raises(DegenerateFactorError, match=bounds):
                    natural_bounds(p, zero_tol)
                seen["empty"] += 1
            else:
                got = natural_bounds(p, zero_tol)
                assert [(b.r1, b.r2, b.lower, b.upper) for b in got] == bounds
                seen["bounds"] += 1
            seen["equal"] += len(set(w_sup)) < len(w_sup)
            seen["rank-1"] += p.rank == 1
    assert min(seen.values()) >= 20, seen


def test_widths_histogram_matches_the_slot_loop():
    edges = (0.0, 0.001, 0.01, 0.02, 1.0)
    widths = [0.0, 5e-4, 0.001, 0.005, 0.01, 0.0199, 0.02, 0.5, 1.0, 3.0, np.inf]
    counts = [0] * len(edges)
    for width in widths:
        slot = next((k for k in range(len(edges) - 1)
                     if edges[k] <= width < edges[k + 1]), len(edges) - 1)
        counts[slot] += 1
    assert _widths_histogram(widths) == {"edges": list(edges), "counts": counts}
    assert _widths_histogram([]) == {"edges": list(edges), "counts": [0] * 5}


# ------------------------------------------------------------------- bounds


def test_worked_example_intervals():
    bounds = natural_bounds(pair(WORKED_W, WORKED_H))
    assert [(b.r1, b.r2) for b in bounds] == [(0, 1), (1, 0)]
    b01, b10 = bounds
    assert b01.lower == pytest.approx(-3.0 / 7.0, abs=1e-12)
    assert b01.upper == pytest.approx(0.5, abs=1e-12)
    assert b10.lower == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert b10.upper == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert b01.width == pytest.approx(0.5 + 3.0 / 7.0, abs=1e-12)


def test_anchored_bounds_are_pinned():
    bounds = natural_bounds(anchored_pair(seed=6))
    assert len(bounds) == 6
    for b in bounds:
        assert b.lower == 0.0
        assert b.upper == 0.0
        assert b.width == 0.0


def test_duplicate_structure_bounds():
    # Identical W columns allow swapping a full unit of one factor into the
    # other, so the lower endpoint reaches -1; identical H rows push the
    # upper endpoint to 1.
    w = [[0.5, 0.5], [0.2, 0.2]]
    h = [[0.3, 0.7], [0.3, 0.7]]
    bounds = natural_bounds(pair(w, h))
    for b in bounds:
        assert b.lower == pytest.approx(-1.0, abs=1e-12)
        assert b.upper == pytest.approx(1.0, abs=1e-12)


def test_bounds_zero_tol_masks_tiny_entries():
    w = [[0.7, 0.3], [0.4, 0.6]]
    h = [[1e-8, 0.5, 0.5], [0.4, 0.3, 0.3]]
    upper_exact = natural_bounds(pair(w, h), zero_tol=0.0)[0].upper
    upper_tol = natural_bounds(pair(w, h), zero_tol=1e-6)[0].upper
    assert upper_exact == pytest.approx(2.5e-8, rel=1e-9)
    # With the tolerance the 1e-8 numerator counts as a structural zero.
    assert upper_tol == 0.0


def test_degenerate_factor_raises():
    with pytest.raises(DegenerateFactorError):
        natural_bounds(pair([[1.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(DegenerateFactorError):
        natural_bounds(pair([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.0, 0.0]]))


def test_axis_bound_invariants():
    with pytest.raises(ValueError):
        AxisBound(r1=0, r2=1, lower=0.1, upper=0.5, width=0.4)
    with pytest.raises(ValueError):
        AxisBound(r1=0, r2=1, lower=-0.1, upper=0.5, width=0.7)


def axis_grid_feasible(w, h, r1, r2, lo, hi, res=1e-3):
    """Brute-force feasible interval on one coordinate axis.

    Walks a grid over the single mixing parameter ``a`` (the (r1, r2) entry,
    with the diagonal absorbing the row sum) and keeps the values where both
    mixed factors stay non-negative.  Independent of the closed-form ratio
    computation, so it cross-checks the analytic endpoints to grid
    resolution.
    """
    rank = w.shape[1]
    n_lo = int(np.floor(lo / res))
    n_hi = int(np.ceil(hi / res))
    feas = []
    for k in range(n_lo, n_hi + 1):
        a_val = k * res
        a = np.eye(rank)
        a[r1, r2] = a_val
        a[r1, r1] = 1.0 - a_val
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        mixed_w = w @ a
        mixed_h = np.linalg.solve(a, h)
        if mixed_w.min() >= -1e-12 and mixed_h.min() >= -1e-12:
            feas.append(a_val)
    return min(feas), max(feas)


def test_bounds_match_axis_grid_scan():
    rng = np.random.default_rng(29)
    for trial in range(10):
        w = rng.dirichlet(np.ones(2), size=6)
        h = rng.dirichlet(np.ones(5), size=2)
        p = pair(w, h)
        for b in natural_bounds(p):
            lo, hi = axis_grid_feasible(w, h, b.r1, b.r2,
                                        b.lower - 0.05, b.upper + 0.05)
            assert abs(lo - b.lower) <= 1.5e-3
            assert abs(hi - b.upper) <= 1.5e-3


def test_bounds_match_axis_grid_scan_rank3():
    rng = np.random.default_rng(31)
    w = rng.dirichlet(np.ones(3), size=8)
    h = rng.dirichlet(np.ones(6), size=3)
    p = pair(w, h)
    for b in natural_bounds(p):
        lo, hi = axis_grid_feasible(w, h, b.r1, b.r2,
                                    b.lower - 0.05, b.upper + 0.05)
        assert abs(lo - b.lower) <= 1.5e-3
        assert abs(hi - b.upper) <= 1.5e-3


# ------------------------------------------------------------ mixing matrix


def test_mixing_matrix_validation():
    MixingMatrix(a=np.eye(3))
    with pytest.raises(ValueError, match="square"):
        MixingMatrix(a=np.ones((2, 3)))
    with pytest.raises(ValueError, match="sum to 1"):
        MixingMatrix(a=np.array([[0.5, 0.4], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="invertible"):
        MixingMatrix(a=np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="finite"):
        MixingMatrix(a=np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_mixing_matrix_is_read_only_and_copies_the_caller_array():
    a = np.array([[0.75, 0.25], [0.0, 1.0]])
    m = MixingMatrix(a=a)
    assert m.a.dtype == np.float64
    with pytest.raises(ValueError):
        m.a[0, 0] = 0.5
    # The caller's array was copied, not frozen in place.
    assert a.flags.writeable
    a[0, 0] = 0.5
    assert m.a[0, 0] == 0.75
    # Integer input is converted; a read-only float64 array is copied too.
    assert MixingMatrix(a=np.eye(2, dtype=np.int64)).a.dtype == np.float64
    again = MixingMatrix(a=m.a)
    assert not np.shares_memory(again.a, m.a)
    assert again.a.tobytes() == m.a.tobytes()


# ----------------------------------------------------------------- sampler


@pytest.mark.blas_threads
def test_sampler_returns_exact_count_and_row_sums():
    p = pair(WORKED_W, WORKED_H)
    samples = sample_feasible_A(p, 250, seed=3)
    assert len(samples) == 250
    for m in samples:
        assert np.max(np.abs(m.a.sum(axis=1) - 1.0)) <= 1e-10


@pytest.mark.blas_threads
def test_sampler_stays_feasible():
    p = pair([[0.7, 0.3], [0.4, 0.6], [0.55, 0.45]], WORKED_H)
    for m in sample_feasible_A(p, 500, seed=5):
        assert (p.w @ m.a).min() >= -1e-12
        assert np.linalg.solve(m.a, p.h).min() >= -1e-12


@pytest.mark.blas_threads
def test_sampler_respects_axis_bounds():
    p = pair([[0.7, 0.3], [0.4, 0.6], [0.55, 0.45]], WORKED_H)
    bounds = {(b.r1, b.r2): b for b in natural_bounds(p)}
    moved = 0.0
    for m in sample_feasible_A(p, 2000, seed=5):
        off = [(r1, r2) for r1 in range(2) for r2 in range(2)
               if r1 != r2 and abs(m.a[r1, r2]) > 1e-12]
        if len(off) != 1:
            continue
        r1, r2 = off[0]
        val = m.a[r1, r2]
        b = bounds[(r1, r2)]
        assert b.lower - 1e-12 <= val <= b.upper + 1e-12
        moved = max(moved, abs(val))
    # The walk must actually explore the axis, not just sit at the identity.
    assert moved > 0.05


@pytest.mark.blas_threads
def test_sampler_on_anchored_instance_never_leaves_identity():
    p = anchored_pair(seed=8)
    for m in sample_feasible_A(p, 400, seed=11):
        assert np.array_equal(m.a, np.eye(3))


@pytest.mark.blas_threads
def test_sampler_is_deterministic():
    p = pair(WORKED_W, WORKED_H)
    a = sample_feasible_A(p, 100, seed=13)
    b = sample_feasible_A(p, 100, seed=13)
    assert all(np.array_equal(x.a, y.a) for x, y in zip(a, b))
    c = sample_feasible_A(p, 100, seed=14)
    assert any(not np.array_equal(x.a, y.a) for x, y in zip(a, c))


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_sampler_refuses_a_step_or_zero_tol_that_is_negative_or_not_finite(value):
    p = pair(WORKED_W, WORKED_H)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        sample_feasible_A(p, 10, seed=0, step=value)
    with pytest.raises(ValueError, match="zero_tol must be non-negative and finite"):
        sample_feasible_A(p, 10, seed=0, zero_tol=value)


def _reference_is_feasible(a, w, h, zero_tol):
    if np.min(w @ a) < -zero_tol:
        return False
    try:
        mixed_h = np.linalg.solve(a, h)
    except np.linalg.LinAlgError:
        return False
    if not np.all(np.isfinite(mixed_h)):
        return False
    return np.min(mixed_h) >= -zero_tol


def _reference_fix_row_sums(a):
    out = a.copy()
    np.fill_diagonal(out, 0.0)
    np.fill_diagonal(out, 1.0 - out.sum(axis=1))
    return out


def reference_sample_feasible_A(factors, n_samples, seed, step=0.05, *,
                                zero_tol=0.0):
    """The sampler's walk written as one plain loop: every iteration tests
    its proposal, resets to the identity included, and records a fresh copy
    of the state."""
    rng = np.random.default_rng(seed)
    w, h = factors.w, factors.h
    rank = factors.rank
    eye = np.eye(rank)
    current = eye
    out = []
    for _ in range(n_samples):
        u = rng.random()
        if rank < 2 or u < 0.25:
            proposal = eye
        elif u < 0.625:
            r1 = int(rng.integers(rank))
            r2 = int((r1 + 1 + rng.integers(rank - 1)) % rank)
            proposal = current.copy()
            proposal[r1, r2] += rng.normal(0.0, step)
            proposal = _reference_fix_row_sums(proposal)
        else:
            proposal = _reference_fix_row_sums(
                current + rng.normal(0.0, step, (rank, rank)))
        if _reference_is_feasible(proposal, w, h, zero_tol):
            current = proposal
        out.append(current.copy())
    return out


def off_simplex_factors():
    # A fitted H of a noisy instance with the unprojected W = X pinv(H): W
    # has small negative entries, so at zero_tol=0 the identity itself is
    # infeasible, while some moves away from it are feasible.
    x, _ = generate(40, 12, 3, anchors=False, seed=0, noise_sigma=0.02,
                    orientation=Orientation.W_ROWS_SUM_TO_1)
    cfg = SolverConfig(rank=3, orientation=Orientation.W_ROWS_SUM_TO_1,
                       restarts=1, seed=0)
    h = factorize(x, cfg).factors.h
    return pair(x @ pseudoinverse(h), h, Orientation.W_ROWS_SUM_TO_1)


def non_anchored_pair(seed, rank=3):
    _, gt = generate(rank + 12, rank + 8, rank, anchors=False, seed=seed)
    return gt.pair


def topic_factors(n_docs=200, n_topics=20, terms_per=18):
    # An R=20 fit of a block-anchored corpus like acceptance criterion 8's,
    # so the sampler meets fitted factors at R=20 with 360 columns of H.
    rng = np.random.default_rng(8)
    h = np.zeros((n_topics, n_topics * terms_per))
    for r in range(n_topics):
        p = rng.dirichlet(np.ones(terms_per))
        p = 0.7 * p / p.sum()
        p[0] += 0.3
        h[r, r * terms_per:(r + 1) * terms_per] = p
    w = rng.dirichlet(np.ones(n_topics), size=n_docs)
    w[:n_topics] = np.eye(n_topics)
    probs = w @ h
    counts = np.stack([rng.multinomial(int(rng.integers(80, 200)), probs[i])
                       for i in range(n_docs)]).astype(np.float64)
    corpus = Corpus(vocabulary=[f"t{j}" for j in range(h.shape[1])],
                    doc_term=counts, doc_ids=[str(i) for i in range(n_docs)])
    cfg = SolverConfig(rank=n_topics, orientation=Orientation.BOTH,
                       restarts=2, seed=0)
    return fit_topics(corpus, cfg).factors


def shared_maxima_pair():
    # Row 0 holds the maximum of W's columns 0 and 1, and row 1 that of
    # columns 2 and 3, so the W screen has 2 rows for R = 4.
    rng = np.random.default_rng(5)
    w = np.vstack([[0.45, 0.45, 0.05, 0.05], [0.05, 0.05, 0.45, 0.45],
                   rng.dirichlet(np.ones(4), size=10) * 0.5 + 0.075])
    return pair(w, rng.dirichlet(np.ones(9), size=4))


@pytest.mark.blas_threads
@pytest.mark.parametrize("case", [
    "anchored", "non-anchored", "zero-tol", "anchored-zero-tol", "rank-1",
    "worked", "off-simplex", "rank-20", "shared-maxima", "non-anchored-rank-10",
])
def test_sampler_matches_reference_loop_bitwise(case):
    zero_tol = {"zero-tol": 1e-3, "anchored-zero-tol": 1e-3,
                "rank-20": DEFAULT_ZERO_TOL_ESTIMATED}.get(case, 0.0)
    p, n = {
        "anchored": lambda: (anchored_pair(seed=19), 600),
        "non-anchored": lambda: (non_anchored_pair(seed=101), 600),
        "shared-maxima": lambda: (shared_maxima_pair(), 600),
        "non-anchored-rank-10": lambda: (non_anchored_pair(seed=103, rank=10), 600),
        "zero-tol": lambda: (non_anchored_pair(seed=102, rank=4), 600),
        "anchored-zero-tol": lambda: (anchored_pair(seed=20), 600),
        "rank-1": lambda: (pair(np.ones((4, 1)), [[0.2, 0.3, 0.5]]), 50),
        "worked": lambda: (pair(WORKED_W, WORKED_H), 2000),
        "off-simplex": lambda: (off_simplex_factors(), 600),
        "rank-20": lambda: (topic_factors(), 600),
    }[case]()
    got = sample_feasible_A(p, n, seed=23, zero_tol=zero_tol)
    want = reference_sample_feasible_A(p, n, seed=23, zero_tol=zero_tol)
    assert len(got) == len(want) == n
    for g, r in zip(got, want):
        assert g.a.dtype == r.dtype and g.a.shape == r.shape
        assert g.a.tobytes() == r.tobytes()
    eye = np.eye(p.rank)
    moved = sum(not np.array_equal(r, eye) for r in want)
    if case in ("non-anchored", "zero-tol", "worked", "off-simplex",
                "shared-maxima", "non-anchored-rank-10"):
        # Moves are accepted, so the inputs exercise more than the identity.
        assert moved > 0
    if case == "shared-maxima":
        assert _screens(p.w, p.h)[0].shape == (2, 4)
    if case == "off-simplex":
        assert p.w.min() < 0.0
        assert not _reference_is_feasible(eye, p.w, p.h, 0.0)
        # The walk leaves the identity and never returns to it.
        first = next(k for k, r in enumerate(want) if not np.array_equal(r, eye))
        assert not any(np.array_equal(r, eye) for r in want[first:])


@pytest.mark.blas_threads
def test_sampler_screens_are_the_anchors():
    # Each factor's screen row of W is one of its anchor rows, on exact
    # anchored factors and on an R=20 topic fit; on the exact factors each
    # screen column of H is an anchor column as well.
    for p, zero_tol in ((anchored_pair(seed=19), 0.0),
                        (topic_factors(), DEFAULT_ZERO_TOL_ESTIMATED)):
        report = check_uniqueness(p, zero_tol)
        ws, _, hs, _ = _screens(p.w, p.h)
        rows = np.argmax(p.w, axis=0)
        assert all(rows[r] in report.anchor_rows[r] for r in range(p.rank))
        assert np.array_equal(ws, p.w[np.sort(rows)])
    p = anchored_pair(seed=19)
    cols = np.argmax(p.h, axis=1)
    assert all(cols[r] in check_uniqueness(p).anchor_cols[r] for r in range(p.rank))
    assert np.array_equal(_screens(p.w, p.h)[2], p.h[:, np.sort(cols)])


def axis_move(rank, r1, r2, t):
    # The mixing matrix that moves t of factor r1 onto factor r2.
    a = np.eye(rank)
    a[r1, r2] = t
    a[r1, r1] = 1.0 - t
    return a


def _unscreened_is_feasible(a, w, h, zero_tol):
    # The full W A and inv(A) H tests alone.
    if np.min(w @ a) < -zero_tol:
        return False
    try:
        mixed_h = np.linalg.inv(a) @ h
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.isfinite(mixed_h)) and np.min(mixed_h) >= -zero_tol)


@pytest.mark.blas_threads
def test_sampler_refuses_a_singular_proposal():
    # Every row of A is (1/3, 1/3, 1/3): W A stays non-negative, so the W
    # screen passes, and the inverse that the H side needs does not exist.
    p = anchored_pair(seed=0)
    a = np.full((3, 3), 1.0 / 3.0)
    assert not _is_feasible(a, p.w, p.h, 0.0, _screens(p.w, p.h))
    assert not _unscreened_is_feasible(a, p.w, p.h, 0.0)


@pytest.mark.blas_threads
@pytest.mark.parametrize("zero_tol", [0.0, 1e-6])
def test_sampler_screens_keep_near_tie_verdicts(zero_tol):
    # Moves along an axis (r1, r2) whose binding row of W is a screen row,
    # scaled so that min(W A) lands within a few ulps of -zero_tol: the
    # screened verdict is the unscreened one on both sides of the tie.
    p = non_anchored_pair(seed=101)
    w, h = p.w, p.h
    screens = _screens(w, h)
    screen_rows = set(np.unique(np.argmax(w, axis=0)).tolist())
    ties = 0
    verdicts = set()
    for r1 in range(p.rank):
        for r2 in range(p.rank):
            ratio = (w[:, r2] + zero_tol) / w[:, r1]
            if r1 == r2 or int(np.argmin(ratio)) not in screen_rows:
                continue
            t_star = -ratio.min()
            for k in range(-6, 7):
                a = axis_move(p.rank, r1, r2, t_star * (1.0 + k * np.finfo(float).eps))
                assert abs((w @ a).min() + zero_tol) <= 1e-15
                want = _unscreened_is_feasible(a, w, h, zero_tol)
                assert _is_feasible(a, w, h, zero_tol, screens) == want
                verdicts.add(want)
                ties += 1
    assert ties > 0 and verdicts == {False, True}


@pytest.mark.blas_threads
@pytest.mark.parametrize("zero_tol", [0.0, 1e-6])
def test_sampler_screens_keep_near_tie_verdicts_on_h(zero_tol):
    # Moves along an axis (r1, r2) out to where inv(A) H first dips below
    # -zero_tol, found by bisection to adjacent floats, on axes whose binding
    # column of H is a screen column: the screened verdict is the unscreened
    # one on both sides of the tie.
    p = non_anchored_pair(seed=101)
    w, h = p.w, p.h
    screens = _screens(w, h)
    screen_cols = set(np.unique(np.argmax(h, axis=1)).tolist())
    ties = 0
    verdicts = set()
    for r1 in range(p.rank):
        for r2 in range(p.rank):
            if r1 == r2:
                continue
            ok, bad = 0.0, 1.0
            if _unscreened_is_feasible(axis_move(p.rank, r1, r2, bad), w, h, zero_tol):
                continue
            while np.nextafter(ok, bad) < bad:
                mid = 0.5 * (ok + bad)
                if _unscreened_is_feasible(axis_move(p.rank, r1, r2, mid), w, h, zero_tol):
                    ok = mid
                else:
                    bad = mid
            mixed_h = np.linalg.inv(axis_move(p.rank, r1, r2, bad)) @ h
            if np.argmin(mixed_h) % h.shape[1] not in screen_cols:
                continue
            for t in ok * (1.0 + np.arange(-6, 7) * np.finfo(float).eps):
                a = axis_move(p.rank, r1, r2, t)
                assert abs((np.linalg.inv(a) @ h).min() + zero_tol) <= 1e-15
                want = _unscreened_is_feasible(a, w, h, zero_tol)
                assert _is_feasible(a, w, h, zero_tol, screens) == want
                verdicts.add(want)
                ties += 1
    assert ties > 0 and verdicts == {False, True}


@pytest.mark.blas_threads
@pytest.mark.parametrize("case", ["non-anchored", "rank-20", "off-simplex",
                                  "shared-maxima"])
def test_sampler_screened_verdicts_match_unscreened(case):
    p = {"non-anchored": lambda: non_anchored_pair(seed=104, rank=5),
         "rank-20": topic_factors, "off-simplex": off_simplex_factors,
         "shared-maxima": shared_maxima_pair}[case]()
    screens = _screens(p.w, p.h)
    rng = np.random.default_rng(3)
    verdicts = []
    for step in (0.003, 0.03, 0.3):
        for _ in range(150):
            a = _reference_fix_row_sums(
                np.eye(p.rank) + rng.normal(0.0, step, (p.rank, p.rank)))
            for zero_tol in (0.0, DEFAULT_ZERO_TOL_ESTIMATED, 1e-3):
                want = _unscreened_is_feasible(a, p.w, p.h, zero_tol)
                assert _is_feasible(a, p.w, p.h, zero_tol, screens) == want
                verdicts.append(want)
    assert not all(verdicts)


@pytest.mark.blas_threads
def test_sampler_shares_repeated_states():
    p = non_anchored_pair(seed=101)
    samples = sample_feasible_A(p, 600, seed=23)
    assert all(not s.a.flags.writeable for s in samples)
    # Every sample that repeats the previous state is that same object, and
    # every visit to the identity records one and the same object.
    for prev, s in zip(samples, samples[1:]):
        assert (s is prev) == np.array_equal(s.a, prev.a)
    identities = [s for s in samples if np.array_equal(s.a, np.eye(3))]
    assert len(identities) > 1
    assert len({id(s) for s in identities}) == 1


@pytest.mark.blas_threads
def test_sampler_validates_arguments():
    p = pair(WORKED_W, WORKED_H)
    with pytest.raises(ValueError):
        sample_feasible_A(p, 0, seed=0)
    with pytest.raises(ValueError):
        sample_feasible_A(p, 10, seed=0, step=0.0)


# -------------------------------------------------------------- diagnostic


def test_diagnostic_zero_for_exact_factors():
    p = anchored_pair(seed=15)
    x = p.w @ p.h
    assert average_consistency_diagnostic(x, p) < 1e-12


def test_diagnostic_frozen_example():
    w = np.eye(2)
    h = np.eye(2)
    x = np.array([[1.0, 0.0], [0.5, 0.5]])
    p = pair(w, h)
    # Column means of X are (0.75, 0.25); mean(W) H gives (0.5, 0.5).
    assert average_consistency_diagnostic(x, p) == pytest.approx(0.25, abs=1e-15)


def test_diagnostic_detects_wrong_h():
    p = anchored_pair(seed=16)
    x = p.w @ p.h
    wrong = FactorPair(w=p.w, h=np.roll(p.h, 1, axis=1),
                       orientation=p.orientation)
    assert average_consistency_diagnostic(x, wrong) > 1e-3


def test_diagnostic_shape_check():
    p = anchored_pair(seed=17)
    with pytest.raises(ValueError):
        average_consistency_diagnostic(np.zeros((2, 2)), p)


# ------------------------------------------------------------------ report


def test_report_schema_and_summary():
    rep = analysis_report(pair(WORKED_W, WORKED_H))
    assert set(rep) == {"unique", "violations", "anchors", "bounds", "summary"}
    assert rep["unique"] is False
    assert {(v["kind"], v["r1"], v["r2"]) for v in rep["violations"]} == {
        ("W_SUBSET", 0, 1), ("W_SUBSET", 1, 0),
        ("H_SUBSET", 0, 1), ("H_SUBSET", 1, 0),
    }
    assert set(rep["anchors"]) == {"0", "1"}
    assert rep["anchors"]["0"] == {"rows": [], "cols": []}
    assert [(b["r1"], b["r2"]) for b in rep["bounds"]] == [(0, 1), (1, 0)]
    # Widths are 0.5 + 3/7 and 1/3 + 2/3: one lands in [0.02, 1), one at the
    # overflow edge.
    assert rep["summary"]["max_width"] == pytest.approx(1.0, abs=1e-12)
    hist = rep["summary"]["widths_histogram"]
    assert hist["edges"] == [0.0, 0.001, 0.01, 0.02, 1.0]
    assert hist["counts"] == [0, 0, 0, 1, 1]
    assert sum(hist["counts"]) == len(rep["bounds"])


def test_report_anchored_instance():
    rep = analysis_report(anchored_pair(seed=18))
    assert rep["unique"] is True
    assert rep["violations"] == []
    assert rep["summary"]["max_width"] == 0.0
    assert rep["summary"]["widths_histogram"]["counts"] == [6, 0, 0, 0, 0]
    for r in range(3):
        assert rep["anchors"][str(r)]["rows"]
        assert rep["anchors"][str(r)]["cols"]


def test_report_is_json_serializable():
    import json
    rep = analysis_report(pair(WORKED_W, WORKED_H))
    json.dumps(rep)
