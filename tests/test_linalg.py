"""Unit tests for the dense linear algebra primitives."""

import itertools

import numpy as np
import pytest

from smf.linalg import (
    EmptyRowError,
    _canonicalize_list,
    _is_fixed,
    _simplex_rows_ordered,
    _simplex_rows_raw,
    _threshold,
    frobenius_norm,
    numerical_rank,
    pseudoinverse,
    row_normalize,
    simplex_project,
    simplex_project_rows,
)


def random_low_rank(rng, n, m, r):
    return rng.normal(size=(n, r)) @ rng.normal(size=(r, m))


# ---------------------------------------------------------------- frobenius


def test_frobenius_norm_examples():
    assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0
    assert frobenius_norm(np.zeros((4, 7))) == 0.0
    assert frobenius_norm(np.eye(9)) == 3.0


def test_frobenius_norm_rejects_nan():
    with pytest.raises(ValueError):
        frobenius_norm(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_frobenius_norm_rejects_infinite_entries(bad):
    with pytest.raises(ValueError):
        frobenius_norm(np.array([[1.0, bad], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        frobenius_norm(np.array([[np.nan, bad]]))


def test_frobenius_norm_overflowing_squares_give_inf():
    # Finite entries whose squares overflow are valid input.
    with np.errstate(over="ignore"):
        assert frobenius_norm(np.array([[1e200, -1e200], [0.0, 1.0]])) == np.inf


def test_frobenius_norm_is_root_of_summed_squares():
    rng = np.random.default_rng(13)
    for shape in [(1, 1), (7, 3), (200, 30), (2400, 81)]:
        for scale in (1e-150, 1.0, 1e150):
            a = rng.normal(scale=scale, size=shape)
            assert frobenius_norm(a) == float(np.sqrt(np.sum(a * a)))


# ------------------------------------------------------------ pseudoinverse


def moore_penrose_gap(a, ap):
    """Largest violation of the four Moore-Penrose conditions."""
    return max(
        np.max(np.abs(a @ ap @ a - a)),
        np.max(np.abs(ap @ a @ ap - ap)),
        np.max(np.abs((a @ ap).T - a @ ap)),
        np.max(np.abs((ap @ a).T - ap @ a)),
    )


def test_pseudoinverse_diagonal_example():
    a = np.diag([1.0, 2.0])
    assert np.allclose(pseudoinverse(a), np.diag([1.0, 0.5]), atol=1e-14)


def test_pseudoinverse_rectangular_example():
    # pinv of a column vector v is v.T / ||v||^2
    v = np.array([[1.0], [2.0], [2.0]])
    assert np.allclose(pseudoinverse(v), v.T / 9.0, atol=1e-14)


def test_pseudoinverse_zero_matrix():
    ap = pseudoinverse(np.zeros((3, 5)))
    assert ap.shape == (5, 3)
    assert np.all(ap == 0.0)


def test_pseudoinverse_moore_penrose_sweep():
    rng = np.random.default_rng(42)
    for trial in range(40):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 12))
        r = int(rng.integers(1, min(n, m) + 1))
        a = random_low_rank(rng, n, m, r)
        ap = pseudoinverse(a)
        assert moore_penrose_gap(a, ap) < 1e-8


def test_pseudoinverse_rank_cutoff():
    # Singular values at or below rank_tol * s_max are dropped entirely
    # instead of being inverted into huge entries.
    a = np.diag([1.0, 1e-14])
    ap = pseudoinverse(a, rank_tol=1e-10)
    assert np.allclose(ap, np.diag([1.0, 0.0]), atol=1e-14)


def test_pseudoinverse_rejects_bad_tol():
    with pytest.raises(ValueError):
        pseudoinverse(np.eye(2), rank_tol=0.0)


# ----------------------------------------------------------- numerical rank


def test_numerical_rank_examples():
    rng = np.random.default_rng(3)
    assert numerical_rank(np.eye(5)) == 5
    assert numerical_rank(np.zeros((3, 4))) == 0
    outer = np.outer(rng.random(6), rng.random(4))
    assert numerical_rank(outer) == 1
    assert numerical_rank(random_low_rank(rng, 9, 7, 3)) == 3
    with pytest.raises(ValueError, match="rank_tol must be positive"):
        numerical_rank(np.eye(2), rank_tol=0.0)


# ------------------------------------------------------------ row normalize


def test_row_normalize_matrix():
    out = row_normalize(np.array([[1.0, 3.0], [2.0, 2.0]]))
    assert np.allclose(out, [[0.25, 0.75], [0.5, 0.5]], atol=1e-15)


def test_row_normalize_vector_round_trip():
    out = row_normalize(np.array([2.0, 6.0]))
    assert out.shape == (2,)
    assert np.allclose(out, [0.25, 0.75], atol=1e-15)


def test_row_normalize_zero_row_reports_index():
    with pytest.raises(EmptyRowError) as err:
        row_normalize(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert err.value.index == 1


def test_row_normalize_rejects_negative():
    with pytest.raises(ValueError):
        row_normalize(np.array([[1.0, -0.5]]))


# ---------------------------------------------------------- simplex project


def brute_force_simplex(v):
    """Exact simplex projection by enumerating KKT support sets.

    For each candidate support S the minimizer is v_i - theta on S with
    theta = (sum_S v_i - 1) / |S|; the unique feasible candidate (positive
    on S, non-positive shift off S) is the projection.  Exponential in the
    dimension, so only usable for small vectors.
    """
    n = v.size
    best = None
    for size in range(1, n + 1):
        for sup in itertools.combinations(range(n), size):
            idx = list(sup)
            theta = (v[idx].sum() - 1.0) / size
            w = np.zeros(n)
            w[idx] = v[idx] - theta
            if np.min(w[idx]) <= 0 and size > 1:
                continue
            off = [i for i in range(n) if i not in sup]
            if off and np.max(v[off] - theta) > 1e-12:
                continue
            cand = np.maximum(w, 0.0)
            if best is None or np.linalg.norm(cand - v) < np.linalg.norm(best - v):
                best = cand
    return best


# The numpy simplex projection that simplex_project replaced, kept as the
# reference for its bits: one projection by sort and cumsum, and the
# canonicalization that makes the descending cumulative sum exactly 1.0.
def project_once_reference(v):
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    hit = np.flatnonzero(u * ind > cssv)
    rho = hit[-1] if hit.size else 0
    theta = cssv[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def canonicalize_reference(w):
    w = w.copy()
    pos = np.flatnonzero(w > 0)
    order = pos[np.argsort(-w[pos], kind="stable")]
    while order.size:
        cs = np.cumsum(w[order])
        if cs[-1] == 1.0:
            return w
        partial = cs[-2] if order.size > 1 else 0.0
        last = 1.0 - partial
        if last > 0.0:
            w[order[-1]] = last
            return w
        w[order[-1]] = 0.0
        order = order[:-1]
    w[0] = 1.0
    return w


def simplex_project_reference(v):
    # The projection and the number of canonicalization rounds it took.
    x = np.asarray(v, dtype=np.float64)
    if x.size == 1:
        return np.array([1.0]), 0
    if np.max(np.abs(x)) > 2.0:
        x = x - (np.max(x) - 1.0)
    w = project_once_reference(x)
    for k in range(32):
        if np.array_equal(project_once_reference(w), w):
            return w, k
        w = canonicalize_reference(w)
    return w, 32


@pytest.mark.blas_threads
def test_simplex_project_matches_numpy_reference_bitwise():
    # Random sizes 2-50 at scales 1e-3 to 1e6 (the shift above 2 runs),
    # tied entries, signed zeros, near-simplex vectors that take several
    # canonicalization rounds, and size 1.
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(400):
        n = int(rng.integers(2, 51))
        cases.append(rng.normal(scale=10.0 ** rng.uniform(-3, 6), size=n))
    for _ in range(100):
        n = int(rng.integers(2, 12))
        cases.append(rng.integers(-2, 3, size=n) / rng.choice([1.0, 2.0, 4.0, 7.0]))
    zeros = [np.array(z) for z in ([1.0, -0.0], [-0.0, 1.0], [-0.0, 0.0, -0.0],
                                   [0.5, -0.0, 0.5, 0.0], [-0.0, -0.0], [-0.0])]
    for _ in range(100):
        v = rng.dirichlet(np.full(8, 0.5))
        v[rng.random(8) < 0.3] = rng.choice([0.0, -0.0])
        zeros.append(v)
    # Simplex points with most entries set to 1e-17 or 1e-16: about 2% take
    # two canonicalization rounds.
    near = rng.dirichlet(np.full(20, 0.3), size=600)
    tiny = rng.random(near.shape) < 0.6
    near[tiny] = rng.choice([1e-17, 1e-16], size=tiny.sum())
    cases += zeros + list(near) + [rng.normal(size=1), np.array([5e6])]
    rounds = []
    for v in cases:
        want, k = simplex_project_reference(v)
        assert simplex_project(v).tobytes() == want.tobytes()
        rounds.append(k)
    assert max(rounds) >= 2


@pytest.mark.blas_threads
def test_simplex_project_examples():
    assert np.allclose(simplex_project(np.array([0.2, 0.3])), [0.45, 0.55],
                       atol=1e-15)
    assert np.allclose(simplex_project(np.array([2.0, 0.0])), [1.0, 0.0],
                       atol=1e-15)
    assert np.allclose(simplex_project(np.array([-1.0, 0.0])), [0.0, 1.0],
                       atol=1e-15)
    assert np.allclose(simplex_project(np.array([0.5, 0.5])), [0.5, 0.5],
                       atol=1e-15)
    assert simplex_project(np.array([-3.0])) == pytest.approx([1.0])


@pytest.mark.blas_threads
def test_simplex_project_matches_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(2, 8))
        v = rng.normal(scale=1.5, size=n)
        got = simplex_project(v)
        want = brute_force_simplex(v)
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.blas_threads
def test_simplex_project_feasible_and_idempotent():
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = int(rng.integers(1, 40))
        v = rng.normal(scale=rng.choice([0.1, 1.0, 100.0]), size=n)
        w = simplex_project(v)
        assert w.min() >= 0.0
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.array_equal(simplex_project(w), w)


@pytest.mark.blas_threads
def test_simplex_project_invariant_to_constant_shift():
    rng = np.random.default_rng(13)
    v = rng.normal(size=6)
    assert np.allclose(simplex_project(v), simplex_project(v + 123.0),
                       atol=1e-9)


@pytest.mark.blas_threads
def test_simplex_project_rejects_bad_input():
    with pytest.raises(ValueError):
        simplex_project(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        simplex_project(np.array([np.inf, 1.0]))
    with pytest.raises(ValueError):
        simplex_project(np.array([]))


def row_cases(rng):
    # Random, tied, shifted (an entry above 2 in magnitude), one-row, one-
    # and two-column input, and near-simplex rows with tiny or perturbed
    # entries, whose canonicalization drops entries or takes more than one
    # round.
    cases = [
        rng.normal(size=(25, 6)),
        rng.normal(size=(200, 10)),
        rng.uniform(-1.0, 2.0, size=(50, 20)),
        rng.integers(-2, 3, size=(60, 6)).astype(float),  # tied entries
        np.full((3, 4), 0.25),
        rng.normal(scale=50.0, size=(40, 8)),             # shifted rows
        np.vstack([rng.normal(size=(20, 5)), rng.normal(scale=50.0, size=(20, 5))]),
        rng.normal(size=(30, 1)),
        rng.normal(size=(30, 2)),
    ]
    near = rng.dirichlet(np.full(8, 0.3), size=300)
    near[rng.random(near.shape) < 0.3] = 1e-17
    return cases + [near, near * (1.0 + rng.normal(scale=1e-15, size=(300, 1))),
                    rng.normal(size=(1, 1)), rng.normal(scale=50.0, size=(1, 7))]


@pytest.mark.blas_threads
def test_simplex_project_rows_matches_row_loop_bitwise():
    # The matrix projector is simplex_project row by row, bit for bit, and
    # idempotent, on rows whose first projection is a fixed point and on
    # rows that go through the canonicalization rounds.
    cases = row_cases(np.random.default_rng(17))
    raw = _simplex_rows_raw(cases[1])
    assert (_simplex_rows_raw(raw) != raw).any(axis=1).sum() > 10
    for m in cases:
        got = simplex_project_rows(m)
        assert got.tobytes() == np.vstack([simplex_project(r) for r in m]).tobytes()
        assert simplex_project_rows(got).tobytes() == got.tobytes()


@pytest.mark.blas_threads
def test_canonicalize_list_matches_reference_bitwise():
    # The canonicalization on Python floats is canonicalize_reference, bit
    # for bit, on any non-negative row: sums above and below 1, entries the
    # loop drops, zero and negative-zero entries, and all-zero rows.
    rng = np.random.default_rng(23)
    w = np.abs(rng.normal(size=(400, 7)))
    w[:100] /= w[:100].sum(axis=1, keepdims=True)
    w[100:200] = rng.dirichlet(np.full(7, 0.3), size=100) + 1e-16
    w[rng.random(w.shape) < 0.25] = 0.0
    w[rng.random(w.shape) < 0.05] = -0.0
    w[[5, 250]] = 0.0
    w[7] = -0.0
    for r in w:
        got = np.array(_canonicalize_list(r.tolist()))
        assert got.tobytes() == canonicalize_reference(r).tobytes()


# simplex_project before it proved its fixed points, kept as the reference
# for its bits: one projection on Python floats, a check projection of the
# result, and canonicalization rounds each followed by a check projection.
def project_list_reference(x):
    u = sorted(x, reverse=True)
    total = 0.0
    rho, cssv_rho = 0, u[0] - 1.0
    for i, a in enumerate(u):
        total += a
        c = total - 1.0
        if a * (i + 1) > c:
            rho, cssv_rho = i, c
    theta = cssv_rho / (rho + 1.0)
    return [d if (d := a - theta) > 0.0 else 0.0 for a in x]


def shifted_list(v):
    xs = np.asarray(v, dtype=np.float64).tolist()
    if max(map(abs, xs)) > 2.0:
        shift = max(xs) - 1.0
        xs = [a - shift for a in xs]
    return xs


def simplex_project_checked(v):
    w = project_list_reference(shifted_list(v))
    if project_list_reference(w) != w:
        for _ in range(32):
            w = _canonicalize_list(w)
            if project_list_reference(w) == w:
                break
    return np.array(w)


def fuzz_vectors(rng, count):
    # Lengths 2 to 20: Gaussian and uniform vectors at magnitudes 1e-8 to
    # 1e3, vectors of tied entries, Dirichlet points plus 1e-12 noise, and
    # Dirichlet points with zeroed entries.
    out = []
    for i in range(count):
        n = int(rng.integers(2, 21))
        scale = 10.0 ** rng.uniform(-8.0, 3.0)
        kind = i % 5
        if kind == 0:
            v = rng.normal(scale=scale, size=n)
        elif kind == 1:
            v = rng.uniform(-scale, scale, size=n)
        elif kind == 2:
            v = rng.integers(-2, 3, size=n) / float(rng.integers(1, 8))
        elif kind == 3:
            alpha = rng.choice([0.3, 1.0, 3.0])
            v = rng.dirichlet(np.full(n, alpha)) + rng.normal(scale=1e-12, size=n)
        else:
            v = rng.dirichlet(np.full(n, 0.5))
            v[rng.random(n) < 0.3] = 0.0
        out.append(v)
    return out


@pytest.mark.blas_threads
def test_simplex_project_matches_checked_projection_bitwise():
    rng = np.random.default_rng(29)
    vectors = fuzz_vectors(rng, 20000)
    wants = [simplex_project_checked(v) for v in vectors]
    for v, want in zip(vectors, wants):
        assert simplex_project(v).tobytes() == want.tobytes()
    for n in range(2, 21):
        pick = [i for i, v in enumerate(vectors) if v.size == n]
        got = simplex_project_rows(np.array([vectors[i] for i in pick]))
        assert got.tobytes() == np.array([wants[i] for i in pick]).tobytes()


def adversarial_vectors(rng):
    # Lists on or near the simplex where a float rule is easiest to break:
    # entries down to 1e-320 (subnormal), powers of two and entries 1 to 3
    # ulps from one, Dirichlet points scaled by 1 +- k * 2**-53, and
    # near-simplex lists that no projection returns.  Each goes in as a
    # vector to project and, being non-negative, as a list to test as is.
    out = []
    for _ in range(300):
        n = int(rng.integers(2, 13))
        v = rng.dirichlet(np.full(n, 0.5))
        tiny = rng.random(n) < 0.4
        v[tiny] = 10.0 ** rng.uniform(-320.0, -300.0, size=tiny.sum())
        out.append(v)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        v = 2.0 ** -rng.integers(1, 60, size=n).astype(float)
        if rng.random() < 0.5:
            v = np.append(v, 1.0 - v.sum())
        out.append(v)
    for k in range(1, 4):
        for one in (1.0 + k * 2.0 ** -52, 1.0 - k * 2.0 ** -53):
            out += [np.array([one, 0.0]), np.array([one, 2.0 ** -60, 0.0]),
                    np.array([one, k * 2.0 ** -53, 2.0 ** -54])]
    for _ in range(400):
        n = int(rng.integers(2, 21))
        k = float(rng.integers(1, 5)) * rng.choice([-1.0, 1.0])
        out.append(rng.dirichlet(np.full(n, rng.choice([0.3, 1.0]))) * (1.0 + k * 2.0 ** -53))
    for _ in range(400):
        n = int(rng.integers(2, 21))
        v = rng.dirichlet(np.full(n, 0.5))
        v[rng.random(n) < 0.2] = 0.0
        i = int(rng.integers(n))
        v[i] = np.nextafter(v[i], rng.choice([0.0, 2.0]))
        if rng.random() < 0.5:
            v = v + rng.uniform(0.0, 4e-16, size=n)
        out.append(v)
    return out


@pytest.mark.blas_threads
def test_fixed_point_proof_holds_wherever_it_skips_the_check():
    # _is_fixed answers from its running sum alone, and a second projection
    # must agree: on first projections, on every canonicalization round the
    # checked reference takes, and on non-negative lists that are not
    # projections.  simplex_project keeps the checked reference's bits.
    rng = np.random.default_rng(31)
    fuzz = fuzz_vectors(rng, 20000)
    adversarial = adversarial_vectors(rng)
    tested = [0, 0]
    for v in fuzz + adversarial:
        xs = shifted_list(v)
        u = sorted(xs, reverse=True)
        w = project_list_reference(xs)
        assert _is_fixed(u, _threshold(u)) == (project_list_reference(w) == w)
        for _ in range(32):
            again = project_list_reference(w)
            fixed = again == w
            assert _is_fixed(sorted(w, reverse=True)) == fixed
            tested[fixed] += 1
            if fixed:
                assert np.array(again).tobytes() == np.array(w).tobytes()
                break
            w = _canonicalize_list(w)
    for v in adversarial:
        w = v.tolist()
        fixed = project_list_reference(w) == w
        assert _is_fixed(sorted(w, reverse=True)) == fixed
        tested[fixed] += 1
        assert simplex_project(v).tobytes() == simplex_project_checked(v).tobytes()
    # Both answers occur often.
    assert min(tested) > 2000


def simplex_rows_by_cumsum(m):
    # The row projection with rho found as the first maximum of an integer
    # cumulative count, as first written, and theta read by take_along_axis.
    u = -np.sort(-m, axis=-1)
    cssv = np.cumsum(u, axis=-1) - 1.0
    n = m.shape[-1]
    rho = (u * np.arange(1, n + 1) > cssv).cumsum(axis=-1).argmax(axis=-1)
    theta = np.take_along_axis(cssv, rho[..., None], axis=-1)[..., 0]
    return np.maximum(m - (theta / (rho + 1.0))[..., None], 0.0)


def test_simplex_rows_raw_matches_cumsum_formula_bitwise():
    rng = np.random.default_rng(31)
    cases = [
        rng.normal(size=(40, 7)),
        rng.normal(scale=5.0, size=(2400, 10)),
        rng.normal(size=(4, 25, 10)),                   # a stack
        rng.integers(-2, 3, size=(60, 6)).astype(float),  # tied entries
        rng.integers(0, 2, size=(3, 20, 5)) / 4.0,       # a tied stack
        np.zeros((4, 5)),
        np.full((2, 3, 4), 0.25),
        np.array([[5.0, 0.0, 0.0], [0.2, 0.3, 0.5]]),   # rho = 0 and n - 1
        rng.normal(size=(9, 1)),
    ]
    for m in cases:
        assert np.array_equal(_simplex_rows_raw(m), simplex_rows_by_cumsum(m))


def test_simplex_rows_raw_tracks_exact_projection():
    # The vectorized fast path must agree with the exact per-row projection
    # to float64 resolution; solver iterates rely on this.
    rng = np.random.default_rng(19)
    for trial in range(20):
        m = rng.normal(scale=rng.choice([0.3, 1.0, 3.0]), size=(30, 8))
        fast = _simplex_rows_raw(m)
        exact = simplex_project_rows(m)
        assert np.max(np.abs(fast - exact)) < 5e-15
        assert np.max(np.abs(fast.sum(axis=1) - 1.0)) < 1e-13
        assert fast.min() >= 0.0


def perturbed_sequences(rng):
    # Sequences of N×n matrices, each a small change of the one before, as a
    # warm start's W = X pinv(Y) is from round to round.
    def walk(m, scale, calls=6):
        seq = [m]
        for _ in range(calls - 1):
            seq.append(seq[-1] + rng.normal(scale=scale, size=m.shape))
        return seq

    yield walk(rng.dirichlet(np.ones(10), size=300), 1e-4)      # a few reorders
    yield walk(rng.normal(size=(200, 6)), 0.3)                  # most rows reorder
    yield walk(rng.uniform(0.0, 0.05, size=(150, 8)), 1e-3)     # rows summing below 1
    yield walk(rng.uniform(-0.02, 0.03, size=(150, 8)), 1e-3)   # negatives in the support
    yield walk(rng.normal(size=(80, 1)), 0.1)
    yield walk(rng.normal(size=(80, 2)), 0.1)
    yield walk(rng.normal(size=(20, 300)), 0.01)                # n above 255
    # Entries of 1e17, where u (k + 1) > cssv may hold at no index.
    yield walk(rng.choice([0.0, 1.0, 1e16, 1e17, -1e17], size=(60, 4)), 1.0)
    # Ties, exact zeros and -0.0, and rows that swap two entries between calls.
    ties = [rng.integers(-2, 3, size=(120, 5)) / 4.0 for _ in range(5)]
    for m in ties[1:]:
        m[rng.random(m.shape) < 0.2] = -0.0
    yield ties
    base = rng.dirichlet(np.full(7, 0.5), size=100)
    base[rng.random(base.shape) < 0.3] = 0.0
    seq = [base]
    for _ in range(5):
        m = seq[-1].copy()
        rows = rng.random(100) < 0.3
        m[rows, 0], m[rows, 1] = m[rows, 1], m[rows, 0].copy()
        m[rng.random(m.shape) < 0.1] *= -1.0
        seq.append(m)
    yield seq


@pytest.mark.blas_threads
def test_simplex_rows_ordered_matches_rows_raw_bitwise():
    # The tall-matrix kernel, given the orders of its previous call (none on
    # the first), returns _simplex_rows_raw's bits, and the orders it
    # returns list each row in descending order.
    rng = np.random.default_rng(53)
    resorted = 0
    for seq in perturbed_sequences(rng):
        order = None
        for m in seq:
            before = None if order is None else order.copy()
            w, order = _simplex_rows_ordered(m, order)
            assert w.tobytes() == _simplex_rows_raw(m).tobytes()
            assert order.shape == m.shape[::-1]
            # Each column a permutation of its row's flat positions.
            assert np.array_equal(np.sort(order, axis=0),
                                  np.arange(m.size).reshape(m.shape).T)
            u = m.reshape(-1)[order]
            assert np.array_equal(u, -np.sort(-m, axis=1).T)
            if before is not None:
                resorted += (order != before).any(axis=0).sum()
    assert resorted > 100
