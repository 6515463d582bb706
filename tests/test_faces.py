"""Unit tests for the gray-scale image pipeline."""

import itertools
import math

import numpy as np
import pytest

import smf.factors
from smf import (
    FactorPair,
    GrayImage,
    Mode,
    Orientation,
    SolverConfig,
    concentrate_w,
    downsample_2x2,
    factorize,
    generate,
    read_pgm,
    reconstruct,
    reconstruction_error,
    retrieve,
    write_pgm,
)
from smf.linalg import pseudoinverse, simplex_project


def grid255(seed, shape=(19, 19)):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=shape).astype(np.float64) / 255.0


# -------------------------------------------------------------- gray image


def test_gray_image_validation():
    GrayImage(pixels=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        GrayImage(pixels=np.zeros(4))
    with pytest.raises(ValueError):
        GrayImage(pixels=np.array([[1.5, 0.0]]))
    with pytest.raises(ValueError):
        GrayImage(pixels=np.array([[-0.1, 0.0]]))
    with pytest.raises(ValueError):
        GrayImage(pixels=np.array([[np.nan, 0.0]]))


@pytest.mark.parametrize("value, message", [
    (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"),
    (-0.1, "\\[0, 1\\]"), (1.5, "\\[0, 1\\]"),
])
def test_gray_image_names_the_failed_check(value, message):
    with pytest.raises(ValueError, match=message):
        GrayImage(pixels=np.array([[0.5, value], [0.0, 1.0]]))


def test_gray_image_copies_a_writeable_caller_array():
    a = np.zeros((2, 2))
    img = GrayImage(pixels=a)
    a[0, 0] = 1.0
    assert a.flags.writeable
    assert not img.pixels.flags.writeable
    assert img.pixels[0, 0] == 0.0


def test_gray_image_accessors():
    img = GrayImage(pixels=np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]))
    assert img.height == 2
    assert img.width == 3
    flat = img.flatten()
    assert np.array_equal(flat, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    flat[0] = 0.9
    assert img.pixels[0, 0] == 0.1


# -------------------------------------------------------------- downsample


def test_downsample_constant_image():
    out = downsample_2x2(GrayImage(pixels=np.full((19, 19), 0.37)))
    assert out.pixels.shape == (9, 9)
    assert np.allclose(out.pixels, 0.37, atol=1e-15)


def test_downsample_checkerboard_averages_to_half():
    i, j = np.indices((19, 19))
    board = ((i + j) % 2).astype(np.float64)
    out = downsample_2x2(GrayImage(pixels=board))
    assert np.allclose(out.pixels, 0.5, atol=1e-15)


def test_downsample_block_mean_example():
    px = np.zeros((19, 19))
    px[0, 0], px[0, 1], px[1, 0], px[1, 1] = 0.1, 0.2, 0.3, 0.4
    out = downsample_2x2(GrayImage(pixels=px))
    assert out.pixels[0, 0] == pytest.approx(0.25, abs=1e-15)


def test_downsample_discards_last_row_and_column():
    px = np.zeros((19, 19))
    px[18, :] = 1.0
    px[:, 18] = 1.0
    out = downsample_2x2(GrayImage(pixels=px))
    assert np.all(out.pixels == 0.0)


def test_downsample_requires_19x19():
    with pytest.raises(ValueError):
        downsample_2x2(GrayImage(pixels=np.zeros((18, 18))))


# --------------------------------------------------------------------- pgm


@pytest.mark.parametrize("binary", [False, True])
def test_pgm_round_trip_is_exact_on_grid(tmp_path, binary):
    img = GrayImage(pixels=grid255(1))
    path = tmp_path / "img.pgm"
    write_pgm(img, path, binary=binary)
    back = read_pgm(path)
    assert np.array_equal(back.pixels, img.pixels)


def test_pgm_ascii_and_binary_agree(tmp_path):
    img = GrayImage(pixels=grid255(2, shape=(5, 7)))
    write_pgm(img, tmp_path / "a.pgm", binary=False)
    write_pgm(img, tmp_path / "b.pgm", binary=True)
    a = read_pgm(tmp_path / "a.pgm")
    b = read_pgm(tmp_path / "b.pgm")
    assert np.array_equal(a.pixels, b.pixels)
    assert (tmp_path / "a.pgm").read_bytes()[:2] == b"P2"
    assert (tmp_path / "b.pgm").read_bytes()[:2] == b"P5"


def test_pgm_write_quantizes_to_255_levels(tmp_path):
    img = GrayImage(pixels=np.array([[0.123456, 0.5], [0.0, 1.0]]))
    write_pgm(img, tmp_path / "q.pgm")
    back = read_pgm(tmp_path / "q.pgm")
    assert np.max(np.abs(back.pixels - img.pixels)) <= 0.5 / 255.0 + 1e-12
    assert back.pixels[1, 0] == 0.0
    assert back.pixels[1, 1] == 1.0


def test_pgm_reader_handles_comments_and_whitespace(tmp_path):
    text = "P2\n# a comment\n2 # trailing comment\n 2\n255\n0 128\n\n255 64\n"
    path = tmp_path / "c.pgm"
    path.write_text(text, encoding="ascii")
    img = read_pgm(path)
    assert img.pixels.shape == (2, 2)
    assert img.pixels[0, 1] == pytest.approx(128 / 255)
    assert img.pixels[1, 0] == 1.0


def test_pgm_reader_scales_by_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_text("P2\n2 1\n16\n8 16\n", encoding="ascii")
    img = read_pgm(path)
    assert np.allclose(img.pixels, [[0.5, 1.0]], atol=1e-15)


def test_pgm_reader_rejects_corrupt_files(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_text("P3\n1 1\n255\n0\n", encoding="ascii")
    with pytest.raises(ValueError, match="P2 or P5"):
        read_pgm(path)
    path.write_text("P2\n2 2\n255\n0 1 2\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_pgm(path)
    path.write_text("P2\n1 1\n300\n299\n", encoding="ascii")
    with pytest.raises(ValueError, match="maxval"):
        read_pgm(path)
    path.write_text("P2\n1 1\n255\n256\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_pgm(path)
    path.write_text("P2\n2 2\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_pgm(path)
    # binary payload one byte short
    payload = b"P5\n2 2\n255\n" + bytes([1, 2, 3])
    path.write_bytes(payload)
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(path)


# ------------------------------------------------------------- reconstruct


def base_images():
    # two 2x2 base images flattened to rows of H
    h = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    return h


def test_reconstruct_unit_weight_returns_base_image():
    h = base_images()
    img = reconstruct(np.array([1.0, 0.0]), h)
    assert np.array_equal(img.pixels, [[1.0, 0.0], [0.0, 0.0]])


def test_reconstruct_mixes_linearly():
    h = base_images()
    img = reconstruct(np.array([0.25, 0.75]), h)
    assert img.pixels[0, 0] == pytest.approx(0.25)
    assert img.pixels[1, 1] == pytest.approx(0.75)


def test_reconstruct_validates_input():
    h = base_images()
    with pytest.raises(ValueError, match="simplex"):
        reconstruct(np.array([0.7, 0.7]), h)
    with pytest.raises(ValueError, match="simplex"):
        reconstruct(np.array([1.1, -0.1]), h)
    with pytest.raises(ValueError, match="match"):
        reconstruct(np.array([1.0]), h)
    with pytest.raises(ValueError, match="square"):
        reconstruct(np.array([0.5, 0.5]), np.ones((2, 5)) * 0.5)
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        reconstruct(np.array([0.5, 0.5]), np.array([[1.2, 0, 0, 0],
                                                    [0, 0, 0, 1.0]]))


# ---------------------------------------------------------------- retrieve


def retrieval_model():
    w = np.array([
        [1.0, 0.0],
        [0.0, 1.0],
        [0.5, 0.5],
    ])
    h = np.array([
        [1.0, 0.8, 0.0, 0.1],
        [0.0, 0.2, 0.9, 0.6],
    ])
    return FactorPair(w=w, h=h, orientation=Orientation.W_ROWS_SUM_TO_1)


def retrieve_reference(query, model):
    # retrieve as first written: every row's distance, then the first minimum.
    diff = model.w - simplex_project(query.flatten() @ model.h_pinv)
    sq = np.einsum("ij,ij->i", diff, diff)
    idx = int(np.argmin(sq))
    return idx, math.sqrt(sq[idx])


def assert_retrieve_matches_reference(model, queries):
    # Index and distance bits equal to the reference for every query.
    side = math.isqrt(queries.shape[1])
    for q in queries:
        query = GrayImage(pixels=q.reshape(side, side))
        assert retrieve(query, model) == retrieve_reference(query, model)


def test_retrieve_finds_exact_rows():
    model = retrieval_model()
    x = model.w @ model.h
    for i in range(3):
        idx, dist = retrieve(GrayImage(pixels=x[i].reshape(2, 2)), model)
        assert idx == i
        assert dist < 1e-10


def test_retrieve_breaks_ties_toward_lowest_index():
    w = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
    h = retrieval_model().h
    model = FactorPair(w=w, h=h, orientation=Orientation.W_ROWS_SUM_TO_1)
    query = GrayImage(pixels=(w[1] @ h).reshape(2, 2))
    idx, _ = retrieve(query, model)
    assert idx == 0


def test_retrieve_computes_pinv_once_per_model(monkeypatch):
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(1)
        return pseudoinverse(a, *args, **kwargs)

    monkeypatch.setattr(smf.factors, "pseudoinverse", counting)
    model = retrieval_model()
    x = model.w @ model.h
    for k in range(50):
        retrieve(GrayImage(pixels=x[k % 3].reshape(2, 2)), model)
    assert len(calls) == 1


def test_retrieve_matches_per_query_pinv_reference():
    # A criterion-7 style instance: 19x19 images downsampled to 9x9, R=10,
    # projected fit.  Reference: the per-query formula that recomputes
    # pinv(H) and every distance.
    x19, _ = generate(600, 361, 10, anchors=True, noise_sigma=0.02,
                      orientation=Orientation.W_ROWS_SUM_TO_1, seed=7)
    x9 = np.stack([downsample_2x2(GrayImage(pixels=row.reshape(19, 19))).flatten()
                   for row in x19])
    cfg = SolverConfig(rank=10, orientation=Orientation.W_ROWS_SUM_TO_1,
                       restarts=1, seed=0, mode=Mode.PROJECTED)
    model = factorize(x9, cfg).factors
    for i in range(len(x9)):
        query = GrayImage(pixels=x9[i].reshape(9, 9))
        w_q = simplex_project(query.flatten() @ pseudoinverse(model.h))
        dists = np.sqrt(np.sum((model.w - w_q) ** 2, axis=1))
        want = int(np.argmin(dists))
        idx, dist = retrieve(query, model)
        assert (idx, dist) == retrieve_reference(query, model)
        assert idx == want
        # Two summation orders of 10 non-negative squares differ by at most
        # 2 * 9 u relative (u = eps / 2); after the square roots, and their
        # own rounding, that is under 1.5e-15.
        assert dist == pytest.approx(dists[want], rel=1.5e-15, abs=0.0)


def test_retrieve_breaks_ties_between_distant_duplicates_toward_lowest_index():
    # Exact duplicate rows at indices 3, 9 and 17, the nearest for a query
    # at their image, and rows 1 ulp apart in one entry at 5 and 12.
    rng = np.random.default_rng(3)
    w = rng.dirichlet(np.ones(4), size=20)
    w[[9, 17]] = w[3]
    w[12] = w[5]
    w[12, 0] = np.nextafter(w[5, 0], 1.0)
    h = rng.uniform(0.0, 1.0, size=(4, 16))
    model = FactorPair(w=w, h=h, orientation=Orientation.W_ROWS_SUM_TO_1)
    x = w @ h
    assert retrieve(GrayImage(pixels=x[17].reshape(4, 4)), model)[0] == 3
    assert retrieve(GrayImage(pixels=x[12].reshape(4, 4)), model)[0] in (5, 12)
    queries = np.vstack([x, np.clip(x + rng.normal(scale=0.01, size=x.shape), 0, 1)])
    assert_retrieve_matches_reference(model, queries)


def test_retrieve_matches_reference_among_rounding_ties():
    # The rows are p + v for every permutation v of one vector, p being the
    # query's projected weights: 120 rows at the same exact distance, whose
    # computed distances differ in their last bits.  The nearest by the
    # matrix-vector product alone is the reference's answer in only about
    # 1 of 20 such models, so this checks the exact recheck.
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = rng.uniform(0.0, 1.0, size=(5, 16))
        q = rng.uniform(0.0, 1.0, size=16)
        p = simplex_project(q @ pseudoinverse(h))
        w = p + np.array(list(itertools.permutations(rng.normal(scale=0.05, size=5))))
        model = FactorPair(w=w, h=h, orientation=Orientation.W_ROWS_SUM_TO_1)
        assert_retrieve_matches_reference(model, q[None])


def test_retrieve_matches_reference_off_the_simplex():
    # The unprojected W = X pinv(H) of a fit of noisy data: W has negative
    # entries and rows that do not sum to 1, so the rows' norms are not those
    # of simplex points.
    x, _ = generate(200, 36, 5, anchors=True, noise_sigma=0.05,
                    orientation=Orientation.W_ROWS_SUM_TO_1, seed=3)
    x = np.clip(x, 0.0, 1.0)
    cfg = SolverConfig(rank=5, orientation=Orientation.W_ROWS_SUM_TO_1,
                       restarts=1, seed=3)
    h = factorize(x, cfg).factors.h
    model = FactorPair(w=concentrate_w(x, h), h=h,
                       orientation=Orientation.W_ROWS_SUM_TO_1)
    assert model.w.min() < 0.0
    assert np.abs(model.w.sum(axis=1) - 1.0).max() > 1e-3
    noisy = np.random.default_rng(3).normal(scale=0.05, size=x.shape)
    assert_retrieve_matches_reference(
        model, np.vstack([x, np.clip(x + noisy, 0.0, 1.0)]))


def test_retrieve_matches_reference_at_rank_1():
    # Every query's weights project to [1.0].  Rows 1, 2, 4 and 5 all lie
    # 0.25 from it, and the first of them wins.
    w = np.array([[0.5], [1.25], [0.75], [-2.0], [1.25], [0.75]])
    h = np.array([[0.2, 0.4, 0.6, 0.8]])
    model = FactorPair(w=w, h=h, orientation=Orientation.W_ROWS_SUM_TO_1)
    assert retrieve(GrayImage(pixels=h.reshape(2, 2)), model) == (1, 0.25)
    assert_retrieve_matches_reference(model, np.array([[0.0, 0.5, 1.0, 0.25],
                                                       [0.2, 0.4, 0.6, 0.8]]))


def test_retrieve_reads_read_only_pixels_in_place():
    # A read-only view at an 8-byte offset is used without a copy and
    # gives the reference's answer.
    model = retrieval_model()
    buf = np.zeros(5)
    buf[1:] = (model.w[2] @ model.h) * 0.9
    buf.setflags(write=False)
    query = GrayImage(pixels=buf[1:].reshape(2, 2))
    assert np.shares_memory(query.pixels, buf)
    assert retrieve(query, model) == retrieve_reference(query, model)


def test_retrieve_rejects_wrong_pixel_count():
    with pytest.raises(ValueError, match="pixels"):
        retrieve(GrayImage(pixels=np.zeros((3, 3))), retrieval_model())


# ---------------------------------------------------- reconstruction error


def test_reconstruction_error_zero_for_exact():
    model = retrieval_model()
    x = model.w @ model.h
    assert reconstruction_error(x, model) == 0.0


def test_reconstruction_error_frozen_value():
    model = retrieval_model()
    x = (model.w @ model.h).copy()
    x[0, 0] += 0.1
    # one squared gap of 0.01 averaged over 12 cells
    assert reconstruction_error(x, model) == pytest.approx(0.01 / 12, rel=1e-12)


def test_reconstruction_error_shape_check():
    with pytest.raises(ValueError):
        reconstruction_error(np.zeros((2, 2)), retrieval_model())
