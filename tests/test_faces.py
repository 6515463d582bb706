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
    GrayImage(pixels=np.array([[-0.0, 1.0]]))
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
    (-0.1, "\\[0, 1\\]"), (1.5, "\\[0, 1\\]"), (-1e-300, "\\[0, 1\\]"),
    (np.nextafter(1.0, 2.0), "\\[0, 1\\]"),
])
def test_gray_image_names_the_failed_check(value, message):
    with pytest.raises(ValueError, match=message):
        GrayImage(pixels=np.array([[0.5, value], [0.0, 1.0]]))


@pytest.mark.parametrize("pixels", [[[-0.5, np.nan]], [[2.0, -np.inf]]])
def test_gray_image_names_a_non_finite_entry_beside_an_out_of_range_one(pixels):
    with pytest.raises(ValueError, match="finite"):
        GrayImage(pixels=np.array(pixels))


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


@pytest.mark.blas_threads
def test_downsample_constant_image():
    out = downsample_2x2(GrayImage(pixels=np.full((19, 19), 0.37)))
    assert out.pixels.shape == (9, 9)
    assert np.allclose(out.pixels, 0.37, atol=1e-15)


@pytest.mark.blas_threads
def test_downsample_checkerboard_averages_to_half():
    i, j = np.indices((19, 19))
    board = ((i + j) % 2).astype(np.float64)
    out = downsample_2x2(GrayImage(pixels=board))
    assert np.allclose(out.pixels, 0.5, atol=1e-15)


@pytest.mark.blas_threads
def test_downsample_block_mean_example():
    px = np.zeros((19, 19))
    px[0, 0], px[0, 1], px[1, 0], px[1, 1] = 0.1, 0.2, 0.3, 0.4
    out = downsample_2x2(GrayImage(pixels=px))
    assert out.pixels[0, 0] == pytest.approx(0.25, abs=1e-15)


@pytest.mark.blas_threads
def test_downsample_discards_last_row_and_column():
    px = np.zeros((19, 19))
    px[18, :] = 1.0
    px[:, 18] = 1.0
    out = downsample_2x2(GrayImage(pixels=px))
    assert np.all(out.pixels == 0.0)


def block_mean_reference(px):
    # The 2x2 block means as first written: numpy's mean over each block.
    return px[:18, :18].reshape(9, 2, 9, 2).mean(axis=(1, 3))


@pytest.mark.blas_threads
@pytest.mark.parametrize("kind", ["random", "quantized", "zeros", "ones",
                                  "checkerboard"])
def test_downsample_is_bitwise_the_block_mean(kind):
    rng = np.random.default_rng(11)
    i, j = np.indices((19, 19))
    images = {
        "random": rng.uniform(0.0, 1.0, size=(300, 19, 19)),
        "quantized": rng.integers(0, 256, size=(300, 19, 19)) / 255.0,
        "zeros": np.zeros((1, 19, 19)),
        "ones": np.ones((1, 19, 19)),
        "checkerboard": ((i + j) % 2).astype(np.float64)[None],
    }[kind]
    for px in images:
        out = downsample_2x2(GrayImage(pixels=px)).pixels
        assert out.shape == (9, 9) and not out.flags.writeable
        assert out.tobytes() == block_mean_reference(px).tobytes()


def assert_valid_read_only_image(img):
    # An image the module built itself: read-only, with no writeable array
    # behind it, and bitwise the image the public constructor, which checks
    # its pixels, makes of a copy.
    px = img.pixels
    assert not px.flags.writeable
    assert px.base is None or not px.base.flags.writeable
    checked = GrayImage(pixels=px.copy()).pixels
    assert px.dtype == checked.dtype and px.shape == checked.shape
    assert px.tobytes() == checked.tobytes()


@pytest.mark.blas_threads
def test_downsample_reconstruct_and_read_pgm_build_valid_read_only_images(tmp_path):
    # Random valid 19x19 inputs, among them ones at 0 and 1 exactly and
    # mixtures whose rounding the clip to [0, 1] absorbs.
    rng = np.random.default_rng(43)
    for k in range(60):
        px = (rng.integers(0, 2, size=(19, 19)).astype(np.float64) if k % 4 == 0
              else rng.uniform(0.0, 1.0, size=(19, 19)))
        assert_valid_read_only_image(downsample_2x2(GrayImage(pixels=px)))
        r = int(rng.integers(1, 6))
        weights = rng.dirichlet(np.ones(r))
        h = rng.uniform(0.0, 1.0, size=(r, 361))
        if k % 3 == 0:
            h[:, rng.random(361) < 0.5] = 1.0
            weights[0] += 5e-7
        assert_valid_read_only_image(reconstruct(weights, h))
        maxval = int(rng.integers(1, 256))
        values = rng.integers(0, maxval + 1, size=(19, 19))
        head = f"19 19\n{maxval}\n".encode("ascii")
        (tmp_path / "a.pgm").write_bytes(
            b"P2\n" + head + " ".join(map(str, values.ravel())).encode("ascii"))
        (tmp_path / "b.pgm").write_bytes(b"P5\n" + head + values.astype(np.uint8).tobytes())
        for name in ("a.pgm", "b.pgm"):
            img = read_pgm(tmp_path / name)
            assert_valid_read_only_image(img)
            assert img.pixels.tobytes() == (values / maxval).tobytes()


@pytest.mark.blas_threads
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


def reference_read_pgm(data):
    """The byte-at-a-time header loop and line-split pixel tokenizer that
    read_pgm replaced, on the file's bytes, each header value and P2 pixel
    token checked to be ASCII decimal digits."""
    def tokens_ascii(body):
        for line in body.split(b"\n"):
            line = line.split(b"#", 1)[0]
            for tok in line.split():
                yield tok

    if data[:2] not in (b"P2", b"P5"):
        raise ValueError("not a PGM file (expected P2 or P5 magic)")
    magic = data[:2].decode("ascii")
    header = []
    pos = 2
    token = b""
    while len(header) < 3 and pos < len(data):
        ch = data[pos:pos + 1]
        pos += 1
        if ch == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        if ch.isspace():
            if token:
                header.append(token)
                token = b""
            continue
        token += ch
    if len(header) < 3:
        raise ValueError("truncated PGM header")
    if not all(t.isdigit() for t in header):
        raise ValueError("PGM header values must be ASCII decimal digits")
    width, height, maxval = (int(t) for t in header)
    if width <= 0 or height <= 0:
        raise ValueError("PGM dimensions must be positive")
    if not (0 < maxval <= 255):
        raise ValueError(f"PGM maxval must be in 1..{255}, got {maxval}")
    count = width * height
    if magic == "P5":
        raw = data[pos:pos + count]
        if len(raw) < count:
            raise ValueError("truncated PGM pixel data")
        values = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
    else:
        toks = list(tokens_ascii(data[pos - 1:]))
        if len(toks) < count:
            raise ValueError("truncated PGM pixel data")
        if not all(t.isdigit() for t in toks[:count]):
            raise ValueError("PGM pixel values must be ASCII decimal digits")
        values = np.array([int(t) for t in toks[:count]], dtype=np.float64)
    if values.max(initial=0.0) > maxval:
        raise ValueError("PGM pixel value exceeds declared maxval")
    return GrayImage(pixels=(values / maxval).reshape(height, width))


def pgm_outcome(read, arg):
    try:
        img = read(arg)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
        return type(exc), str(exc)
    return img.pixels.shape, img.pixels.tobytes()


def assert_reads_like_reference(path, data):
    path.write_bytes(data)
    assert pgm_outcome(read_pgm, path) == pgm_outcome(reference_read_pgm, data), data


@pytest.mark.parametrize("data, want", [
    # A comment directly after maxval: the header ends at its newline.
    (b"P5\n2 1\n255#c 9\n\x07\x09", [[7, 9]]),
    (b"P2\n2 1\n255#c 9\n7 9\n", [[7, 9]]),
    # A comment that runs to the end of the file after maxval.
    (b"P5\n2 1\n255#c", "truncated PGM header"),
    (b"P2 2 1 255# 7 9", "truncated PGM header"),
    (b"P2 2 1 255 # 7 9", "truncated PGM pixel data"),
    # Token-like runs inside comments are not tokens.
    (b"P2\n# 3 3\n2 1\n255\n# 5 6\n1 2 # 8\n", [[1, 2]]),
    (b"P2\n2#x\n1 255 3#4\n5", [[3, 5]]),
    # A P2 file one token short.
    (b"P2\n2 2\n255\n1 2 3\n", "truncated PGM pixel data"),
    (b"P2\n2 2\n255\n1 2 3 # 4\n", "truncated PGM pixel data"),
    # Header values and P2 pixels are ASCII decimal digits, nothing else
    # that int() would take; leading zeros are digits.
    (b"P2\n1_0 1\n255\n" + b"1 " * 10, "header values must be ASCII decimal"),
    (b"P2\n+2 1\n255\n1 2\n", "header values must be ASCII decimal"),
    (b"P2\n2 -0\n255\n", "header values must be ASCII decimal"),
    (b"P5\n1 1\n\xd9\xa3\n\x07", "header values must be ASCII decimal"),
    (b"P2\n2 1\n255\n1_0 2\n", "pixel values must be ASCII decimal"),
    (b"P2\n2 1\n255\n1 +2\n", "pixel values must be ASCII decimal"),
    (b"P2\n2 1\n255\n-0 2\n", "pixel values must be ASCII decimal"),
    (b"P2\n2 1\n255\n-1 2\n", "pixel values must be ASCII decimal"),
    (b"P2\n2 1\n255\n\xd9\xa3 2\n", "pixel values must be ASCII decimal"),
    (b"P2\n2 1\n0255\n007 2\n", [[7, 2]]),
])
def test_pgm_token_grammar_cases(tmp_path, data, want):
    path = tmp_path / "case.pgm"
    assert_reads_like_reference(path, data)
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            read_pgm(path)
    else:
        assert np.array_equal(read_pgm(path).pixels * 255.0, want)


# Whitespace of every kind (and \x1c, which is not whitespace to bytes),
# comments with and without token-like runs, numbers and stray bytes.
_PGM_FRAGMENTS = (b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c", b"\x1c", b"#",
                  b"# 7 x\n", b"#9", b"0", b"1", b"2", b"3", b"7", b"12", b"255",
                  b"256", b"-1", b"+2", b"1_0", b"x", b"\xff")


def fuzzed_pgm(rng):
    pick = lambda: _PGM_FRAGMENTS[rng.integers(len(_PGM_FRAGMENTS))]  # noqa: E731
    magic = (b"P2", b"P5", b"P2", b"P5", b"P3")[rng.integers(5)]
    if rng.random() < 0.3:
        return magic + b"".join(pick() for _ in range(rng.integers(0, 12)))
    w, h = (int(v) for v in rng.integers(1, 4, size=2))
    seps = (b" ", b"\n", b"\t", b"\r\n", b" # c 5\n", b"#\n")
    sep = lambda: seps[rng.integers(len(seps))]  # noqa: E731
    data = magic + sep() + b"%d" % w + sep() + b"%d" % h + sep()
    data += b"255" + (b" ", b"\n", b"#z 4\n", b"\t")[rng.integers(4)]
    if magic == b"P5":
        data += rng.integers(0, 256, size=w * h + 1).astype(np.uint8).tobytes()
    else:
        data += b"".join(b"%d" % v + sep() for v in rng.integers(0, 256, size=w * h))
    for _ in range(rng.integers(0, 3)):
        at = int(rng.integers(len(data) + 1))
        how = rng.integers(3)
        if how == 0:
            data = data[:at] + pick() + data[at:]
        elif how == 1:
            data = data[:at] + data[at + 1:]
        else:
            data = data[:at]
    return data


def test_pgm_reader_matches_reference_on_fuzzed_files(tmp_path):
    rng = np.random.default_rng(2020)
    path = tmp_path / "fuzz.pgm"
    outcomes = set()
    for _ in range(3000):
        data = fuzzed_pgm(rng)
        assert_reads_like_reference(path, data)
        outcomes.add(pgm_outcome(reference_read_pgm, data)[1])
    # Reads that succeed (pixel bytes) and each way of failing all occur.
    assert {"truncated PGM header", "truncated PGM pixel data",
            "PGM pixel value exceeds declared maxval",
            "PGM dimensions must be positive",
            "PGM header values must be ASCII decimal digits",
            "PGM pixel values must be ASCII decimal digits"} <= outcomes
    assert any(isinstance(k, bytes) for k in outcomes)


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
    with pytest.raises(ValueError, match="vector"):
        reconstruct(np.array([[0.5, 0.5]]), h)
    with pytest.raises(ValueError, match="finite"):
        reconstruct(np.array([np.nan, 0.5]), h)
    with pytest.raises(ValueError, match="finite"):
        reconstruct(np.array([0.5, 0.5]), np.where(h == 1.0, np.inf, h))


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


@pytest.mark.blas_threads
def test_retrieve_finds_exact_rows():
    model = retrieval_model()
    x = model.w @ model.h
    for i in range(3):
        idx, dist = retrieve(GrayImage(pixels=x[i].reshape(2, 2)), model)
        assert idx == i
        assert dist < 1e-10


@pytest.mark.blas_threads
def test_retrieve_breaks_ties_toward_lowest_index():
    w = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
    h = retrieval_model().h
    model = FactorPair(w=w, h=h, orientation=Orientation.W_ROWS_SUM_TO_1)
    query = GrayImage(pixels=(w[1] @ h).reshape(2, 2))
    idx, _ = retrieve(query, model)
    assert idx == 0


@pytest.mark.blas_threads
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


@pytest.mark.blas_threads
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


@pytest.mark.blas_threads
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


@pytest.mark.blas_threads
def test_retrieve_matches_reference_at_criterion_7_size():
    # The images workload's shape: 2400 stored rows on the 10-simplex and
    # 81-pixel base images.  Every stored image and 500 random images are
    # queried.
    rng = np.random.default_rng(22)
    w = rng.dirichlet(np.full(10, 0.3), size=2400)
    h = rng.uniform(0.0, 1.0, size=(10, 81))
    model = FactorPair(w=w, h=h, orientation=Orientation.W_ROWS_SUM_TO_1)
    stored = np.clip(w @ h, 0.0, 1.0)
    assert_retrieve_matches_reference(
        model, np.vstack([stored, rng.uniform(0.0, 1.0, size=(500, 81))]))


@pytest.mark.blas_threads
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


@pytest.mark.blas_threads
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
    model = FactorPair(w=x @ pseudoinverse(h), h=h,
                       orientation=Orientation.W_ROWS_SUM_TO_1)
    assert model.w.min() < 0.0
    assert np.abs(model.w.sum(axis=1) - 1.0).max() > 1e-3
    noisy = np.random.default_rng(3).normal(scale=0.05, size=x.shape)
    assert_retrieve_matches_reference(
        model, np.vstack([x, np.clip(x + noisy, 0.0, 1.0)]))


@pytest.mark.blas_threads
def test_retrieve_matches_reference_at_rank_1():
    # Every query's weights project to [1.0].  Rows 1, 2, 4 and 5 all lie
    # 0.25 from it, and the first of them wins.
    w = np.array([[0.5], [1.25], [0.75], [-2.0], [1.25], [0.75]])
    h = np.array([[0.2, 0.4, 0.6, 0.8]])
    model = FactorPair(w=w, h=h, orientation=Orientation.W_ROWS_SUM_TO_1)
    assert retrieve(GrayImage(pixels=h.reshape(2, 2)), model) == (1, 0.25)
    assert_retrieve_matches_reference(model, np.array([[0.0, 0.5, 1.0, 0.25],
                                                       [0.2, 0.4, 0.6, 0.8]]))


@pytest.mark.blas_threads
def test_retrieve_copies_read_only_pixels_at_an_offset():
    # A read-only view at an 8-byte offset is copied, like every input,
    # and gives the reference's answer.
    model = retrieval_model()
    buf = np.zeros(5)
    buf[1:] = (model.w[2] @ model.h) * 0.9
    buf.setflags(write=False)
    query = GrayImage(pixels=buf[1:].reshape(2, 2))
    assert not np.shares_memory(query.pixels, buf)
    assert query.pixels.tobytes() == buf[1:].tobytes()
    assert retrieve(query, model) == retrieve_reference(query, model)


@pytest.mark.parametrize("source", ["view", "bytearray", "owner"])
def test_image_does_not_change_when_its_source_buffer_is_written(source):
    # A read-only array over memory the caller can still write is copied,
    # so neither the image nor an image derived from it sees the write.  An
    # owner can switch writing back on, so a read-only owner is copied too.
    buf = np.full((19, 19), 0.5)
    if source == "view":
        px = buf.view()
    elif source == "bytearray":
        raw = bytearray(buf.tobytes())
        px = np.frombuffer(raw, dtype=np.float64).reshape(19, 19)
    else:
        px = buf
    px.setflags(write=False)
    img = GrayImage(pixels=px)
    assert not np.shares_memory(img.pixels, px)
    if source == "bytearray":
        raw[:] = np.full(361, 5.0).tobytes()
    else:
        buf.setflags(write=True)
        buf[:] = 5.0
    assert px.max() == 5.0
    assert np.all(img.pixels == 0.5)
    assert np.all(downsample_2x2(img).pixels == 0.5)


def test_image_copies_read_only_pixels_over_immutable_bytes():
    px = np.frombuffer(np.full(4, 0.25).tobytes(), dtype=np.float64).reshape(2, 2)
    img = GrayImage(pixels=px)
    assert not np.shares_memory(img.pixels, px)
    assert not img.pixels.flags.writeable
    assert img.pixels.tobytes() == px.tobytes()


def retrieve_scan_reference(query, model):
    # retrieve with the candidate scan as first written: max(), a mask, its
    # negation and nonzero.  Also returns the rows that scan kept.
    p = simplex_project(query.flatten() @ model.h_pinv)
    wt, c, max_sq = model.w_search
    m = math.sqrt(max_sq) + 1.0
    tol = 4.0 * (p.size + 2) * np.finfo(np.float64).eps * (m * m)
    s = p @ wt
    s += c
    rows = (~(s < s.max() - tol)).nonzero()[0]
    diff = model.w[rows] - p
    sq = np.einsum("ij,ij->i", diff, diff)
    k = int(np.argmin(sq))
    return (int(rows[k]), math.sqrt(sq[k])), rows.tolist()


def crafted_scores(case, tol):
    # Six scores 1 apart, the largest at index 1, and then one case's change.
    s = np.array([-3.5, -0.5, -2.5, -5.5, -1.5, -4.5])
    top = s[1]
    if case == "two within tol":
        s[4] = top - tol / 2
    elif case == "one at the threshold":
        s[0] = top - tol
    elif case == "tie at the maximum":
        s[5] = top
    elif case == "nan":
        s[3] = np.nan
    elif case == "all -inf":
        s[:] = -np.inf
    return s


@pytest.mark.blas_threads
@pytest.mark.parametrize("case, kept", [
    ("one within tol", 1), ("two within tol", 2), ("one at the threshold", 2),
    ("tie at the maximum", 2), ("nan", 6), ("all -inf", 6)])
def test_retrieve_scan_matches_first_scan_on_crafted_scores(case, kept):
    # The scores are planted through w_search, with W transposed replaced by
    # zeros, so p @ wt + c is c; the distances of the kept rows are W's.
    rng = np.random.default_rng(len(case))
    w = rng.dirichlet(np.ones(3), size=6)
    model = FactorPair(w=w, h=rng.uniform(0.0, 1.0, size=(3, 4)),
                       orientation=Orientation.W_ROWS_SUM_TO_1)
    wt, _, max_sq = model.w_search
    m = math.sqrt(max_sq) + 1.0
    tol = 4.0 * (3 + 2) * np.finfo(np.float64).eps * (m * m)
    model.__dict__["w_search"] = (np.zeros_like(wt), crafted_scores(case, tol), max_sq)
    for q in rng.uniform(0.0, 1.0, size=(20, 4)):
        query = GrayImage(pixels=q.reshape(2, 2))
        want, rows = retrieve_scan_reference(query, model)
        assert len(rows) == kept
        assert retrieve(query, model) == want


@pytest.mark.blas_threads
def test_retrieve_scan_keeps_every_row_when_tol_is_infinite():
    # A row of W whose squared norm overflows makes max_sq, and so the
    # rounding tolerance, infinite: every row is rechecked, and the answer
    # is the nearest finite row.
    rng = np.random.default_rng(9)
    w = rng.dirichlet(np.ones(3), size=8)
    w[2] = [1e200, -1e200, 0.0]
    model = FactorPair(w=w, h=rng.uniform(0.0, 1.0, size=(3, 4)),
                       orientation=Orientation.W_ROWS_SUM_TO_1)
    assert model.w_search[2] == math.inf
    for q in rng.uniform(0.0, 1.0, size=(20, 4)):
        query = GrayImage(pixels=q.reshape(2, 2))
        want, rows = retrieve_scan_reference(query, model)
        assert rows == list(range(8)) and want[0] != 2
        assert retrieve(query, model) == want


@pytest.mark.blas_threads
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
