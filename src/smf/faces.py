"""Gray-scale image compression, reconstruction, and retrieval pipeline.

Images are small gray-scale rasters with intensities in [0, 1], stored on
disk as PGM (ASCII ``P2`` or binary ``P5``, maxval 255).  A fitted factor
pair compresses each image row of X into its R mixture weights; those
weights reconstruct approximate images and support nearest-neighbor lookup
in R dimensions instead of pixel space.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .factors import FactorPair, _data_matrix
from .linalg import _frozen, simplex_project

__all__ = [
    "GrayImage",
    "downsample_2x2",
    "read_pgm",
    "reconstruct",
    "reconstruction_error",
    "retrieve",
    "write_pgm",
]

_PGM_MAXVAL = 255
# The PGM token grammar: whitespace separates lexemes, and a lexeme is a
# '#' comment, which runs to the end of its line, or a token (group 1), a
# run of bytes that are neither whitespace nor '#'.  Every other byte is
# whitespace, so a scan for lexemes skips nothing else.  A header value or
# P2 pixel token must be ASCII decimal digits.  The header ends at the one
# whitespace byte after maxval, once any comment there has run out.
_PGM_LEXEME = re.compile(rb"#[^\n]*|([^\s#]+)")
_PGM_HEADER_END = re.compile(rb"#[^\n]*\n|\s")
_WEIGHT_SUM_TOL = 1e-6
_EPS = float(np.finfo(np.float64).eps)
_MIN, _MAX = np.minimum.reduce, np.maximum.reduce


@dataclass(frozen=True)
class GrayImage:
    """Rectangular gray-scale raster with intensities in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        p = _frozen(self.pixels)
        if p.ndim != 2 or p.size == 0:
            raise ValueError("image must be a non-empty 2-dimensional array")
        # NaN and +-inf fail the range test too; only then is the input
        # scanned to tell the two errors apart.  The reductions are called
        # directly, skipping ndarray.min/max's Python-level wrappers; both
        # propagate NaN as those do.
        if not (0.0 <= _MIN(p, None) and _MAX(p, None) <= 1.0):
            if not np.all(np.isfinite(p)):
                raise ValueError("image intensities must be finite")
            raise ValueError("image intensities must lie in [0, 1]")
        object.__setattr__(self, "pixels", p)

    @classmethod
    def _trusted(cls, pixels: np.ndarray) -> "GrayImage":
        # An image of pixels that are already a non-empty, read-only 2-D
        # float64 array, finite and in [0, 1], as downsample_2x2 builds them
        # from a checked image: kept as is, with no copy and no scan.
        img = object.__new__(cls)
        object.__setattr__(img, "pixels", pixels)
        return img

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def flatten(self) -> np.ndarray:
        """Row-major pixel vector of length height * width."""
        return self.pixels.reshape(-1).copy()


def downsample_2x2(img: GrayImage) -> GrayImage:
    """Average 2x2 pixel blocks of a 19x19 image, yielding 9x9.

    The 19th row and column cannot complete a block and are discarded.
    """
    if img.pixels.shape != (19, 19):
        raise ValueError(f"expected a 19x19 image, got {img.pixels.shape}")
    # Pair sums across, then down: (a00 + a01) + (a10 + a11), over 4.0, is
    # the order in which numpy 2.4's mean(axis=(1, 3)) sums a 2x2 block, so
    # the bits are that block mean's, without its Python-level wrapper.  Block
    # means of values in [0, 1] stay in [0, 1], so the read-only result is
    # kept as the image's pixels with no second scan.
    px = img.pixels
    cols = px[:18, 0:18:2] + px[:18, 1:18:2]
    out = (cols[0::2] + cols[1::2]) / 4.0
    out.setflags(write=False)
    return GrayImage._trusted(out)


def read_pgm(path) -> GrayImage:
    """Read a PGM file (ASCII P2 or binary P5, maxval up to 255)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P2", b"P5"):
        raise ValueError("not a PGM file (expected P2 or P5 magic)")
    # Header: magic, width, height, maxval; for P5 the pixel bytes start
    # right after the one whitespace byte that ends the header.
    tokens = (m for m in _PGM_LEXEME.finditer(data, 2) if m.lastindex)
    header = list(itertools.islice(tokens, 3))
    end = len(header) == 3 and _PGM_HEADER_END.match(data, header[-1].end())
    if not end:
        raise ValueError("truncated PGM header")
    pos = end.end()
    if not all(m.group(1).isdigit() for m in header):
        raise ValueError("PGM header values must be ASCII decimal digits")
    width, height, maxval = (int(m.group(1)) for m in header)
    if width <= 0 or height <= 0:
        raise ValueError("PGM dimensions must be positive")
    if not (0 < maxval <= _PGM_MAXVAL):
        raise ValueError(f"PGM maxval must be in 1..{_PGM_MAXVAL}, got {maxval}")
    count = width * height
    if data[:2] == b"P5":
        raw = data[pos:pos + count]
        if len(raw) < count:
            raise ValueError("truncated PGM pixel data")
        values = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
    else:
        toks = [t for t in _PGM_LEXEME.findall(data, pos) if t]
        if len(toks) < count:
            raise ValueError("truncated PGM pixel data")
        # Tokens are non-empty, so their concatenation is all digits exactly
        # when each of them is.
        if not b"".join(toks[:count]).isdigit():
            raise ValueError("PGM pixel values must be ASCII decimal digits")
        values = np.array([int(t) for t in toks[:count]], dtype=np.float64)
    if values.max(initial=0.0) > maxval:
        raise ValueError("PGM pixel value exceeds declared maxval")
    return GrayImage(pixels=(values / maxval).reshape(height, width))


def write_pgm(img: GrayImage, path, *, binary: bool = False) -> None:
    """Write a PGM file (binary P5 when requested, else ASCII P2).

    Intensities are scaled by 255 and rounded to the nearest integer.
    """
    values = np.rint(img.pixels * _PGM_MAXVAL).astype(np.uint8)
    header = f"{'P5' if binary else 'P2'}\n{img.width} {img.height}\n{_PGM_MAXVAL}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(values.tobytes())
        else:
            for row in values:
                fh.write((" ".join(str(v) for v in row) + "\n").encode("ascii"))


def _square_side(n_pixels: int) -> int:
    side = math.isqrt(n_pixels)
    if side * side != n_pixels:
        raise ValueError(f"pixel count {n_pixels} is not a perfect square")
    return side


def reconstruct(weights, h) -> GrayImage:
    """Mix the base images by simplex weights into a square image.

    ``weights`` must lie on the probability simplex within 1e-6 and every
    base-image intensity in ``h`` must lie in [0, 1]; the mixture is clamped
    to [0, 1] to absorb rounding.
    """
    wv = np.asarray(weights, dtype=np.float64)
    hm = np.asarray(h, dtype=np.float64)
    if wv.ndim != 1:
        raise ValueError("weights must be a vector")
    if hm.ndim != 2 or hm.shape[0] != wv.size:
        raise ValueError(
            f"base image matrix shape {hm.shape} does not match {wv.size} weights"
        )
    if not np.all(np.isfinite(wv)) or not np.all(np.isfinite(hm)):
        raise ValueError("weights and base images must be finite")
    if wv.min() < -_WEIGHT_SUM_TOL or abs(wv.sum() - 1.0) > _WEIGHT_SUM_TOL:
        raise ValueError("weights must lie on the probability simplex within 1e-6")
    if hm.min() < 0.0 or hm.max() > 1.0:
        raise ValueError("base image intensities must lie in [0, 1]")
    side = _square_side(hm.shape[1])
    mix = np.clip(wv @ hm, 0.0, 1.0)
    return GrayImage(pixels=mix.reshape(side, side))


def retrieve(query: GrayImage, model: FactorPair) -> tuple:
    """Nearest stored image by comparing mixture weights in R-space.

    The query is compressed to its simplex-projected weight vector
    ``p = simplex_project(q @ pinv(H))`` and compared against the rows of
    the stored W by Euclidean distance.  pinv(H) and ``FactorPair.w_search``,
    W transposed with the halved row norms -||w_i||^2 / 2, are computed once
    per model and shared by every query, so a query costs one matrix-vector
    product ``p @ W.T`` streamed over rows of length n plus one add of the
    norms; the rows within rounding of the best have their distance
    computed exactly.  Returns ``(index, distance)`` with ties resolved
    toward the lowest index.
    """
    q = query.pixels.reshape(-1)
    if q.size != model.h.shape[1]:
        raise ValueError(
            f"query has {q.size} pixels but the model stores {model.h.shape[1]}"
        )
    p = simplex_project(q @ model.h_pinv)
    wt, c, max_sq = model.w_search
    # s_i = w_i.p - ||w_i||^2 / 2 = (||p||^2 - d_i) / 2 with d_i = ||w_i - p||^2,
    # so the nearest row has the largest s_i.  The rows whose computed s_i is
    # within tol of the largest get d_i computed as the reference does, by
    # einsum with the first minimum winning.  Bound (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., sec. 3.1; u = eps / 2,
    # g_k = k u / (1 - k u), M^2 = max_sq, P = ||p|| <= 1 on the simplex):
    # the computed s_i is within E = g_{R+1} (1 + g_R) (M + P)^2 of s_i in
    # any summation order (BLAS blocking, threads, FMA), and the computed
    # d_i within g_{R+2} (M + P)^2 of d_i.  Adding c_i = -||w_i||^2 / 2 last,
    # after the R-term product p.w_i, is one such order of the (R+1)-term
    # dot product [p, 1].[w_i, c_i].  So the row with the least
    # computed d_i trails the largest computed s_i by at most
    # g_{R+2} (M + P)^2 + 2 E, about 1.5 (R + 2) eps (M + P)^2.  tol is
    # 4 (R + 2) eps (M + 1)^2, over twice that, which covers the rounding
    # of tol and of the threshold, the largest s_i less tol.  No step assumes
    # W non-negative or on the simplex.  If M^2 overflows, tol is inf, and
    # "not below" keeps every row, nan included.
    m = math.sqrt(max_sq) + 1.0
    tol = 4.0 * (p.size + 2) * _EPS * (m * m)
    s = p @ wt
    s += c
    # argmax gives the first largest score, or the first nan, which makes
    # the threshold nan and keeps every row.  Row k is never below the
    # threshold, so when every other row is, row k alone is within tol.
    k = int(s.argmax())
    below = s < s[k] - tol
    if np.count_nonzero(below) < s.size - 1:
        rows = (~below).nonzero()[0]
        diff = model.w[rows] - p
        sq = np.einsum("ij,ij->i", diff, diff)
        k = int(np.argmin(sq))
        return int(rows[k]), math.sqrt(sq[k])
    # The usual case: row k alone is within tol, and its distance is
    # computed by the same einsum on a slice, with no tie to break.
    diff = model.w[k:k + 1] - p
    return k, math.sqrt(np.einsum("ij,ij->i", diff, diff)[0])


def reconstruction_error(x, factors: FactorPair) -> float:
    """Mean squared per-cell difference between X and W.H."""
    diff = _data_matrix(x, factors) - factors.w @ factors.h
    return float(np.mean(diff * diff))
