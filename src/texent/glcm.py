"""Gray-level co-occurrence matrices over a spacing vector, and their features.

A spacing vector is a displacement of magnitude d at one of eight angles in
45-degree steps.  The co-occurrence matrix counts ordered gray-level pairs
(img[p], img[p + offset]) over every in-bounds pixel p; normalizing by the
pair count yields the co-occurrence probabilities, on which the entropy
measures and the correlation feature operate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError, DomainError, EmptyGlcmError, _integer
from .measures import EntropyMeasure, ProbDist, apply_measure

__all__ = [
    "ANGLES",
    "GrayImage",
    "SpacingVector",
    "Glcm",
    "offset_of",
    "compute_glcm",
    "glcp",
    "correlation",
    "glcm_entropy",
]

#: The eight supported spacing-vector angles, ascending.
ANGLES = (0, 45, 90, 135, 180, 225, 270, 315)

# Unit pixel step per angle as (dx, dy).  Rows grow downward, so angles
# measured counter-clockwise step upward with negative dy.
_UNIT_STEP = {
    0: (1, 0),
    45: (1, -1),
    90: (0, -1),
    135: (-1, -1),
    180: (-1, 0),
    225: (-1, 1),
    270: (0, 1),
    315: (1, 1),
}


class GrayImage:
    """A 2-D gray image with an explicit number of quantization levels.

    Pixels are held as a read-only ``uint8`` array of shape (height, width);
    every value must lie in [0, levels - 1], and levels in [2, 256] (8 bits).
    """

    __slots__ = ("_pixels", "_levels")

    def __init__(self, pixels, levels: int = 256):
        arr = np.ascontiguousarray(pixels)
        if arr.ndim != 2 or arr.size == 0:
            raise DomainError("pixels must form a non-empty 2-D array")
        if not np.issubdtype(arr.dtype, np.integer):
            raise DomainError(f"pixels must be integers, got dtype {arr.dtype}")
        levels = _integer(levels, "levels", 2, 256)
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi >= levels:
            raise DomainError(
                f"pixel values span [{lo}, {hi}], outside [0, {levels - 1}]"
            )
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        self._pixels = arr
        self._levels = levels

    @property
    def pixels(self) -> np.ndarray:
        return self._pixels

    @property
    def levels(self) -> int:
        return self._levels

    @property
    def width(self) -> int:
        return self._pixels.shape[1]

    @property
    def height(self) -> int:
        return self._pixels.shape[0]

    def quantize(self, levels: int) -> "GrayImage":
        """Down-quantize to fewer gray bins (v -> v * levels // old_levels)."""
        levels = _integer(levels, "levels", 2, 256)
        if levels == self._levels:
            return self
        if levels > self._levels:
            raise DomainError(
                f"cannot requantize {self._levels} levels up to {levels}"
            )
        return GrayImage((self._pixels.astype(np.intp) * levels) // self._levels, levels)

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height}, levels={self._levels})"


@dataclass(frozen=True)
class SpacingVector:
    """Displacement magnitude d (pixels) at one of the eight angles."""

    d: int
    theta: int

    def __post_init__(self):
        if (d := _integer(self.d, "d", 1)) is not self.d:  # a NumPy integer or a bool, say
            object.__setattr__(self, "d", d)
        if self.theta not in ANGLES:
            raise DomainError(f"theta must be one of {ANGLES}, got {self.theta!r}")
        object.__setattr__(self, "theta", ANGLES[ANGLES.index(self.theta)])  # as an int


def offset_of(spacing: SpacingVector) -> tuple[int, int]:
    """Pixel offset (dx, dy) of a spacing vector; dy is positive downward."""
    ux, uy = _UNIT_STEP[spacing.theta]
    return ux * spacing.d, uy * spacing.d


class Glcm:
    """Co-occurrence counts for one spacing vector.

    ``counts`` is an L x L integer matrix; ``counts[i, j]`` is the number of
    pixel positions holding gray level i whose offset neighbor holds j.  A
    Glcm made by :func:`compute_glcm` keeps only its tally of the pair codes
    i * L + j: the L * L bins, which ``counts`` views read-only, or the codes
    sorted, from which ``counts`` is built on first access.  :attr:`cells`,
    its nonzero cells, are found on first access.  A Glcm constructed from a
    square matrix keeps a read-only copy of it and finds its cells there;
    every feature of one whose counts are not integers, include a negative
    one, or total 2**53 or more, raises :class:`DomainError`.
    """

    __slots__ = ("_spacing", "_levels", "_counts", "_cells", "_total", "_tally", "_binned")

    def __init__(self, counts, spacing: SpacingVector):
        counts = np.array(counts)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise DomainError(
                f"co-occurrence counts must form a square matrix, got shape {counts.shape}"
            )
        counts.setflags(write=False)
        self._counts = counts
        self._levels = counts.shape[0]
        self._spacing = spacing
        self._cells = self._total = self._tally = None

    @classmethod
    def _of_tally(cls, tally: np.ndarray, binned: bool, total: int, levels: int,
                  spacing: SpacingVector) -> "Glcm":
        # ``tally`` holds the L * L bins of the pair codes when ``binned``, else
        # the ``total`` pair codes sorted.  Bins already are the counts, row-major.
        tally.setflags(write=False)
        g = cls.__new__(cls)
        g._cells = None
        g._counts = tally.reshape(levels, levels) if binned else None
        g._tally, g._binned, g._total, g._levels, g._spacing = tally, binned, total, levels, spacing
        return g

    @property
    def spacing(self) -> SpacingVector:
        return self._spacing

    @property
    def levels(self) -> int:
        return self._levels

    @property
    def counts(self) -> np.ndarray:
        if self._counts is None:  # sorted pair codes: their cells scattered into zeros
            codes, values = self.cells
            counts = np.zeros((self._levels, self._levels), dtype=np.intp)
            counts.reshape(-1)[codes] = values
            counts.setflags(write=False)
            self._counts = counts
        return self._counts

    @property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(codes, counts) of the nonzero cells, by ascending code i * L + j."""
        if self._cells is None:
            if self._counts is None:  # sorted pair codes, the one tally without counts
                starts, values = _runs(self._tally)
                codes = self._tally[starts]
            else:  # a matrix, or the L * L bins of a tally, flattened
                flat = self._counts.reshape(-1)
                if not np.issubdtype(flat.dtype, np.integer):
                    raise DomainError(f"co-occurrence counts must be integers, got {flat.dtype}")
                codes = flat.nonzero()[0]
                values = flat[codes]
                if values.size and values.min() < 0:
                    raise DomainError("co-occurrence counts must be non-negative")
            self._cells = (codes, values)
        return self._cells

    @property
    def total(self) -> int:
        """Total number of counted pairs."""
        if self._total is None:  # a matrix's: summed in Python ints, which do not wrap
            total = sum(self.cells[1].tolist())
            if total >= 2**53:  # where k / N stops being exact
                raise DomainError(f"co-occurrence counts must total below 2**53, got {total}")
            self._total = total
        return self._total

    def _count_histogram(self) -> tuple[np.ndarray, np.ndarray]:
        # The distinct nonzero cell counts k, ascending, and how many cells hold each.
        if self._tally is None:  # a matrix's counts may be of any size: no bin per count
            return np.unique(self.cells[1], return_counts=True)
        h = np.bincount(self._tally if self._binned else _runs(self._tally)[1])
        h[0] = 0  # the empty bins
        k = h.nonzero()[0]
        return k, h[k]


def _runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The start and the length of each run of equal values in a sorted array.
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = first.nonzero()[0]
    runs = np.empty_like(starts)  # run lengths, without np.diff's appended copy
    runs[:-1] = starts[1:]
    runs[-1] = ordered.size
    runs -= starts
    return starts, runs


def _pair_blocks(px: np.ndarray, spacing: SpacingVector) -> tuple[np.ndarray, np.ndarray]:
    # The blocks (a, b) of the last two axes of ``px`` whose elements pair up
    # along the spacing: b is a shifted by its offset.
    dx, dy = offset_of(spacing)
    h, w = px.shape[-2:]
    r0, r1 = (0, h - dy) if dy >= 0 else (-dy, h)
    c0, c1 = (0, w - dx) if dx >= 0 else (-dx, w)
    if r1 <= r0 or c1 <= c0:
        raise EmptyGlcmError(
            f"no in-bounds pixel pairs for d={spacing.d}, theta={spacing.theta} "
            f"on a {w}x{h} image"
        )
    return px[..., r0:r1, c0:c1], px[..., r0 + dy : r1 + dy, c0 + dx : c1 + dx]


def _binned(levels: int, pairs: int, symmetric: bool) -> bool:
    # Whether the L * L cells number no more than the pair codes of one image.
    return levels * levels <= pairs * (2 if symmetric else 1)


def compute_glcm(
    img: GrayImage, spacing: SpacingVector, symmetric: bool = False
) -> Glcm:
    """Count ordered gray-level pairs of ``img`` along ``spacing``.

    Pairs whose offset neighbor falls outside the image are skipped.  With
    ``symmetric`` every pair is also accumulated reversed, which equals
    adding the counts of the opposite angle.  The pair codes i * L + j are
    kept sorted when the L * L cells outnumber them and binned otherwise;
    both give the same nonzero cells.
    """
    a, b = _pair_blocks(img.pixels, spacing)
    levels = img.levels
    binned = _binned(levels, a.size, symmetric)
    # uint16, as a pair code reaches 65 535; with symmetric the reversed pairs follow.
    codes = np.multiply(np.concatenate((a, b)) if symmetric else a, levels, dtype=np.uint16)
    codes += np.concatenate((b, a)) if symmetric else b
    tally = np.bincount(codes.ravel(), minlength=levels * levels) if binned else codes.ravel()
    if not binned:  # in place, on a view of the fresh codes: a copy would double the peak
        tally.sort()
    return Glcm._of_tally(tally, binned, codes.size, levels, spacing)


def glcp(g: Glcm) -> ProbDist:
    """Co-occurrence probabilities: counts/total flattened row-major.

    Zero cells are retained, so the distribution always has L*L outcomes.
    It holds the histogram of the nonzero cells' counts, read off the tally
    of a computed GLCM; its ``probs``, built only when asked, are
    ``g.counts / total``.
    """
    total = g.total
    if total == 0:
        raise EmptyGlcmError("co-occurrence matrix holds no pairs")
    k, h_k = g._count_histogram()
    return ProbDist._of_histogram(k / total, h_k, g.levels * g.levels,
                                  lambda: g.counts.reshape(-1) / total)


def correlation(g: Glcm) -> float:
    """Correlation of the row and column gray indices under the pair frequencies.

    sum((i - mu_x) * (j - mu_y) * f_ij) / (sigma_x * sigma_y), where the
    means and standard deviations are those of the row index (mu_x, sigma_x)
    and column index (mu_y, sigma_y) under f.  Lies in [-1, 1].  Raises when
    either variance is zero, as for a constant image.

    Evaluated in exact integers, up to the last division and root, from the
    moments N, sum(i), sum(j), sum(i**2), sum(j**2) and sum(i*j) of the cells,
    summed in int64: N * (L - 1)**2 of 2**63 or more raises :class:`DomainError`.
    """
    n = g.total
    if n == 0:
        raise EmptyGlcmError("co-occurrence matrix holds no pairs")
    if n * (g.levels - 1) ** 2 >= 2**63:  # where the int64 moments could wrap
        raise DomainError(f"correlation needs N * (L - 1)**2 below 2**63, got N = {n}")
    value = _pearson(n, *_cell_moments(*g.cells, g.levels))
    if math.isnan(value):
        raise DegenerateVarianceError(
            "gray-level variance is zero along an axis; correlation undefined"
        )
    return value


def _pearson(n: int, si: int, sj: int, sii: int, sjj: int, sij: int) -> float:
    # The correlation from exact integer moments, NaN when a variance is zero.
    var_x = n * sii - si * si  # N**2 times the row index's variance
    var_y = n * sjj - sj * sj
    if var_x <= 0 or var_y <= 0:
        return math.nan
    return (n * sij - si * sj) / math.sqrt(var_x * var_y)


def _cell_moments(codes: np.ndarray, values: np.ndarray, levels: int) -> tuple[int, ...]:
    # sum(i), sum(j), sum(i**2), sum(j**2), sum(i*j), each pair weighted by
    # its cell's count; one int64 weight buffer serves the i and the j sums.
    i, j = np.divmod(codes, levels)
    w = np.multiply(values, i, dtype=np.int64)
    si, sii, sij = int(w.sum()), int(w @ i), int(w @ j)
    np.multiply(values, j, out=w, dtype=np.int64)
    return si, int(w.sum()), sii, int(w @ j), sij


def _correlations(img: GrayImage, spacings, symmetric: bool) -> list[float]:
    """:func:`correlation` of every spacing's pairs, NaN where it is undefined.

    The integer moments of all spacings come from the whole image at once:
    sum(i) and sum(i**2) over each pixel block are box sums over summed-area
    tables of the pixels and of their squares, and sum(i*j) is the dot
    product of the two pixel blocks that :func:`compute_glcm` pairs, taken
    over one float64 copy of the pixels.  Every product is an integer of at
    most 255**2, so any sum of them is exact below 2**53, that is for images
    of up to 1.38e11 pixels, whose float64 copy here would take over 1 TB.
    Each value is then formed as :func:`correlation` forms it, so the two
    agree bit for bit.
    """
    px = img.pixels.astype(np.int64)
    sq = px * px
    h, w = px.shape
    dx, dy = np.array([offset_of(s) for s in spacings]).T
    # The pairs (a, b) of compute_glcm's two blocks; b is a shifted by (dy, dx).
    r0, r1 = np.maximum(-dy, 0), h - np.maximum(dy, 0)
    c0, c1 = np.maximum(-dx, 0), w - np.maximum(dx, 0)
    f = img.pixels.astype(np.float64)
    # einsum, not `@`: BLAS splits a long dot product over threads, and waking
    # them stalled one map in a hundred by about 12 ms on a busy 2-CPU machine.
    sab = np.array([int(np.einsum("ij,ij", *_pair_blocks(f, s))) for s in spacings])

    n = (r1 - r0) * (c1 - c0)
    sums, squares = _summed_area(px), _summed_area(sq)
    sa, saa = (_box_sums(t, r0, r1, c0, c1) for t in (sums, squares))
    sb, sbb = (_box_sums(t, r0 + dy, r1 + dy, c0 + dx, c1 + dx) for t in (sums, squares))
    if symmetric:  # each pair counted both ways
        moments = (2 * n, sa + sb, sa + sb, saa + sbb, saa + sbb, 2 * sab)
    else:
        moments = (n, sa, sb, saa, sbb, sab)
    return [_pearson(*m) for m in zip(*(col.tolist() for col in moments))]


def _summed_area(x: np.ndarray) -> np.ndarray:
    # t[r, c] = x[:r, :c].sum(), exact in int64.
    t = np.zeros((x.shape[0] + 1, x.shape[1] + 1), dtype=np.int64)
    np.cumsum(x, axis=0, out=t[1:, 1:])
    np.cumsum(t[1:, 1:], axis=1, out=t[1:, 1:])
    return t


def _box_sums(t: np.ndarray, r0, r1, c0, c1) -> np.ndarray:
    # x[r0:r1, c0:c1].sum() for each box, from the summed-area table t of x.
    return t[r1, c1] - t[r0, c1] - t[r1, c0] + t[r0, c0]


def glcm_entropy(g: Glcm, measure: EntropyMeasure) -> float:
    """Entropy of the co-occurrence probabilities under the chosen measure.

    The normalized Gaussian-gain measure uses all L*L outcomes, zeros
    included, as its n.
    """
    return apply_measure(measure, glcp(g))
