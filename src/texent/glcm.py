"""Gray-level co-occurrence matrices over a spacing vector, and their features.

A spacing vector is a displacement of magnitude d at one of eight angles in
45-degree steps.  The co-occurrence matrix counts ordered gray-level pairs
(img[p], img[p + offset]) over every in-bounds pixel p; normalizing by the
pair count yields the co-occurrence probabilities, on which the entropy
measures and the correlation feature operate.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import DegenerateVarianceError, DomainError, EmptyGlcmError
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
        if not isinstance(levels, int) or not 2 <= levels <= 256:
            raise DomainError(f"levels must be an integer in [2, 256], got {levels!r}")
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
        if not isinstance(self.d, int) or self.d < 1:
            raise DomainError(f"d must be an integer >= 1, got {self.d!r}")
        if self.theta not in ANGLES:
            raise DomainError(f"theta must be one of {ANGLES}, got {self.theta!r}")


def offset_of(spacing: SpacingVector) -> tuple[int, int]:
    """Pixel offset (dx, dy) of a spacing vector; dy is positive downward."""
    ux, uy = _UNIT_STEP[spacing.theta]
    return ux * spacing.d, uy * spacing.d


@dataclass(frozen=True, eq=False)
class Glcm:
    """Co-occurrence counts for one spacing vector.

    ``counts`` is an L x L integer matrix; ``counts[i, j]`` is the number of
    pixel positions holding gray level i whose offset neighbor holds j.
    """

    counts: np.ndarray
    spacing: SpacingVector

    @property
    def levels(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        """Total number of counted pairs."""
        return int(self.counts.sum())


def compute_glcm(
    img: GrayImage, spacing: SpacingVector, symmetric: bool = False
) -> Glcm:
    """Count ordered gray-level pairs of ``img`` along ``spacing``.

    Pairs whose offset neighbor falls outside the image are skipped.  With
    ``symmetric`` every pair is also accumulated reversed, which equals
    adding the counts of the opposite angle.
    """
    dx, dy = offset_of(spacing)
    h, w = img.height, img.width
    r0, r1 = (0, h - dy) if dy >= 0 else (-dy, h)
    c0, c1 = (0, w - dx) if dx >= 0 else (-dx, w)
    if r1 <= r0 or c1 <= c0:
        raise EmptyGlcmError(
            f"no in-bounds pixel pairs for d={spacing.d}, theta={spacing.theta} "
            f"on a {w}x{h} image"
        )
    px = img.pixels
    a = px[r0:r1, c0:c1]
    b = px[r0 + dy : r1 + dy, c0 + dx : c1 + dx]
    levels = img.levels
    idx = a.astype(np.uint16)  # widened first: a pair index reaches 65 535
    idx *= levels
    idx += b
    counts = np.bincount(idx.ravel(), minlength=levels * levels)
    counts = counts.reshape(levels, levels)
    if symmetric:
        counts = counts + counts.T
    counts.setflags(write=False)
    return Glcm(counts=counts, spacing=spacing)


def glcp(g: Glcm) -> ProbDist:
    """Co-occurrence probabilities: counts/total flattened row-major.

    Zero cells are retained, so the distribution always has L*L outcomes.
    """
    total = g.total
    if total == 0:
        raise EmptyGlcmError("co-occurrence matrix holds no pairs")
    if g.counts.min() < 0:  # a hand-built Glcm may hold any integers
        raise DomainError("co-occurrence counts must be non-negative")
    # Non-negative counts over a positive total always form a distribution.
    return ProbDist._trusted(g.counts.reshape(-1) / total)


def correlation(g: Glcm) -> float:
    """Correlation of the row and column gray indices under the pair frequencies.

    sum((i - mu_x) * (j - mu_y) * f_ij) / (sigma_x * sigma_y), where the
    means and standard deviations are those of the row index (mu_x, sigma_x)
    and column index (mu_y, sigma_y) under f.  Lies in [-1, 1].  Raises when
    either variance is zero, as for a constant image.
    """
    total = g.total
    if total == 0:
        raise EmptyGlcmError("co-occurrence matrix holds no pairs")
    f = g.counts.astype(np.float64) / total
    idx = np.arange(g.levels, dtype=np.float64)
    px = f.sum(axis=1)
    py = f.sum(axis=0)
    mu_x = float(np.dot(idx, px))
    mu_y = float(np.dot(idx, py))
    var_x = float(np.dot((idx - mu_x) ** 2, px))
    var_y = float(np.dot((idx - mu_y) ** 2, py))
    if var_x <= 0.0 or var_y <= 0.0:
        raise DegenerateVarianceError(
            "gray-level variance is zero along an axis; correlation undefined"
        )
    cov = float(np.sum((idx[:, np.newaxis] - mu_x) * (idx[np.newaxis, :] - mu_y) * f))
    return cov / math.sqrt(var_x * var_y)


def glcm_entropy(g: Glcm, measure: EntropyMeasure) -> float:
    """Entropy of the co-occurrence probabilities under the chosen measure.

    The normalized Gaussian-gain measure uses all L*L outcomes, zeros
    included, as its n.
    """
    return apply_measure(measure, glcp(g))
