"""Polar interaction maps: one texture feature evaluated over all spacing vectors.

The map is an 8 x d_max grid F(theta, d) with rows over the eight angles in
ascending order and columns over distances 1..d_max.  Intensity-coding the
grid as a small gray image makes the periodic structure of a texture visible:
ridges of extreme feature values line up with the texture period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._text import sig15
from .errors import DomainError, _integer
from .glcm import (ANGLES, GrayImage, SpacingVector, _correlations, compute_glcm,
                   glcm_entropy)
from .measures import EntropyMeasure

__all__ = ["CORRELATION", "Fbim", "compute_fbim", "fbim_to_image", "fbim_to_csv"]

#: Feature selector naming the correlation feature instead of an entropy.
CORRELATION = "correlation"


@dataclass(frozen=True, eq=False)
class Fbim:
    """Feature values over the polar grid; NaN marks undefined cells.

    ``values[r, c]`` holds the feature at angle ``ANGLES[r]`` and distance
    ``c + 1``.
    """

    values: np.ndarray
    feature_name: str

    @property
    def d_max(self) -> int:
        return self.values.shape[1]


def _cell_feature(img, feature, spacing, symmetric):
    return glcm_entropy(compute_glcm(img, spacing, symmetric), feature)


def compute_fbim(
    img: GrayImage,
    feature: "EntropyMeasure | str",
    d_max: int = 31,
    symmetric: bool = False,
    threads: int = 1,
) -> Fbim:
    """Evaluate ``feature`` over all 8 angles and distances 1..d_max.

    ``feature`` is an :class:`EntropyMeasure` or the string ``"correlation"``.
    Cells where the feature is undefined are flagged NaN rather than zeroed.
    The rows of angles 180..315 are copies of those of 0..135, which they
    equal exactly.  A correlation map is made from the whole image at once,
    an entropy map cell by cell, both on the calling thread.  ``threads``
    must be an integer >= 1 and has no other effect.
    """
    d_max = _integer(d_max, "d_max", 1)
    _integer(threads, "threads", 1)
    if isinstance(feature, EntropyMeasure):
        name = feature.kind
    elif isinstance(feature, str) and feature == CORRELATION:
        name = CORRELATION
    else:
        raise DomainError(
            f"feature must be an EntropyMeasure or {CORRELATION!r}, got {feature!r}"
        )
    if min(img.width, img.height) <= d_max:
        raise DomainError(
            f"image {img.width}x{img.height} admits no pairs at distance {d_max} "
            f"in every direction"
        )

    # The cell at theta + 180 counts every pair of the cell at theta reversed:
    # transposed counts, so the same count multiset and integer moments, and a
    # value equal bit for bit.  Only the angles below 180 are evaluated.
    half = len(ANGLES) // 2
    spacings = [SpacingVector(d=c + 1, theta=theta) for theta in ANGLES[:half]
                for c in range(d_max)]
    if name == CORRELATION:
        cells = _correlations(img, spacings, symmetric)
    else:
        cells = [_cell_feature(img, feature, s, symmetric) for s in spacings]
    values = np.array(cells, dtype=np.float64).reshape(half, d_max)
    values = np.concatenate((values, values))
    values.setflags(write=False)
    return Fbim(values=values, feature_name=name)


def fbim_to_image(f: Fbim) -> GrayImage:
    """Intensity-code the map: min-max scale defined cells to gray 0..255.

    Missing cells render as 0; a map whose defined cells are all equal
    renders them as mid-gray 128.
    """
    vals = f.values
    defined = np.isfinite(vals)
    if not defined.any():
        raise DomainError("every cell of the map is missing")
    lo = float(vals[defined].min())
    hi = float(vals[defined].max())
    pixels = np.zeros(vals.shape, dtype=np.uint8)
    if hi == lo:
        pixels[defined] = 128
    else:
        scaled = np.rint((vals[defined] - lo) / (hi - lo) * 255.0)
        pixels[defined] = scaled
    return GrayImage(pixels, levels=256)


def fbim_to_csv(f: Fbim) -> str:
    """CSV text: a header row of d values, then one row per angle ascending.

    Cell values carry 15 significant digits; missing cells are empty fields.
    """
    lines = [",".join(str(d) for d in range(1, f.d_max + 1))]
    for row in f.values.tolist():
        lines.append(",".join(sig15(v) if math.isfinite(v) else "" for v in row))
    return "\n".join(lines) + "\n"
