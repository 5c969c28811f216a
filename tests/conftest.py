"""Shared test helpers: synthetic textures and an independent pair-counting oracle.

The oracle deliberately re-derives co-occurrence counting with explicit
per-pixel loops and its own angle table, so it shares no code path with the
implementation it checks.
"""

import numpy as np
from hypothesis import strategies as st

from texent import GrayImage

#: Every order the Renyi and Tsallis measures accept: finite, > 0 and != 1.
ORDERS = st.floats(5e-324, 1.7e308).filter(lambda x: x != 1.0)

# Independent angle table for the oracle: (dx, dy) unit steps, dy downward.
ORACLE_STEPS = {
    0: (1, 0),
    45: (1, -1),
    90: (0, -1),
    135: (-1, -1),
    180: (-1, 0),
    225: (-1, 1),
    270: (0, 1),
    315: (1, 1),
}


def brute_force_glcm(pixels, levels, d, theta, symmetric=False):
    """Reference co-occurrence counter: explicit loop over every pixel."""
    ux, uy = ORACLE_STEPS[theta]
    dx, dy = ux * d, uy * d
    h, w = pixels.shape
    counts = np.zeros((levels, levels), dtype=np.int64)
    for r in range(h):
        for c in range(w):
            r2, c2 = r + dy, c + dx
            if 0 <= r2 < h and 0 <= c2 < w:
                i, j = pixels[r, c], pixels[r2, c2]
                counts[i, j] += 1
                if symmetric:
                    counts[j, i] += 1
    return counts


def stripe_image(width, height, period, duty, phase=0, lo=0, hi=255, levels=256):
    """Vertical stripes: columns whose (c + phase) % period < duty are bright."""
    cols = np.array(
        [hi if ((c + phase) % period) < duty else lo for c in range(width)],
        dtype=np.int64,
    )
    return GrayImage(np.tile(cols, (height, 1)), levels=levels)


def checkerboard_image(width, height, phase=0, lo=0, hi=255, levels=256):
    """Single-pixel checkerboard; phase flips the parity."""
    r = np.arange(height)[:, None]
    c = np.arange(width)[None, :]
    return GrayImage(np.where((r + c + phase) % 2 == 0, lo, hi), levels=levels)


def noise_image(width, height, seed, levels=256):
    """Seeded uniform noise over all gray levels."""
    rng = np.random.default_rng(seed)
    return GrayImage(rng.integers(0, levels, size=(height, width)), levels=levels)
