"""Seeded synthetic texture corpus, written as 8-bit PGM files.

Everything here is derived from the seed alone: the same seed writes the
same bytes, another seed writes other images.  The writer is independent of
the package under test, so the program only ever sees finished files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

KINDS = ("noise", "stripes", "sinusoid", "blobs")

# Two parameter sets per kind.  They are fixed rather than drawn from the seed,
# so that every seed asks the program for about the same amount of work; the
# seed decides each tile's phase and pixel noise.
CLASS_PARAMS = {
    "noise": ({"spread": 1.0}, {"spread": 0.6}),
    "stripes": ({"period": 8.0, "angle": 0.3}, {"period": 13.0, "angle": 1.9}),
    "sinusoid": ({"period": 6.0, "angle": 1.2}, {"period": 16.0, "angle": 2.6}),
    "blobs": ({"sigma": 1.5}, {"sigma": 3.5}),
}


def class_params(index: int) -> tuple[str, dict]:
    """Texture kind and parameters of the ``index``-th class."""
    kind = KINDS[index % len(KINDS)]
    variants = CLASS_PARAMS[kind]
    return kind, variants[index // len(KINDS) % len(variants)]


def texture(kind: str, size: int, params: dict, rng: np.random.Generator) -> np.ndarray:
    """One size x size tile of the given class, as integers in [0, 255].

    Every tile gets its own phase and pixel noise, so no two tiles coincide.
    """
    if kind == "noise":
        half = 127.5 * params["spread"]
        v = rng.uniform(127.5 - half, 127.5 + half, size=(size, size))
    elif kind in ("stripes", "sinusoid"):
        y, x = np.mgrid[0:size, 0:size].astype(np.float64)
        a = params["angle"]
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = np.sin(2.0 * np.pi * (x * np.cos(a) + y * np.sin(a)) / params["period"] + phase)
        if kind == "stripes":
            wave = np.sign(wave)
        v = 128.0 + 95.0 * wave + rng.normal(0.0, 12.0, size=(size, size))
    elif kind == "blobs":
        white = rng.normal(0.0, 1.0, size=(size, size))
        f = np.fft.fftfreq(size)
        gain = np.exp(-2.0 * (np.pi * params["sigma"]) ** 2
                      * (f[:, None] ** 2 + f[None, :] ** 2))
        smooth = np.real(np.fft.ifft2(np.fft.fft2(white) * gain))
        smooth = (smooth - smooth.mean()) / (smooth.std() + 1e-12)
        v = 128.0 + 45.0 * smooth + rng.normal(0.0, 6.0, size=(size, size))
    else:
        raise ValueError(f"unknown texture kind {kind!r}")
    return np.clip(np.rint(v), 0, 255).astype(np.uint8)


def pgm_bytes(pixels: np.ndarray, ascii_p2: bool = False) -> bytes:
    """Encode an 8-bit image as binary P5 or, with ``ascii_p2``, ASCII P2."""
    h, w = pixels.shape
    if not ascii_p2:
        return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes()
    rows = "\n".join(" ".join(str(int(v)) for v in row) for row in pixels)
    return f"P2\n# synthetic texture\n{w} {h}\n255\n{rows}\n".encode("ascii")


def write_images(out_dir: Path, count: int, size: int, seed: int) -> list[Path]:
    """``count`` images cycling through every texture kind and parameter set."""
    rng = np.random.default_rng([seed, 1])
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        kind, params = class_params(i)
        pixels = texture(kind, size, params, rng)
        path = out_dir / f"{i:02d}_{kind}.pgm"
        path.write_bytes(pgm_bytes(pixels))
        paths.append(path)
    return paths


def write_corpus(root: Path, classes: int, tiles: int, size: int, seed: int,
                 p2_every: int = 0) -> list[Path]:
    """A labeled corpus: one subdirectory per class, ``tiles`` tiles in each.

    Classes cycle through the texture kinds, then through their parameter
    sets.  With ``p2_every`` = k, every k-th tile is stored as ASCII P2, the
    rest as P5.
    """
    rng = np.random.default_rng([seed, 2])
    paths = []
    for c in range(classes):
        kind, params = class_params(c)
        class_dir = root / f"c{c}_{kind}"
        class_dir.mkdir(parents=True, exist_ok=True)
        for t in range(tiles):
            ascii_p2 = p2_every > 0 and t % p2_every == 0
            path = class_dir / f"t{t:03d}.pgm"
            path.write_bytes(pgm_bytes(texture(kind, size, params, rng), ascii_p2))
            paths.append(path)
    return paths
