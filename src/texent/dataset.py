"""Image I/O, tiling, per-tile feature extraction and seeded dataset splits.

PGM is the only image format: binary P5 and ASCII P2 are read, P5 is
written, and maxval is capped at 255.  A labeled corpus is a directory with
one subdirectory per class, each holding the class's PGM tiles.  Feature
tables serialize as CSV with header ``label,tile,f1[,f2,...]`` and values at
15 significant digits.

Splits are reproducible across implementations: a SplitMix64 stream seeded
with the split seed drives a Fisher-Yates shuffle of each class's records,
classes visited in ascending label order.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ._pool import parallel_map
from ._text import sig15
from .errors import DomainError, PgmError
from .glcm import GrayImage, SpacingVector, compute_glcm, glcp
from .measures import EntropyMeasure, apply_measure

__all__ = [
    "FEATURE_ANGLES",
    "load_pgm",
    "save_pgm",
    "read_pgm",
    "write_pgm",
    "tile",
    "extract_feature",
    "Record",
    "LabeledFeatureSet",
    "SplitSpec",
    "SplitMix64",
    "split",
    "write_feature_csv",
    "read_feature_csv",
    "load_labeled_images",
    "build_feature_set",
    "build_feature_sets",
]

#: Angles averaged over when extracting a per-tile feature.
FEATURE_ANGLES = (0, 45, 90, 135)

# Whitespace and '#' comments, then one token.  The lookahead keeps a comment
# from ending early, so the token can never start inside a comment.
_TOKEN = re.compile(rb"(?:\s|#[^\n\r]*(?=[\n\r]|\Z))*([^\s#]+)")


def _token(data: bytes, pos: int) -> re.Match:
    m = _TOKEN.match(data, pos)
    if m is None:
        raise PgmError("unexpected end of data in header", offset=len(data))
    return m


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    m = _token(data, pos)
    token = m[1]
    try:
        if token.isdigit():
            return int(token), m.end()
    except ValueError:  # more digits than int() converts
        pass
    raise PgmError(f"malformed {what} {token!r}", offset=m.start(1))


def _p2_split(raster: bytes, count: int, maxval: int) -> "np.ndarray | None":
    # The common raster in one split: exactly ``count`` words, all digits (so
    # no comment), none above maxval.  None sends every other raster to
    # _p2_tokens, which reads comments and trailing bytes and reports faults.
    words = raster.split()
    if len(words) != count or not b"".join(words).isdigit():
        return None
    try:
        values = list(map(int, words))
    except ValueError:  # more digits than int() converts
        return None
    if max(values) > maxval:
        return None
    return np.array(values, dtype=np.uint8)


def _p2_tokens(data: bytes, pos: int, count: int, maxval: int) -> np.ndarray:
    values = []
    for _ in range(count):
        value, end = _int_token(data, pos, "pixel value")
        if value > maxval:
            raise PgmError(f"pixel value {value} exceeds maxval {maxval}",
                           offset=_token(data, pos).start(1))
        values.append(value)
        pos = end
    return np.array(values, dtype=np.uint8)


def load_pgm(data: bytes) -> GrayImage:
    """Parse PGM bytes (binary P5 or ASCII P2, maxval <= 255) into an image.

    '#' comments are accepted wherever whitespace is, including between P2
    values.  Parse failures report the byte offset they were detected at.
    """
    m = _token(data, 0)
    magic, start, pos = m[1], m.start(1), m.end()
    if magic not in (b"P5", b"P2"):
        if magic in (b"P1", b"P2", b"P3", b"P4", b"P5", b"P6", b"P7"):
            raise PgmError(
                f"unsupported format {magic.decode('ascii')}; expected P5 or P2",
                offset=start,
            )
        raise PgmError(f"not a PGM header: {magic[:16]!r}", offset=start)
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    if width < 1 or height < 1:
        raise PgmError(f"invalid dimensions {width}x{height}", offset=start)
    maxval, pos = _int_token(data, pos, "maxval")
    if maxval > 255:
        raise PgmError(f"maxval {maxval} exceeds 255", offset=pos)
    if maxval < 1:
        raise PgmError(f"invalid maxval {maxval}", offset=pos)

    count = width * height
    if magic == b"P5":
        # Exactly one whitespace byte separates the maxval from the payload.
        if not data[pos : pos + 1].isspace():
            raise PgmError("missing whitespace before pixel data", offset=pos)
        payload = data[pos + 1 : pos + 1 + count]
        if len(payload) < count:
            raise PgmError(
                f"truncated pixel data: expected {count} bytes, found {len(payload)}",
                offset=len(data),
            )
        arr = np.frombuffer(payload, dtype=np.uint8)
        if arr.max() > maxval:
            bad = int(np.argmax(arr > maxval))
            raise PgmError(
                f"pixel value {int(arr[bad])} exceeds maxval {maxval}",
                offset=pos + 1 + bad,
            )
    else:
        arr = _p2_split(data[pos:], count, maxval)
        if arr is None:
            arr = _p2_tokens(data, pos, count, maxval)
    return GrayImage(arr.reshape(height, width), levels=maxval + 1)


def save_pgm(img: GrayImage) -> bytes:
    """Serialize an image as binary P5 with maxval = levels - 1 (<= 255)."""
    header = f"P5\n{img.width} {img.height}\n{img.levels - 1}\n".encode("ascii")
    return header + img.pixels.tobytes()


def read_pgm(path) -> GrayImage:
    """Load a PGM file from disk; parse errors name the file."""
    data = Path(path).read_bytes()
    try:
        return load_pgm(data)
    except PgmError as e:
        e.args = (f"{path}: {e}",)
        raise


def write_pgm(path, img: GrayImage) -> None:
    """Write an image to disk as binary P5."""
    Path(path).write_bytes(save_pgm(img))


def tile(img: GrayImage, size: int) -> list[GrayImage]:
    """Split into non-overlapping size x size tiles, row-major.

    Both image dimensions must be divisible by ``size``.
    """
    if size < 1:
        raise DomainError(f"tile size must be >= 1, got {size}")
    if img.width % size or img.height % size:
        raise DomainError(
            f"image {img.width}x{img.height} is not divisible into {size}x{size} tiles"
        )
    tiles = []
    for r in range(img.height // size):
        for c in range(img.width // size):
            block = img.pixels[r * size : (r + 1) * size, c * size : (c + 1) * size]
            tiles.append(GrayImage(block, img.levels))
    return tiles


def _distance_list(distances) -> list[int]:
    ds = [distances] if isinstance(distances, int) else [int(d) for d in distances]
    if not ds or any(d < 1 for d in ds):
        raise DomainError(f"distances must be integers >= 1, got {distances!r}")
    return ds


def _extract_multi(
    img: GrayImage,
    measures: dict[str, EntropyMeasure],
    distances: Sequence[int],
    symmetric: bool,
) -> dict[str, list[float]]:
    # One GLCP per (distance, angle), shared across every measure.
    out: dict[str, list[float]] = {key: [] for key in measures}
    for d in distances:
        dists = [
            glcp(compute_glcm(img, SpacingVector(d=d, theta=theta), symmetric))
            for theta in FEATURE_ANGLES
        ]
        for key, measure in measures.items():
            vals = [apply_measure(measure, p) for p in dists]
            out[key].append(sum(vals) / len(vals))
    return out


def extract_feature(
    img: GrayImage,
    measure: EntropyMeasure,
    distances: "int | Sequence[int]" = 31,
    symmetric: bool = False,
) -> list[float]:
    """Per-tile feature vector: one element per distance.

    Each element is the mean co-occurrence entropy over the four angles
    0/45/90/135 at that distance.
    """
    ds = _distance_list(distances)
    return _extract_multi(img, {"": measure}, ds, symmetric)[""]


class Record(NamedTuple):
    """One labeled tile: class label, tile identifier, feature vector."""

    label: str
    source: str
    features: tuple[float, ...]


class LabeledFeatureSet:
    """An immutable sequence of labeled feature records of one shared length."""

    __slots__ = ("_records",)

    def __init__(self, records: Iterable):
        recs = tuple(
            Record(str(label), str(source), tuple(float(x) for x in features))
            for label, source, features in records
        )
        dim = len(recs[0].features) if recs else 0
        for r in recs:
            if len(r.features) != dim:
                raise DomainError(
                    f"feature vectors must share one length; {r.source!r} has "
                    f"{len(r.features)}, expected {dim}"
                )
            if not all(map(math.isfinite, r.features)):
                raise DomainError(f"tile {r.label}/{r.source} has a non-finite feature value")
        self._records = recs

    @property
    def records(self) -> tuple[Record, ...]:
        return self._records

    def class_labels(self) -> tuple[str, ...]:
        """Distinct labels in ascending order."""
        return tuple(sorted({r.label for r in self._records}))

    def by_class(self) -> dict[str, list[Record]]:
        """Records grouped per label, labels ascending, input order kept."""
        groups: dict[str, list[Record]] = {lbl: [] for lbl in self.class_labels()}
        for r in self._records:
            groups[r.label].append(r)
        return groups

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __repr__(self) -> str:
        return f"LabeledFeatureSet({len(self._records)} records, {len(self.class_labels())} classes)"


@dataclass(frozen=True)
class SplitSpec:
    """Seeded stratified-split parameters; fraction is the train share."""

    seed: int
    fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise DomainError(f"fraction must lie in (0, 1), got {self.fraction!r}")


_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: a published 64-bit mix-based generator.

    state += 0x9E3779B97F4A7C15; the output mixes the new state with two
    xor-shift-multiply rounds (0xBF58476D1CE4E5B9, 0x94D049BB133111EB) and a
    final 31-bit xor-shift.  Used so splits reproduce bit-for-bit on any
    platform or implementation.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, high index downward, j = next() % (i+1)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next() % (i + 1)
            items[i], items[j] = items[j], items[i]


def _split_indices(
    feature_set: LabeledFeatureSet, spec: SplitSpec
) -> tuple[list[int], list[int]]:
    # Record indices of the (train, test) folds of :func:`split`, in its order.
    rng = SplitMix64(spec.seed)
    members: dict[str, list[int]] = {}
    for i, r in enumerate(feature_set.records):
        members.setdefault(r.label, []).append(i)
    train: list[int] = []
    test: list[int] = []
    for label in sorted(members):
        recs = members[label]
        if len(recs) < 2:
            raise DomainError(f"class {label!r} needs at least 2 records to split")
        idx = list(range(len(recs)))
        rng.shuffle(idx)
        k = int(round(spec.fraction * len(recs)))
        k = min(max(k, 1), len(recs) - 1)
        chosen = frozenset(idx[:k])
        train.extend(recs[i] for i in range(len(recs)) if i in chosen)
        test.extend(recs[i] for i in range(len(recs)) if i not in chosen)
    return train, test


def split(
    feature_set: LabeledFeatureSet, spec: SplitSpec
) -> tuple[LabeledFeatureSet, LabeledFeatureSet]:
    """Stratified split into (train, test); the same seed yields the same split.

    Per class, round(fraction * size) records go to train, halves rounding
    to even (5 records at 0.5 put 2 in train), clamped so both folds keep
    one or more; every class therefore needs two or more records.  Each
    fold lists its classes in ascending label order, and each class's
    records in input order.
    """
    records = feature_set.records
    return tuple(LabeledFeatureSet(records[i] for i in fold)
                 for fold in _split_indices(feature_set, spec))


def write_feature_csv(path, feature_set: LabeledFeatureSet) -> None:
    """Write the feature table: header label,tile,f1..., 15-digit values."""
    records = feature_set.records
    dim = len(records[0].features) if records else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "tile"] + [f"f{i + 1}" for i in range(dim)])
        for r in records:
            writer.writerow([r.label, r.source] + [sig15(x) for x in r.features])


def read_feature_csv(path) -> LabeledFeatureSet:
    """Read a feature table written by :func:`write_feature_csv`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["label", "tile"]:
            raise DomainError(f"{path}: not a feature table (header {header!r})")
        rows = [
            (row[0], row[1], [float(x) for x in row[2:]]) for row in reader if row
        ]
    return LabeledFeatureSet(rows)


def load_labeled_images(root) -> list[tuple[str, str, GrayImage]]:
    """Load a class-per-subdirectory corpus of PGM tiles.

    Returns (label, tile name, image) triples; directories and files are
    visited in sorted order so the result is deterministic.
    """
    rootp = Path(root)
    if not rootp.is_dir():
        raise DomainError(f"{root}: not a directory")
    items = []
    for classdir in sorted(p for p in rootp.iterdir() if p.is_dir()):
        for f in sorted(classdir.glob("*.pgm")):
            items.append((classdir.name, f.stem, read_pgm(f)))
    if not items:
        raise DomainError(f"{root}: no class subdirectories containing .pgm tiles")
    return items


def build_feature_sets(
    items: Sequence[tuple[str, str, GrayImage]],
    measures: dict[str, EntropyMeasure],
    distances: "int | Sequence[int]" = 31,
    symmetric: bool = False,
    threads: int = 1,
) -> dict[str, LabeledFeatureSet]:
    """Extract features for several measures in one pass over the tiles.

    Tiles are independent and may be processed by several threads; results
    are assembled in tile order, so the output does not depend on the
    worker count.
    """
    ds = _distance_list(distances)
    per_tile = parallel_map(lambda item: _extract_multi(item[2], measures, ds, symmetric),
                            items, threads)

    out = {}
    for key in measures:
        out[key] = LabeledFeatureSet(
            (label, source, feats[key])
            for (label, source, _), feats in zip(items, per_tile)
        )
    return out


def build_feature_set(
    items: Sequence[tuple[str, str, GrayImage]],
    measure: EntropyMeasure,
    distances: "int | Sequence[int]" = 31,
    symmetric: bool = False,
    threads: int = 1,
) -> LabeledFeatureSet:
    """Extract one measure's features for every tile."""
    return build_feature_sets(items, {"": measure}, distances, symmetric, threads)[""]
