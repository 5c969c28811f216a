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
import numbers
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ._text import sig15
from .errors import DomainError, PgmError, _integer
from .glcm import GrayImage, SpacingVector, _binned, _pair_blocks, compute_glcm, glcp
from .measures import EntropyMeasure, _spec, _values, apply_measure

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

# A '#' comment runs to the end of its line; the lookahead keeps it from
# ending early, so no token starts inside one.  A token follows any number
# of whitespace bytes and comments.
_COMMENT = re.compile(rb"#[^\n\r]*(?=[\n\r]|\Z)")
_TOKEN = re.compile(rb"(?:\s|" + _COMMENT.pattern + rb")*([^\s#]+)")


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


# bytes.translate tables for a P2 raster.  _P2_DIGIT maps a digit to its
# value and any other byte to 0; _P2_CLASS maps a digit to 0, whitespace (as
# bytes.split() sees it) to 1 and any other byte to 2.
_P2_DIGIT = bytes(b - 48 if 48 <= b <= 57 else 0 for b in range(256))
_P2_CLASS = bytes(0 if 48 <= b <= 57 else 1 if bytes([b]).isspace() else 2
                  for b in range(256))


def _p2_values(raster: bytes, count: int, maxval: int) -> "np.ndarray | None":
    # The first ``count`` words of a blanked raster as pixel values, or None
    # unless each is all digits, no longer than int() converts (no limit, 0,
    # before Python 3.10.7), and at most maxval.  A value is the word's last
    # three digits; an earlier nonzero digit puts it above 255.
    padded = b"   " + raster + b" "  # so a word's last three indices are >= 0
    cls = np.frombuffer(padded.translate(_P2_CLASS), dtype=np.uint8)
    space = cls == 1
    edges = np.flatnonzero(space[1:] != space[:-1])  # before each word, at its end
    if len(edges) < 2 * count:
        return None
    last = edges[1 : 2 * count : 2]  # each word's last byte
    length = last - edges[0 : 2 * count : 2]
    end = last[-1] + 1
    if cls[:end].max() > 1 or 0 < getattr(sys, "get_int_max_str_digits", int)() < length.max():
        return None
    digit = np.frombuffer(padded.translate(_P2_DIGIT), dtype=np.uint8)
    ones, tens, hundreds = (digit[last - k].astype(np.intp) for k in range(3))
    hundreds[length < 3] = 0  # last - 2 may lie in the word before
    nonzero = np.count_nonzero(ones) + np.count_nonzero(tens) + np.count_nonzero(hundreds)
    if nonzero < np.count_nonzero(digit[:end]):
        return None
    values = ones + 10 * tens + 100 * hundreds
    return values.astype(np.uint8) if values.max() <= maxval else None


def _p2_raster(data: bytes, pos: int, count: int, maxval: int) -> np.ndarray:
    # The first ``count`` words after ``pos``, comments blanked to spaces so
    # each word keeps its offset; bytes after them are ignored.
    raster = _COMMENT.sub(lambda m: b" " * len(m[0]), data[pos:])
    values = _p2_values(raster, count, maxval)
    if values is not None:
        return values
    # Locate the first fault: a word read as a token, as the header's are.
    words = raster.split()[:count]
    for word in words:
        value, pos = _int_token(data, pos, "pixel value")
        if value > maxval:
            raise PgmError(f"pixel value {value} exceeds maxval {maxval}",
                           offset=pos - len(word))
    raise PgmError(f"truncated pixel data: expected {count} values, found {len(words)}",
                   offset=len(data))


def load_pgm(data: bytes) -> GrayImage:
    """Parse PGM bytes (binary P5 or ASCII P2, maxval <= 255) into an image.

    '#' comments are accepted wherever whitespace is, including between P2
    values.  Parse failures report the byte offset they were detected at.
    """
    m = _token(data, 0)
    magic, start, pos = m[1], m.start(1), m.end()
    if magic not in (b"P5", b"P2"):
        if magic in (b"P1", b"P3", b"P4", b"P6", b"P7"):
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
        arr = _p2_raster(data, pos, count, maxval)
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
    size = _integer(size, "tile size", 1)
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


#: Iterable, but one value: iterating would read each character as a number.
_TEXT = (str, bytes, bytearray)


def _distance_list(distances) -> list[int]:
    one = isinstance(distances, _TEXT) or not isinstance(distances, Iterable)
    ds = [distances] if one else list(distances)
    if not ds:
        raise DomainError(f"distances must list at least one distance, got {distances!r}")
    return [_integer(d, "distance", 1) for d in ds]


def _feature_spacings(distances: Sequence[int]) -> list[list[SpacingVector]]:
    # The spacing vectors of each distance, one per feature angle.
    return [[SpacingVector(d, theta) for theta in FEATURE_ANGLES] for d in distances]


def _extract_multi(
    img: GrayImage,
    measures: dict[str, EntropyMeasure],
    row: Sequence[SpacingVector],
    symmetric: bool,
) -> dict[str, float]:
    # Each measure's feature of one tile: the mean over the row's vectors, one GLCP each.
    dists = [glcp(compute_glcm(img, s, symmetric)) for s in row]
    vals = {key: [apply_measure(measure, p) for p in dists] for key, measure in measures.items()}
    return {key: sum(v) / len(v) for key, v in vals.items()}


#: Most bytes of one spacing's pair codes (widened to int64 by bincount) and int64 bins in
#: a :func:`_features` chunk, or one tile's; at most 2**16 cells, so the codes fit in uint16.
#: A chunk also holds its uint16 bases and the bins of a distance's four spacings.
_CHUNK_BYTES = 1 << 18


def _count_histograms(
    base: np.ndarray, stack: np.ndarray, levels: int, row: Sequence[SpacingVector],
    symmetric: bool, work: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    # For each spacing s of the row and tile t of the stack, as glcp holds them:
    # the nonzero k / N of its GLCM, ascending, and how many cells h_k hold count
    # k; they run up to ends[s * m + t].  A spacing's pair codes t * L*L + i * L + j
    # are its block of the bases t * L*L + i * L plus its block of the stack, one
    # add; a bincount tallies them into ``work``, and a second the codes
    # (s * m + t) * M + k of all four spacings.
    m, cells = len(stack), levels * levels
    counts = work[: len(row) * m * cells].reshape(len(row), m, levels, levels)
    for k, s in enumerate(row):
        codes = _pair_blocks(base, s)[0] + _pair_blocks(stack, s)[1]
        counts[k] = np.bincount(codes.ravel(), minlength=m * cells).reshape(m, levels, levels)
        if symmetric:  # every pair also reversed: the counts plus their transpose
            counts[k] += counts[k].transpose(0, 2, 1)
    counts = counts.reshape(-1, cells)
    width = int(counts.max()) + 1
    counts += np.arange(0, len(counts) * width, width)[:, None]
    hist = np.bincount(counts.ravel(), minlength=len(counts) * width)
    hist[::width] = 0  # the empty cells
    at = hist.nonzero()[0]
    ends = np.searchsorted(at, np.arange(width, (len(counts) + 1) * width, width)).tolist()
    pairs = [_pair_blocks(stack[0], s)[0].size * (2 if symmetric else 1) for s in row]
    return (at % width) / np.array(pairs)[at // (m * width)], hist[at], ends


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
    spacings = _feature_spacings(_distance_list(distances))
    return list(_features([img], {"": measure}, spacings, symmetric)[""][0])


class Record(NamedTuple):
    """One labeled tile: class label, tile identifier, feature vector."""

    label: str
    source: str
    features: tuple[float, ...]


class LabeledFeatureSet:
    """An immutable sequence of labeled feature records of one shared length."""

    __slots__ = ("_records",)

    def __init__(self, records: Iterable):
        recs = []
        for label, source, features in records:
            try:
                if isinstance(features, _TEXT):
                    raise TypeError
                recs.append(Record(str(label), str(source), tuple(map(float, features))))
            except (TypeError, ValueError):  # not a sequence of numbers, or a non-numeric value
                raise DomainError(f"tile {label}/{source} needs a sequence of real feature "
                                  f"values, got {features!r}") from None
        dim = len(recs[0].features) if recs else 0
        for r in recs:
            if len(r.features) != dim:
                raise DomainError(
                    f"feature vectors must share one length; {r.source!r} has "
                    f"{len(r.features)}, expected {dim}"
                )
            if not all(map(math.isfinite, r.features)):
                raise DomainError(f"tile {r.label}/{r.source} has a non-finite feature value")
        self._records = tuple(recs)

    @property
    def records(self) -> tuple[Record, ...]:
        return self._records

    def class_labels(self) -> tuple[str, ...]:
        """Distinct labels in ascending order."""
        return tuple(sorted({r.label for r in self._records}))

    def by_class(self) -> dict[str, list[Record]]:
        """Records grouped per label, labels ascending, input order kept."""
        return {label: [self._records[i] for i in members]
                for label, members in _class_members(self).items()}

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
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if not isinstance(self.fraction, numbers.Real) or not 0.0 < self.fraction < 1.0:
            raise DomainError(f"fraction must lie in (0, 1), got {self.fraction!r}")


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    # SplitMix64's output of a state: a Python int, or each of a uint64 array.
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64: a published 64-bit mix-based generator.

    state += 0x9E3779B97F4A7C15; the output mixes the new state with two
    xor-shift-multiply rounds (0xBF58476D1CE4E5B9, 0x94D049BB133111EB) and a
    final 31-bit xor-shift.  Used so splits reproduce bit-for-bit on any
    platform or implementation.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = _integer(seed, "seed") & _MASK64  # an int, so masking cannot overflow

    def next(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, high index downward, j = next() % (i+1).

        The draws are those of :meth:`next`, made at once: the k-th state is
        the state plus k * 0x9E3779B97F4A7C15, modulo 2**64.
        """
        draws = len(items) - 1
        if draws < 1:
            return
        states = np.arange(1, draws + 1, dtype=np.uint64) * _GAMMA + np.uint64(self._state)
        self._state = (self._state + draws * _GAMMA) & _MASK64
        js = (_mix(states) % np.arange(draws + 1, 1, -1, dtype=np.uint64)).tolist()
        for i, j in zip(range(draws, 0, -1), js):
            items[i], items[j] = items[j], items[i]


def _class_members(feature_set: LabeledFeatureSet) -> dict[str, list[int]]:
    # Record indices per label, labels ascending, each list ascending.
    members: dict[str, list[int]] = {}
    for i, r in enumerate(feature_set.records):
        members.setdefault(r.label, []).append(i)
    return {label: members[label] for label in sorted(members)}


def _split_indices(
    members: dict[str, list[int]], spec: SplitSpec
) -> tuple[list[int], list[int]]:
    # Record indices of the (train, test) folds of :func:`split`, in its order,
    # from the :func:`_class_members` of the feature set.
    rng = SplitMix64(spec.seed)
    train: list[int] = []
    test: list[int] = []
    for label, recs in members.items():
        if len(recs) < 2:
            raise DomainError(f"class {label!r} needs at least 2 records to split")
        k = int(round(spec.fraction * len(recs)))
        k = min(max(k, 1), len(recs) - 1)
        shuffled = recs[:]  # ascending, so sorting a fold restores input order
        rng.shuffle(shuffled)
        train.extend(sorted(shuffled[:k]))
        test.extend(sorted(shuffled[k:]))
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
                 for fold in _split_indices(_class_members(feature_set), spec))


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
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DomainError(f"{path}: line {reader.line_num}: {len(row)} fields, "
                                  f"header has {len(header)}")
            try:
                rows.append((row[0], row[1], [float(x) for x in row[2:]]))
            except ValueError as exc:
                raise DomainError(f"{path}: line {reader.line_num}: {exc}") from None
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
    items: Iterable[tuple[str, str, GrayImage]],
    measures: dict[str, EntropyMeasure],
    distances: "int | Sequence[int]" = 31,
    symmetric: bool = False,
    threads: int = 1,
) -> dict[str, LabeledFeatureSet]:
    """Extract features for several measures in one pass over the tiles.

    Tiles are processed in order on the calling thread.  ``threads`` must be
    an integer >= 1 and has no other effect.
    """
    spacings = _feature_spacings(_distance_list(distances))
    _integer(threads, "threads", 1)
    items = list(items)  # read twice: once for features, once for labels
    _check_alike(items)
    per_tile = _features([img for _, _, img in items], measures, spacings, symmetric)
    return {key: LabeledFeatureSet((label, source, feats) for (label, source, _), feats
                                   in zip(items, per_tile[key]))
            for key in measures}


def _features(
    images: Sequence[GrayImage],
    measures: dict[str, EntropyMeasure],
    spacings: Sequence[Sequence[SpacingVector]],
    symmetric: bool,
) -> dict[str, list[tuple[float, ...]]]:
    # Each measure's feature vector of every tile, for tiles of one shape and
    # level count, a chunk of tiles at a time.  A row on all of whose spacings
    # compute_glcm bins is counted for the chunk's (m, h, w) stack in one pass;
    # any other row goes tile by tile through _extract_multi.
    specs = {key: _spec(measure) for key, measure in measures.items()}
    out: dict[str, list[tuple[float, ...]]] = {key: [] for key in measures}
    if not images:
        return out
    levels, pixels = images[0].levels, images[0].pixels
    cells = levels * levels
    binned = [all(_binned(levels, _pair_blocks(pixels, s)[0].size, symmetric) for s in row)
              for row in spacings]
    chunk = max(1, min(_CHUNK_BYTES // (8 * (pixels.size + cells)), (1 << 16) // cells))
    if any(binned):  # kept for the call: malloc gave ones made per distance back to the OS
        work = np.empty(min(chunk, len(images)) * 4 * cells, dtype=np.intp)
    for start in range(0, len(images), chunk):
        tiles = images[start : start + chunk]
        stack, m = np.stack([img.pixels for img in tiles]), len(tiles)
        base = np.multiply(stack, levels, dtype=np.uint16)
        base += np.arange(0, m * cells, cells, dtype=np.uint16)[:, None, None]
        columns: dict[str, list[list[float]]] = {key: [] for key in measures}  # one per row
        for row, bins in zip(spacings, binned):
            if not bins:
                per_tile = [_extract_multi(img, measures, row, symmetric) for img in tiles]
                for key in measures:
                    columns[key].append([feats[key] for feats in per_tile])
                continue
            p, h_k, ends = _count_histograms(base, stack, levels, row, symmetric, work)
            for key, (kind, order) in specs.items():
                vals = _values(kind, order, p, h_k, ends, cells)  # spacing by spacing
                columns[key].append([sum(vals[t::m]) / len(row) for t in range(m)])
        for key, rows in columns.items():
            out[key] += zip(*rows)
    return out


def _check_alike(items: Sequence[tuple[str, str, GrayImage]], levels_hint: str = "") -> None:
    # Features of tiles of different level counts lie on different scales, and
    # those of one texture change with the tile size.
    if not items:
        return
    first_label, first_tile, first = items[0]
    for label, tile, img in items:
        if img.levels != first.levels:
            raise DomainError(f"tile {label}/{tile} has {img.levels} gray levels but "
                              f"{first_label}/{first_tile} has {first.levels}{levels_hint}")
        if img.pixels.shape != first.pixels.shape:
            raise DomainError(f"tile {label}/{tile} is {img.width}x{img.height} but "
                              f"{first_label}/{first_tile} is {first.width}x{first.height}; "
                              f"features of different tile sizes are not comparable")


def build_feature_set(
    items: Iterable[tuple[str, str, GrayImage]],
    measure: EntropyMeasure,
    distances: "int | Sequence[int]" = 31,
    symmetric: bool = False,
    threads: int = 1,
) -> LabeledFeatureSet:
    """Extract one measure's features for every tile."""
    return build_feature_sets(items, {"": measure}, distances, symmetric, threads)[""]
