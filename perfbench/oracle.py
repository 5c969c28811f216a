"""Independent reference for every output the workloads produce.

Nothing here imports the package under test.  Co-occurrence counting, the
Gaussian-gain entropy, correlation, the seeded split, 1-NN and the report
layouts are re-derived from their published definitions with plain numpy.
The entropy is summed over the nonzero cells only, a different evaluation
order from the program's dense sums, so values are compared within
``REL_TOL`` rather than bit for bit.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

#: Relative tolerance on entropy, correlation and feature values.
REL_TOL = 1e-9
#: Absolute tolerance on values near zero and on accuracies.
ABS_TOL = 1e-12
#: Largest accepted difference of one map pixel (rint at a .5 boundary).
PIXEL_TOL = 1

# Unit step (dx, dy) per angle; angles turn counter-clockwise, rows grow downward.
STEPS = {0: (1, 0), 45: (1, -1), 90: (0, -1), 135: (-1, -1),
         180: (-1, 0), 225: (-1, 1), 270: (0, 1), 315: (1, 1)}
MAP_ANGLES = tuple(sorted(STEPS))
FEATURE_ANGLES = (0, 45, 90, 135)


def read_pgm(data: bytes) -> tuple[np.ndarray, int]:
    """(pixels, maxval + 1) of a P5 or P2 file."""
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            pos = data.index(b"\n", pos) + 1
            continue
        end = pos
        while end < len(data) and not data[end:end + 1].isspace():
            end += 1
        tokens.append(data[pos:end])
        pos = end
    magic, w, h, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
    if magic == b"P5":
        pixels = np.frombuffer(data[pos + 1:pos + 1 + w * h], dtype=np.uint8)
    elif magic == b"P2":
        pixels = np.array(data[pos:].split(), dtype=np.int64)
    else:
        raise ValueError(f"not a PGM file: {magic!r}")
    return pixels.astype(np.int64).reshape(h, w), maxval + 1


def cooccurrence(pixels: np.ndarray, levels: int, d: int, theta: int):
    """Nonzero cells of the GLCM: (row gray i, column gray j, count)."""
    ux, uy = STEPS[theta]
    dx, dy = ux * d, uy * d
    h, w = pixels.shape
    first = pixels[max(0, -dy):h - max(0, dy), max(0, -dx):w - max(0, dx)]
    second = pixels[max(0, dy):h - max(0, -dy), max(0, dx):w - max(0, -dx)]
    dense = np.bincount((first * levels + second).ravel(), minlength=levels * levels)
    codes = np.flatnonzero(dense)
    return codes // levels, codes % levels, dense[codes]


def entropy_of(counts: np.ndarray) -> float:
    """Gaussian-gain entropy sum(p exp(-p^2)) of one GLCM; zero cells add nothing."""
    p = counts / counts.sum()
    return float(np.sum(p * np.exp(-p * p)))


def correlation_of(i: np.ndarray, j: np.ndarray, counts: np.ndarray) -> float:
    """Pearson correlation of (i, j) under the pair frequencies; NaN if degenerate."""
    f = counts / counts.sum()
    mu_i, mu_j = float(np.sum(i * f)), float(np.sum(j * f))
    var_i = float(np.sum((i - mu_i) ** 2 * f))
    var_j = float(np.sum((j - mu_j) ** 2 * f))
    if var_i <= 0.0 or var_j <= 0.0:
        return math.nan
    return float(np.sum((i - mu_i) * (j - mu_j) * f)) / math.sqrt(var_i * var_j)


def polar_map(pixels: np.ndarray, levels: int, d_max: int, feature: str) -> np.ndarray:
    """8 x d_max map of the proposed entropy or of correlation."""
    out = np.empty((len(MAP_ANGLES), d_max))
    for r, theta in enumerate(MAP_ANGLES):
        for d in range(1, d_max + 1):
            i, j, counts = cooccurrence(pixels, levels, d, theta)
            out[r, d - 1] = correlation_of(i, j, counts) if feature == "correlation" else entropy_of(counts)
    return out


def tile_features(pixels: np.ndarray, levels: int, distances) -> list[float]:
    """One entropy per distance: the mean over the four feature angles."""
    out = []
    for d in distances:
        per_angle = [entropy_of(cooccurrence(pixels, levels, d, t)[2]) for t in FEATURE_ANGLES]
        out.append(sum(per_angle) / len(per_angle))
    return out


class SplitMix64:
    """SplitMix64 stream, as specified for the program's seeded splits."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)


def split_indices(labels: list[str], seed: int, fraction: float = 0.5):
    """(train, test) record indices: per class ascending, Fisher-Yates, input order kept."""
    rng = SplitMix64(seed)
    train, test = [], []
    for label in sorted(set(labels)):
        members = [k for k, lbl in enumerate(labels) if lbl == label]
        idx = list(range(len(members)))
        for a in range(len(idx) - 1, 0, -1):
            b = rng.next() % (a + 1)
            idx[a], idx[b] = idx[b], idx[a]
        k = min(max(int(round(fraction * len(members))), 1), len(members) - 1)
        chosen = set(idx[:k])
        train += [m for n, m in enumerate(members) if n in chosen]
        test += [m for n, m in enumerate(members) if n not in chosen]
    return train, test


def nn_accuracy(features: np.ndarray, labels: list[str], train, test):
    """1-NN per-class accuracy (sorted labels) and their mean; ties go to the smallest label."""
    pts = features[train]
    d2 = ((features[test][:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    hits = {}
    for row, k in zip(d2, test):
        predicted = min(labels[train[n]] for n in np.flatnonzero(row == row.min()))
        hits.setdefault(labels[k], []).append(predicted == labels[k])
    per_class = {lbl: sum(h) / len(h) for lbl, h in sorted(hits.items())}
    return per_class, sum(per_class.values()) / len(per_class)


def cross_validated(features: np.ndarray, labels: list[str], seed: int, trials: int):
    """(validation, cross) reports, each (per-class dict, average), averaged over trials."""
    folds = ([], [])
    for trial in range(trials):
        train, test = split_indices(labels, seed + trial)
        folds[0].append(nn_accuracy(features, labels, train, test))
        folds[1].append(nn_accuracy(features, labels, test, train))
    if trials == 1:
        return folds[0][0], folds[1][0]
    out = []
    for reports in folds:
        per_class = {lbl: sum(r[0][lbl] for r in reports) / len(reports) for lbl in reports[0][0]}
        out.append((per_class, sum(r[1] for r in reports) / len(reports)))
    return tuple(out)


# ---- comparisons against program output ---------------------------------


def close(got: float, want: float, rel: float = REL_TOL) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=rel, abs_tol=ABS_TOL)


def check_map_csv(text: str, want: np.ndarray) -> list[str]:
    rows = text.splitlines()
    d_max = want.shape[1]
    if rows[0] != ",".join(str(d) for d in range(1, d_max + 1)):
        return [f"map csv header {rows[0][:40]!r}"]
    if len(rows) != 1 + want.shape[0]:
        return [f"map csv has {len(rows) - 1} rows, expected {want.shape[0]}"]
    problems = []
    for r, line in enumerate(rows[1:]):
        cells = line.split(",")
        got = [math.nan if c == "" else float(c) for c in cells]
        if len(got) != d_max:
            problems.append(f"map csv row {r} has {len(got)} cells")
            continue
        for c, (g, w) in enumerate(zip(got, want[r])):
            if not close(g, w):
                problems.append(f"map cell ({r},{c}) = {g!r}, reference {float(w)!r}")
    return problems


def check_map_pgm(data: bytes, want: np.ndarray) -> list[str]:
    """Min-max coding of the defined cells to 0..255; NaN cells 0, a flat map 128."""
    expected_header = f"P5\n{want.shape[1]} {want.shape[0]}\n255\n".encode("ascii")
    if not data.startswith(expected_header):
        return [f"map pgm header {data[:20]!r}"]
    got = np.frombuffer(data[len(expected_header):], dtype=np.uint8).astype(np.int64)
    if got.size != want.size:
        return [f"map pgm holds {got.size} pixels, expected {want.size}"]
    defined = np.isfinite(want)
    ref = np.zeros(want.shape, dtype=np.int64)
    lo, hi = want[defined].min(), want[defined].max()
    ref[defined] = 128 if hi == lo else np.rint((want[defined] - lo) / (hi - lo) * 255.0)
    bad = np.abs(got.reshape(want.shape) - ref) > PIXEL_TOL
    return [f"map pgm: {int(bad.sum())} pixels off the reference"] if bad.any() else []


def check_feature_csv(text: str, want: list[tuple[str, str, list[float]]]) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    dim = len(want[0][2])
    if rows[0] != ["label", "tile"] + [f"f{k + 1}" for k in range(dim)]:
        return [f"feature csv header {rows[0][:4]!r}"]
    if len(rows) - 1 != len(want):
        return [f"feature csv has {len(rows) - 1} rows, expected {len(want)}"]
    problems = []
    for row, (label, tile, values) in zip(rows[1:], want):
        if row[:2] != [label, tile] or len(row) != 2 + dim:
            problems.append(f"feature row {row[:2]!r}, expected {[label, tile]!r}")
        elif not all(close(float(g), w) for g, w in zip(row[2:], values)):
            problems.append(f"feature values of {label}/{tile} off the reference")
    return problems


def check_report(text: str, validation: tuple, cross: tuple) -> list[str]:
    """Rows ``class,accuracy_v,accuracy_cv``: one per class ascending, then ``average``."""
    rows = list(csv.reader(io.StringIO(text)))
    want = ([[label, validation[0][label], cross[0][label]] for label in sorted(validation[0])]
            + [["average", validation[1], cross[1]]])
    first_cells = [r[0] for r in rows[1:]]
    if rows[:1] != [["class", "accuracy_v", "accuracy_cv"]] or first_cells != [w[0] for w in want]:
        return [f"report layout {first_cells[:4]!r}"]
    problems = []
    for row, w in zip(rows[1:], want):
        if len(row) != 3 or not all(close(float(g), x, rel=0.0) for g, x in zip(row[1:], w[1:])):
            problems.append(f"report row {row!r}, reference {w!r}")
    return problems


def check_averages(stdout: str, average_v: float, average_cv: float) -> list[str]:
    """The one stdout line ``average_v=X average_cv=Y``."""
    fields = dict(f.split("=", 1) for f in stdout.split() if "=" in f)
    if stdout.count("\n") != 1 or fields.keys() != {"average_v", "average_cv"}:
        return [f"stdout {stdout[:60]!r}"]
    if not (close(float(fields["average_v"]), average_v, rel=0.0)
            and close(float(fields["average_cv"]), average_cv, rel=0.0)):
        return [f"stdout averages {stdout.strip()!r} off the reference"]
    return []
