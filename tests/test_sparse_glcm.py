"""The sparse co-occurrence path against the dense one it replaced.

``compute_glcm`` keeps only the nonzero cells of a GLCM, every entropy measure
is evaluated from the histogram of their counts, correlation from exact
integer moments, and ``compute_fbim`` copies the rows of angles 180..315 from
those of 0..135.  The dense reference here is the earlier implementation:
each measure summed over all L*L probabilities, zeros included, and
correlation from float64 frequencies and an L x L outer product.
"""

import math
import tracemalloc
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import texent.glcm
from conftest import ORDERS, noise_image
from texent import (
    ANGLES,
    CORRELATION,
    MEASURE_KINDS,
    EntropyMeasure,
    Glcm,
    GrayImage,
    SpacingVector,
    compute_fbim,
    compute_glcm,
    correlation,
    glcm_entropy,
    glcp,
    offset_of,
)
from texent.errors import DegenerateVarianceError
from texent.fbim import _cell_feature
from texent.glcm import _correlations, _tally_binned, _tally_sorted


def _dense_proposed(p, order):
    return float(np.sum(p * np.exp(-(p * p))))


def _dense_normalized(p, order):
    h_min, h_max = math.exp(-1), math.exp(-1.0 / (p.size * p.size))
    return (_dense_proposed(p, None) - h_min) / (h_max - h_min)


def _dense_shannon(p, order):
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def _dense_renyi(p, alpha):
    p_max = p.max()
    ratio = (p / p_max) ** alpha
    return float(np.log(p_max * np.sum(ratio)) / (1.0 - alpha) - np.log(p_max))


#: Each measure kind evaluated over every one of the L*L probabilities.
DENSE = {
    "proposed": _dense_proposed,
    "proposed-normalized": _dense_normalized,
    "shannon": _dense_shannon,
    "renyi": _dense_renyi,
    "tsallis": lambda p, q: float((1.0 - np.sum(p**q)) / (q - 1.0)),
    "palpal": lambda p, order: float(np.sum(p * np.exp(1.0 - p))),
}

#: (kind, order) pairs: both sides of order 1 for the two measures that take one.
MEASURES = [(kind, order) for kind in MEASURE_KINDS
            for order in ((0.5, 2.0) if kind in ("renyi", "tsallis") else (None,))]


def dense_correlation(counts):
    f = counts.astype(np.float64) / counts.sum()
    idx = np.arange(counts.shape[0], dtype=np.float64)
    px, py = f.sum(axis=1), f.sum(axis=0)
    mu_x, mu_y = float(idx @ px), float(idx @ py)
    var_x = float(((idx - mu_x) ** 2) @ px)
    var_y = float(((idx - mu_y) ** 2) @ py)
    cov = float(np.sum((idx[:, None] - mu_x) * (idx[None, :] - mu_y) * f))
    return cov / math.sqrt(var_x * var_y)


def exact_correlation(counts):
    """Correlation from Python-int moments and a 60-digit decimal root, or None."""
    rows, cols = np.nonzero(counts)
    cells = [(int(c), int(i), int(j)) for c, i, j in zip(counts[rows, cols], rows, cols)]
    n = sum(c for c, _, _ in cells)
    si = sum(c * i for c, i, _ in cells)
    sj = sum(c * j for c, _, j in cells)
    var_x = n * sum(c * i * i for c, i, _ in cells) - si * si
    var_y = n * sum(c * j * j for c, _, j in cells) - sj * sj
    if var_x <= 0 or var_y <= 0:
        return None
    cov = n * sum(c * i * j for c, i, j in cells) - si * sj
    with localcontext() as ctx:
        ctx.prec = 60
        return float(Decimal(cov) / (Decimal(var_x) * Decimal(var_y)).sqrt())


def _tiles(levels):
    """Seeded 20x20 tiles: uniform noise, and a ramp with noise on a few levels."""
    rng = np.random.default_rng(levels)
    ramp = np.add.outer(np.arange(20), 2 * np.arange(20)) * levels // 60
    yield GrayImage(rng.integers(0, levels, size=(20, 20)), levels)
    ramp = np.minimum(ramp + rng.integers(0, 2, size=(20, 20)), levels - 1)
    yield GrayImage(ramp, levels)


BRANCHES = {
    "sorted": lambda values, size: _tally_sorted(values),
    "binned": _tally_binned,
}


@pytest.mark.parametrize("branch", sorted(BRANCHES))
@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("levels", [4, 16, 64, 256])
def test_sparse_values_stay_within_one_ulp_scale_of_dense(levels, symmetric, branch,
                                                          monkeypatch):
    # 1e-15 absolute for values up to 1 (proposed, normalized, correlation),
    # relative above that (Shannon, Renyi and Tsallis reach ln(L*L) and more).
    monkeypatch.setattr(texent.glcm, "_tally", BRANCHES[branch])
    for img in _tiles(levels):
        for theta in ANGLES:
            for d in (1, 3):
                g = compute_glcm(img, SpacingVector(d, theta), symmetric)
                p = g.counts.reshape(-1) / g.total
                for kind, order in MEASURES:
                    new = glcm_entropy(g, EntropyMeasure.select(kind, order, order))
                    ref = DENSE[kind](p, order)
                    assert abs(new - ref) <= 1e-15 * max(1.0, abs(ref)), (kind, order)
                exact = exact_correlation(g.counts)
                if exact is None:
                    with pytest.raises(DegenerateVarianceError):
                        correlation(g)
                    continue
                new = correlation(g)
                assert abs(new - dense_correlation(g.counts)) <= 1e-15
                assert abs(new - exact) <= 4 * math.ulp(exact)


def _pair_codes(img, spacing, symmetric):
    """The pair codes i * L + j as intp, from the image's own slices."""
    dx, dy = offset_of(spacing)
    px = img.pixels.astype(np.intp)
    h, w = px.shape
    a = px[max(0, -dy):h - max(0, dy), max(0, -dx):w - max(0, dx)]
    b = px[max(0, dy):h - max(0, -dy), max(0, dx):w - max(0, -dx)]
    codes = (a * img.levels + b).ravel()
    if symmetric:
        codes = np.concatenate((codes, (b * img.levels + a).ravel()))
    return codes


_IMAGES = dict(seed=st.integers(0, 2**32 - 1), h=st.integers(2, 14), w=st.integers(2, 14),
               levels=st.integers(2, 256), spread=st.integers(1, 256))


def _image(seed, h, w, levels, spread):
    rng = np.random.default_rng(seed)
    return GrayImage(rng.integers(0, min(spread, levels), size=(h, w)), levels)


@settings(max_examples=60, deadline=None)
@given(**_IMAGES, d=st.integers(1, 13), theta=st.sampled_from(ANGLES),
       symmetric=st.booleans())
@example(seed=0, h=14, w=14, levels=3, spread=3, d=1, theta=0, symmetric=True)
@example(seed=1, h=3, w=3, levels=256, spread=256, d=1, theta=315, symmetric=False)
def test_sort_and_bincount_counting_agree(seed, h, w, levels, spread, d, theta, symmetric):
    img = _image(seed, h, w, levels, spread)
    d = min(d, h - 1, w - 1)
    spacing = SpacingVector(d, theta)
    codes = _pair_codes(img, spacing, symmetric)
    sorted_cells = _tally_sorted(codes.astype(np.uint16))
    binned_cells = _tally_binned(codes.astype(np.uint16), levels * levels)
    want = np.unique(codes, return_counts=True)
    for cells in (sorted_cells, binned_cells):
        assert [x.dtype for x in cells] == [np.uint16, np.intp]
        assert np.array_equal(cells[0], want[0]) and np.array_equal(cells[1], want[1])
    # The dense matrix built from the cells is the bincount matrix, by either branch.
    matrix = np.bincount(_pair_codes(img, spacing, False), minlength=levels * levels)
    matrix = matrix.reshape(levels, levels)
    if symmetric:
        matrix = matrix + matrix.T
    for branch in BRANCHES.values():
        with mock.patch.object(texent.glcm, "_tally", branch):
            g = compute_glcm(img, spacing, symmetric)  # tallied here, under the patch
        assert np.array_equal(g.counts, matrix)
        assert g.counts.dtype == matrix.dtype and not g.counts.flags.writeable
        assert g.total == codes.size


@settings(max_examples=60, deadline=None)
@given(**_IMAGES, d=st.integers(1, 13), theta=st.sampled_from(ANGLES),
       symmetric=st.booleans(),
       dtype=st.sampled_from([np.uint16, np.int32, np.int64, np.uint64]))
@example(seed=0, h=6, w=6, levels=256, spread=1, d=2, theta=45, symmetric=True,
         dtype=np.int64)
@example(seed=2, h=14, w=14, levels=256, spread=256, d=1, theta=135, symmetric=False,
         dtype=np.uint64)
def test_pixel_pair_moments_equal_cell_moments(seed, h, w, levels, spread, d, theta,
                                               symmetric, dtype):
    # A correlation map sums over the pixel pairs, through summed-area tables
    # and the autocorrelation; correlation sums over the cells, tallied or
    # found in a matrix.  All give the same integers, so the same value.
    img = _image(seed, h, w, levels, spread)
    spacing = SpacingVector(min(d, h - 1, w - 1), theta)
    [from_pixels] = _correlations(img, [spacing], symmetric)
    g = compute_glcm(img, spacing, symmetric)
    for from_cells in (g, Glcm(counts=g.counts.astype(dtype), spacing=spacing)):
        try:
            value = correlation(from_cells)
        except DegenerateVarianceError:
            value = math.nan
        assert np.float64(from_pixels).tobytes() == np.float64(value).tobytes()


def test_correlation_map_never_tallies_cells(monkeypatch):
    def no_tally(codes, cells):
        raise AssertionError("the cells were tallied")

    monkeypatch.setattr(texent.glcm, "_tally", no_tally)
    img = noise_image(24, 24, seed=5, levels=256)
    compute_fbim(img, CORRELATION, d_max=4, threads=2)
    with pytest.raises(AssertionError, match="tallied"):
        compute_glcm(img, SpacingVector(3, 0))


@pytest.mark.parametrize("symmetric", [False, True])
def test_one_glcm_is_tallied_once(symmetric, monkeypatch):
    calls = []

    def tally(codes, cells):
        calls.append(codes.size)
        return _tally_sorted(codes)

    monkeypatch.setattr(texent.glcm, "_tally", tally)
    img = noise_image(24, 24, seed=5, levels=256)
    g = compute_glcm(img, SpacingVector(3, 45), symmetric)
    glcp(g)
    correlation(g)
    g.counts
    assert calls == [g.total]


def _direct_cell(img, feature, spacing, symmetric):
    if feature != CORRELATION:
        return _cell_feature(img, feature, spacing, symmetric)
    try:
        return correlation(compute_glcm(img, spacing, symmetric))
    except DegenerateVarianceError:
        return math.nan


@settings(max_examples=30, deadline=None)
@given(**_IMAGES, d_max=st.integers(1, 13), symmetric=st.booleans(),
       feature=st.sampled_from([*MEASURE_KINDS, CORRELATION]), order=ORDERS)
@example(seed=0, h=6, w=6, levels=4, spread=1, d_max=5, symmetric=False,
         feature=CORRELATION, order=2.0)
def test_mirrored_rows_equal_the_cells_they_copy(seed, h, w, levels, spread, d_max,
                                                 symmetric, feature, order):
    img = _image(seed, h, w, levels, spread)
    d_max = min(d_max, h - 1, w - 1)
    if d_max < 1:
        return
    if feature != CORRELATION:
        feature = EntropyMeasure.select(feature, order, order)
    values = compute_fbim(img, feature, d_max=d_max, symmetric=symmetric).values
    for row in range(4, 8):
        direct = [_direct_cell(img, feature, SpacingVector(d, ANGLES[row]), symmetric)
                  for d in range(1, d_max + 1)]
        assert np.array(direct, dtype=np.float64).tobytes() == values[row].tobytes()


@pytest.mark.parametrize("theta", [0, 45])
@pytest.mark.parametrize("feature", ["entropy", "correlation"])
def test_one_spacing_vector_allocates_less_than_a_dense_matrix(feature, theta):
    # Uniform noise at 256 levels puts most of the 16 129 pairs in cells of
    # their own (about 14 400 nonzero cells); an L x L float64 matrix is 512 KiB.
    img = noise_image(128, 128, seed=17, levels=256)
    spacing = SpacingVector(1, theta)
    evaluate = {"entropy": lambda g: glcm_entropy(g, EntropyMeasure("proposed")),
                "correlation": correlation}[feature]
    evaluate(compute_glcm(img, spacing))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        evaluate(compute_glcm(img, spacing))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 256 * 256 * 8
