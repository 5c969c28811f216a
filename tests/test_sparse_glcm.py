"""The sparse co-occurrence path against the dense one it replaced.

``compute_glcm`` keeps only the tally of a GLCM's pair codes, binned or
sorted; every entropy measure is evaluated from the histogram of the cells'
counts read off that tally, correlation from exact integer moments of the
nonzero cells, and ``compute_fbim`` copies the rows of angles 180..315 from
those of 0..135.  The dense reference here is the earlier implementation:
each measure summed over all L*L probabilities, zeros included, and
correlation from float64 frequencies and an L x L outer product.
"""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import texent.dataset
from conftest import ORDERS, noise_image
from texent import (
    ANGLES,
    CORRELATION,
    MEASURE_KINDS,
    EntropyMeasure,
    apply_measure,
    build_feature_sets,
    Glcm,
    GrayImage,
    ProbDist,
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
from texent.glcm import _correlations


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


#: Whether each branch of compute_glcm's tally bins the pair codes.
BRANCHES = {"sorted": False, "binned": True}


def _tallied(img, spacing, symmetric, binned):
    """The Glcm of the pairs with the tally of the chosen branch, whatever the sizes."""
    codes = _pair_codes(img, spacing, symmetric)
    if binned:
        tally = np.bincount(codes, minlength=img.levels * img.levels)
    else:
        tally = np.sort(codes.astype(np.uint16))
    return Glcm._of_tally(tally, binned, codes.size, img.levels, spacing)


@pytest.mark.parametrize("branch", sorted(BRANCHES))
@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("levels", [4, 16, 64, 256])
def test_sparse_values_stay_within_one_ulp_scale_of_dense(levels, symmetric, branch):
    # 1e-15 absolute for values up to 1 (proposed, normalized, correlation),
    # relative above that (Shannon, Renyi and Tsallis reach ln(L*L) and more).
    for img in _tiles(levels):
        for theta in ANGLES:
            for d in (1, 3):
                g = _tallied(img, SpacingVector(d, theta), symmetric, BRANCHES[branch])
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
# 257 x 257 at L = 256: both bin, and hold a (255, 255) pair, the largest code 65 535.
@example(seed=4, h=257, w=257, levels=256, spread=256, d=1, theta=0, symmetric=False)
@example(seed=8, h=257, w=257, levels=256, spread=256, d=1, theta=315, symmetric=True)
def test_sort_and_bincount_counting_agree(seed, h, w, levels, spread, d, theta, symmetric):
    img = _image(seed, h, w, levels, spread)
    d = min(d, h - 1, w - 1)
    spacing = SpacingVector(d, theta)
    codes = _pair_codes(img, spacing, symmetric)
    if h > 14:  # an explicit example, past the drawn sizes
        assert codes.max() == levels * levels - 1
    want = np.unique(codes, return_counts=True)
    # The dense matrix built from the cells is the bincount matrix, by either branch.
    matrix = np.bincount(_pair_codes(img, spacing, False), minlength=levels * levels)
    matrix = matrix.reshape(levels, levels)
    if symmetric:
        matrix = matrix + matrix.T
    g = compute_glcm(img, spacing, symmetric)
    assert g._binned == (levels * levels <= codes.size)
    for glcm in (g, *(_tallied(img, spacing, symmetric, b) for b in BRANCHES.values())):
        cells = glcm.cells
        assert cells[1].dtype == np.intp
        assert np.array_equal(cells[0], want[0]) and np.array_equal(cells[1], want[1])
        assert np.array_equal(glcm.counts, matrix)
        assert glcm.counts.dtype == matrix.dtype and not glcm.counts.flags.writeable
        assert glcm.total == codes.size


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("levels", [2, 16, 256])
def test_binned_counts_are_a_read_only_view_of_the_bins(levels, symmetric):
    # No cell is decoded: the counts have the bytes of the cells scattered
    # into zeros, as they were once built.
    img = noise_image(24, 24, seed=2, levels=levels)
    g = _tallied(img, SpacingVector(2, 135), symmetric, binned=True)
    counts = g.counts
    assert g._cells is None and np.shares_memory(counts, g._tally)
    assert not counts.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        counts[0, 0] = 1
    codes, values = g.cells
    scattered = np.zeros(levels * levels, dtype=np.intp)
    scattered[codes] = values
    assert counts.dtype == np.intp and counts.shape == (levels, levels)
    assert counts.tobytes() == scattered.tobytes()


#: Orders within 2**-4 of 1, where Renyi and Tsallis take their expm1 forms.
_NEAR_ONE = st.floats(1 - 2**-4, 1 + 2**-4).filter(lambda x: x != 1.0)


@settings(max_examples=60, deadline=None)
@given(**_IMAGES, d=st.integers(1, 13), theta=st.sampled_from(ANGLES),
       symmetric=st.booleans(), pixels=st.sampled_from(["noise", "constant", "distinct"]),
       near=_NEAR_ONE, far=ORDERS)
@example(seed=0, h=14, w=14, levels=2, spread=2, d=1, theta=0, symmetric=False,
         pixels="noise", near=1 + 2**-4, far=2.0)
@example(seed=0, h=3, w=5, levels=256, spread=1, d=2, theta=90, symmetric=True,
         pixels="constant", near=1 - 2**-4, far=0.5)
@example(seed=0, h=14, w=14, levels=256, spread=256, d=1, theta=315, symmetric=True,
         pixels="distinct", near=1 + 2**-30, far=1e300)
def test_count_histogram_and_measures_from_the_tally_equal_the_matrix_path(
        seed, h, w, levels, spread, d, theta, symmetric, pixels, near, far):
    # A constant image puts every pair in one cell; "distinct" gives every
    # pixel its own gray level where the levels allow, so no two pairs share a
    # cell.  Levels 2-256 reach both the binned and the sorted tally.
    if pixels == "noise":
        img = _image(seed, h, w, levels, spread)
    elif pixels == "constant":
        img = GrayImage(np.full((h, w), min(spread, levels) - 1), levels)
    else:
        w = min(w, max(2, levels // h))
        img = GrayImage(np.arange(h * w).reshape(h, w) % levels, levels)
    spacing = SpacingVector(min(d, h - 1, w - 1), theta)
    g = compute_glcm(img, spacing, symmetric)
    k, h_k = g._count_histogram()
    assert g._cells is None  # read off the tally alone
    counted = np.bincount(g.cells[1])
    assert np.array_equal(k, counted.nonzero()[0]) and np.array_equal(h_k, counted[k])
    from_matrix = Glcm(g.counts, g.spacing)
    assert all(np.array_equal(x, y) for x, y in zip(from_matrix._count_histogram(), (k, h_k)))
    for kind in MEASURE_KINDS:
        for order in ((near, far) if kind in ("renyi", "tsallis") else (None,)):
            m = EntropyMeasure.select(kind, order, order)
            got, want = apply_measure(m, glcp(g)), apply_measure(m, glcp(from_matrix))
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (kind, order)


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


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_a_matrix_count_needs_no_bin_per_count_value(dtype):
    # Binning the counts of this matrix would make a 2**20-entry (8 MiB) array.
    # Its counts are distinct, so each term is summed once, as from probabilities.
    counts = np.array([[2**20, 3], [0, 5]], dtype=dtype)
    g = Glcm(counts, SpacingVector(1, 0))
    tracemalloc.start()
    try:
        dist = glcp(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    dense = ProbDist.normalize(counts.reshape(-1).astype(np.float64))
    for kind, order in MEASURES:
        m = EntropyMeasure.select(kind, order, order)
        assert apply_measure(m, dist) == apply_measure(m, dense), (kind, order)


def _count_glcms(monkeypatch) -> list[str]:
    """Record, from now on, each Glcm made by compute_glcm or from a matrix."""
    made = []
    of_tally, init = Glcm._of_tally.__func__, Glcm.__init__

    def counted_of_tally(cls, *args):
        made.append("tally")
        return of_tally(cls, *args)

    def counted_init(self, *args, **kwargs):
        made.append("matrix")
        init(self, *args, **kwargs)

    monkeypatch.setattr(Glcm, "_of_tally", classmethod(counted_of_tally))
    monkeypatch.setattr(Glcm, "__init__", counted_init)
    return made


def _count_cell_builds(monkeypatch) -> list[SpacingVector]:
    """Record, from now on, the spacing of each Glcm whose cells get built."""
    built = []
    cells = Glcm.cells.fget

    def counted(self):
        if self._cells is None:
            built.append(self.spacing)
        return cells(self)

    monkeypatch.setattr(Glcm, "cells", property(counted))
    return built


def test_correlation_map_makes_no_glcm(monkeypatch):
    made = _count_glcms(monkeypatch)
    img = noise_image(24, 24, seed=5, levels=256)
    compute_fbim(img, CORRELATION, d_max=4, threads=2)
    compute_fbim(img, CORRELATION, d_max=4, symmetric=True)
    assert made == []
    compute_glcm(img, SpacingVector(3, 0))
    Glcm(np.eye(3, dtype=np.int64), SpacingVector(1, 0))
    assert made == ["tally", "matrix"]


@pytest.mark.parametrize("levels, symmetric, sparse_rows", [
    (4, False, 0), (4, True, 0),  # every spacing binned: the tiles are stacked
    (16, False, 3),  # 240 or fewer pairs against 256 bins at d = 1: none binned
    (16, True, 1),  # twice the pairs: binned at d = 1 and 2, not at d = 5 and 45 degrees
    (256, False, 3), (256, True, 3),  # sorted
])
def test_classify_tiles_and_proposed_maps_never_build_cells(levels, symmetric, sparse_rows,
                                                            monkeypatch):
    # A distance goes through compute_glcm, glcp and apply_measure tile by
    # tile, once per spacing vector, unless all four of its vectors are binned.
    tiles = [(f"c{k % 2}", f"t{k}", noise_image(16, 16, seed=k, levels=levels))
             for k in range(4)]
    measures = {kind: EntropyMeasure.select(kind, 1.01, 2.5) for kind in MEASURE_KINDS}
    calls = {name: 0 for name in ("compute_glcm", "glcp", "apply_measure")}
    for name in calls:
        original = getattr(texent.dataset, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(texent.dataset, name, counted)
    built = _count_cell_builds(monkeypatch)
    build_feature_sets(tiles, measures, [1, 2, 5], symmetric)
    glcms = len(tiles) * sparse_rows * 4  # 4 angles
    assert calls == {"compute_glcm": glcms, "glcp": glcms,
                     "apply_measure": glcms * len(measures)}
    compute_fbim(tiles[0][2], measures["proposed"], d_max=7, symmetric=symmetric)
    compute_fbim(tiles[0][2], measures["renyi"], d_max=7, symmetric=symmetric)
    assert built == []


@pytest.mark.parametrize("levels", [4, 256])
@pytest.mark.parametrize("symmetric", [False, True])
def test_one_glcm_builds_its_cells_once_on_request(symmetric, levels, monkeypatch):
    built = _count_cell_builds(monkeypatch)
    img = noise_image(24, 24, seed=5, levels=levels)
    g = compute_glcm(img, SpacingVector(3, 45), symmetric)
    dist = glcp(g)
    glcm_entropy(g, EntropyMeasure("shannon"))
    assert built == []
    probs = dist.probs
    assert built == ([] if g._binned else [g.spacing])  # L * L bins are read as they are
    correlation(g)
    codes, values = g.cells
    scattered = np.zeros(levels * levels)
    scattered[codes] = values / g.total
    assert probs.tobytes() == scattered.tobytes()
    assert glcp(g).probs.tobytes() == probs.tobytes()
    assert built == [g.spacing]
    matrix = Glcm(g.counts.astype(np.uint64), g.spacing)  # found by nonzero, as bins are
    assert glcp(matrix).probs.tobytes() == probs.tobytes()
    assert built == [g.spacing] * 2


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
    assert _peak_of(lambda: evaluate(compute_glcm(img, spacing)))[1] < 256 * 256 * 8


@pytest.mark.parametrize("symmetric", [False, True])
def test_sorted_codes_are_sorted_in_place(symmetric):
    # A sorted copy of the uint16 pair codes would take the peak past twice
    # their bytes.  Besides them it holds NumPy's buffer for casting uint8
    # pixels to uint16 and, when symmetric, the stacked pixel blocks.
    img = noise_image(128, 128, seed=17, levels=256)
    g, peak = _peak_of(lambda: compute_glcm(img, SpacingVector(1, 0), symmetric))
    assert not g._binned
    assert peak < 1.85 * g.total * np.dtype(np.uint16).itemsize


def _peak_of(call):
    """(result, tracemalloc peak above the memory already traced) of a warm ``call()``."""
    call()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
