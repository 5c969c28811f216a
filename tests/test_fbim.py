"""Unit tests for polar interaction maps."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import texent
import texent.fbim
from conftest import ORDERS, noise_image, stripe_image
from texent import (
    ANGLES,
    CORRELATION,
    MEASURE_KINDS,
    DomainError,
    EntropyMeasure,
    Fbim,
    GrayImage,
    SpacingVector,
    compute_fbim,
    compute_glcm,
    correlation,
    fbim_to_csv,
    fbim_to_image,
)
from texent._text import sig15
from texent.errors import DegenerateVarianceError
from texent.glcm import _correlations

HN = EntropyMeasure("proposed-normalized")


def _map(values, name="test"):
    return Fbim(values=np.asarray(values, dtype=np.float64), feature_name=name)


class TestComputeFbim:
    def test_full_shape_on_standard_tile(self):
        img = noise_image(128, 128, seed=1)
        f = compute_fbim(img, EntropyMeasure("proposed"), d_max=31, threads=4)
        assert f.values.shape == (8, 31)
        assert f.d_max == 31
        assert np.isfinite(f.values).all()

    def test_image_too_small(self):
        img = noise_image(16, 16, seed=2)
        with pytest.raises(DomainError):
            compute_fbim(img, EntropyMeasure("proposed"), d_max=16)
        compute_fbim(img, EntropyMeasure("proposed"), d_max=15)

    def test_dmax_below_one(self):
        with pytest.raises(DomainError, match="d_max must be an integer >= 1, got 0"):
            compute_fbim(noise_image(8, 8, seed=2), EntropyMeasure("proposed"), d_max=0)

    @pytest.mark.parametrize("d_max", [3.0, 2.5, "3", None])
    def test_dmax_not_an_integer(self, d_max):
        with pytest.raises(DomainError, match="d_max must be an integer"):
            compute_fbim(noise_image(8, 8, seed=2), CORRELATION, d_max=d_max)

    def test_dmax_true_maps_as_one(self):
        img = noise_image(8, 8, seed=2)
        f = compute_fbim(img, EntropyMeasure("proposed"), d_max=True)
        assert f.d_max == 1 and type(f.d_max) is int
        want = compute_fbim(img, EntropyMeasure("proposed"), d_max=1)
        assert f.values.tobytes() == want.values.tobytes()

    def test_dmax_numpy_integer_accepted(self):
        img = noise_image(8, 8, seed=2)
        f = compute_fbim(img, CORRELATION, d_max=np.int64(3))
        assert f.values.tobytes() == compute_fbim(img, CORRELATION, d_max=3).values.tobytes()

    @pytest.mark.parametrize("threads", [0, -5])
    @pytest.mark.parametrize("feature", [CORRELATION, HN], ids=["correlation", "entropy"])
    def test_threads_below_one(self, feature, threads):
        with pytest.raises(DomainError, match=f"threads must be an integer >= 1, got {threads}"):
            compute_fbim(noise_image(8, 8, seed=2), feature, d_max=3, threads=threads)

    @pytest.mark.parametrize("threads", [1.5, "2", None])
    @pytest.mark.parametrize("feature", [CORRELATION, HN], ids=["correlation", "entropy"])
    def test_threads_not_an_integer(self, feature, threads):
        with pytest.raises(DomainError, match="threads must be an integer"):
            compute_fbim(noise_image(8, 8, seed=2), feature, d_max=3, threads=threads)

    def test_constant_image_correlation_all_missing(self):
        img = GrayImage(np.full((20, 20), 9, dtype=np.int64), levels=16)
        f = compute_fbim(img, CORRELATION, d_max=4)
        assert np.isnan(f.values).all()
        with pytest.raises(DomainError):
            fbim_to_image(f)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(2, 16), w=st.integers(2, 16),
           levels=st.integers(2, 16), spread=st.integers(1, 16), d_max=st.integers(1, 15),
           alpha=ORDERS, q=ORDERS)
    # A constant image leaves every correlation cell NaN.
    @example(seed=0, h=6, w=5, levels=4, spread=1, d_max=4, alpha=1e308, q=1e308)
    @example(seed=3, h=16, w=16, levels=16, spread=3, d_max=15, alpha=1e308, q=1e-300)
    def test_deterministic_and_thread_invariant(self, seed, h, w, levels, spread, d_max,
                                                alpha, q):
        rng = np.random.default_rng(seed)
        img = GrayImage(rng.integers(0, min(spread, levels), size=(h, w)), levels)
        d_max = min(d_max, h - 1, w - 1)
        measures = [EntropyMeasure.select(kind, alpha, q) for kind in MEASURE_KINDS]
        for feature in (CORRELATION, *measures):
            seq = compute_fbim(img, feature, d_max=d_max, threads=1)
            par = compute_fbim(img, feature, d_max=d_max, threads=2)
            assert seq.values.tobytes() == par.values.tobytes()
            assert feature == CORRELATION or np.isfinite(seq.values).all()

    def test_symmetric_duplicates_opposite_rows(self):
        img = noise_image(20, 20, seed=4, levels=16)
        f = compute_fbim(img, EntropyMeasure("shannon"), d_max=5, symmetric=True)
        for r in range(4):
            assert np.array_equal(f.values[r], f.values[r + 4])

    def test_periodic_stripes_extrema_align(self):
        # Period-4 vertical stripes: along theta=0 the entropy dips and the
        # correlation peaks exactly at multiples of the period.
        img = stripe_image(32, 32, period=4, duty=1)
        hn = compute_fbim(img, HN, d_max=12).values[0]
        co = compute_fbim(img, CORRELATION, d_max=12).values[0]
        assert [d + 1 for d in range(12) if hn[d] <= hn.min() + 1e-12] == [4, 8, 12]
        assert [d + 1 for d in range(12) if co[d] >= np.nanmax(co) - 1e-12] == [4, 8, 12]

    def test_rejects_unknown_feature(self):
        img = noise_image(10, 10, seed=5)
        for feature in ("contrast", None, "proposed"):
            with pytest.raises(DomainError, match="feature must be an EntropyMeasure"):
                compute_fbim(img, feature, d_max=2)


def _cell_correlation(img, spacing, symmetric):
    try:
        return correlation(compute_glcm(img, spacing, symmetric))
    except DegenerateVarianceError:
        return float("nan")


def _per_cell_map(img, d_max, symmetric):
    # Every cell of all eight angles through compute_glcm and correlation.
    return np.array([[_cell_correlation(img, SpacingVector(d, theta), symmetric)
                      for d in range(1, d_max + 1)] for theta in ANGLES])


def _half_spacings(d_max):
    return [SpacingVector(d, theta) for theta in ANGLES[:4] for d in range(1, d_max + 1)]


class TestCorrelationFromAutocorrelation:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(2, 24), w=st.integers(2, 24),
           levels=st.integers(2, 256), spread=st.integers(1, 256), sparse=st.booleans(),
           d_max=st.integers(1, 23), symmetric=st.booleans())
    @example(seed=0, h=7, w=6, levels=4, spread=4, sparse=True, d_max=5, symmetric=False)
    @example(seed=1, h=24, w=9, levels=256, spread=256, sparse=False, d_max=8,
             symmetric=True)
    @example(seed=2, h=2, w=24, levels=2, spread=2, sparse=False, d_max=1, symmetric=False)
    def test_equals_the_per_cell_path_bit_for_bit(self, seed, h, w, levels, spread, sparse,
                                                  d_max, symmetric):
        # Sparse images are near-constant, so some or all of their cells are NaN.
        rng = np.random.default_rng(seed)
        px = rng.integers(0, min(spread, levels), size=(h, w))
        if sparse:
            px[rng.random((h, w)) >= 0.1] = 0
        img = GrayImage(px, levels)
        d_max = min(d_max, h - 1, w - 1)
        expected = _per_cell_map(img, d_max, symmetric).tobytes()
        fast = compute_fbim(img, CORRELATION, d_max=d_max, symmetric=symmetric).values
        assert fast.tobytes() == expected

    def test_nan_cells_where_a_block_is_constant(self):
        px = np.zeros((7, 6), dtype=np.int64)
        px[1, 1] = 2
        img = GrayImage(px, 4)
        fast = compute_fbim(img, CORRELATION, d_max=5).values
        assert np.isnan(fast).sum() == 32 and np.isfinite(fast).sum() == 8
        assert fast.tobytes() == _per_cell_map(img, 5, False).tobytes()

    def test_never_evaluates_a_cell(self, monkeypatch):
        def no_cell(*args):
            raise AssertionError("a cell was evaluated on its own")

        monkeypatch.setattr(texent.fbim, "_cell_feature", no_cell)
        compute_fbim(noise_image(64, 48, seed=8), CORRELATION, d_max=31, threads=2)

    def test_exact_on_large_bright_images(self):
        # Past 446x446 full-range pixels at d_max = 31, a float64 FFT
        # autocorrelation can no longer be rounded to sum(i*j) with certainty;
        # the dot products stay exact.  A 480x480 image of 254s and 255s,
        # symmetric, against its per-cell values, and a constant 447x447
        # image, all NaN.
        spacings = _half_spacings(31)
        rng = np.random.default_rng(4)
        bright = GrayImage(255 - rng.integers(0, 2, size=(480, 480)), 256)
        values = _correlations(bright, spacings, True)
        assert values == [_cell_correlation(bright, s, True) for s in spacings]
        full_range = GrayImage(np.full((447, 447), 255), 256)
        assert np.isnan(_correlations(full_range, spacings, False)).all()

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_vertical_spacings_need_no_padding(self, symmetric):
        # No spacing at 90 or 270 degrees steps a column, so the rows are laid
        # end to end unpadded.
        img = noise_image(17, 23, seed=9)
        spacings = [SpacingVector(d, theta) for theta in (90, 270) for d in range(1, 23)]
        assert _correlations(img, spacings, symmetric) == \
            [_cell_correlation(img, s, symmetric) for s in spacings]

    def test_importing_the_cli_leaves_numpy_fft_unloaded(self):
        # numpy.fft is never imported, not even by a correlation map, and no
        # thread pool is ever loaded.
        code = ("import sys, texent.cli\n"
                "print('numpy.fft' in sys.modules, 'concurrent.futures' in sys.modules)\n"
                "img = texent.GrayImage([[0, 1], [1, 0]], 2)\n"
                "texent.compute_fbim(img, 'correlation', 1)\n"
                "print('numpy.fft' in sys.modules, 'concurrent.futures' in sys.modules)\n"
                "texent.compute_fbim(img, texent.EntropyMeasure('proposed'), 1, threads=2)\n"
                "texent.build_feature_sets([('a', 't', img)], "
                "{'h': texent.EntropyMeasure('shannon')}, 1, threads=2)\n"
                "print('concurrent.futures' in sys.modules)\n")
        src = Path(texent.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["False", "False", "False", "False", "False"]

    def test_classify_and_compare_leave_numpy_ma_unloaded(self, tmp_path):
        # numpy.ma costs a cold run about 1 MB of RSS; a split, a held-out
        # corpus and a five-measure compare each leave it unimported.
        root = tmp_path / "corpus"
        for cls, maker in (("noise", lambda i: noise_image(12, 12, seed=i)),
                           ("stripes", lambda i: stripe_image(12, 12, 4, 2, phase=i))):
            (root / cls).mkdir(parents=True)
            for i in range(3):
                texent.write_pgm(root / cls / f"t{i}.pgm", maker(i))
        common = f"'--train', {str(root)!r}, '--dist', '1', '--levels', '8', '--report', "
        code = ("import sys, texent.cli\n"
                "loaded = ['numpy.ma' in sys.modules]\n"
                f"for argv in (['classify', {common}'r1.csv', '--trials', '2'],\n"
                f"             ['classify', {common}'r2.csv', '--test', {str(root)!r}],\n"
                f"             ['compare', {common}'r3.csv']):\n"
                "    assert texent.cli.run(argv) == 0, argv\n"
                "    loaded.append('numpy.ma' in sys.modules)\n"
                "print(loaded)\n")
        src = Path(texent.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, cwd=tmp_path).stdout
        assert out.splitlines()[-1] == str([False] * 4)


class TestFbimToImage:
    def test_constant_map_renders_mid_gray(self):
        img = fbim_to_image(_map(np.full((8, 3), 0.75)))
        assert (img.pixels == 128).all()

    def test_endpoints_scale_to_full_range(self):
        values = np.zeros((8, 2))
        values[0, 0] = 1.0
        img = fbim_to_image(_map(values))
        assert img.pixels[0, 0] == 255
        assert img.pixels[1, 1] == 0

    def test_missing_cells_render_zero(self):
        values = np.full((8, 2), 0.5)
        values[3, 1] = np.nan
        img = fbim_to_image(_map(values))
        assert img.pixels[3, 1] == 0
        assert img.pixels[0, 0] == 128

    def test_shape_is_dmax_wide_8_tall(self):
        img = fbim_to_image(_map(np.zeros((8, 31))))
        assert (img.width, img.height) == (31, 8)


class TestFbimToCsv:
    def test_shape(self):
        text = fbim_to_csv(_map(np.zeros((8, 2))))
        lines = text.strip().split("\n")
        assert len(lines) == 9
        assert lines[0] == "1,2"
        assert all(len(line.split(",")) == 2 for line in lines)

    def test_round_trip_15_digits(self):
        rng = np.random.default_rng(12)
        values = rng.random((8, 4))
        text = fbim_to_csv(_map(values))
        parsed = np.array(
            [[float(x) for x in line.split(",")] for line in text.strip().split("\n")[1:]]
        )
        np.testing.assert_allclose(parsed, values, rtol=1e-14)

    def test_missing_cell_is_empty_field(self):
        values = np.full((8, 2), 0.25)
        values[2, 0] = np.nan
        text = fbim_to_csv(_map(values))
        row = text.strip().split("\n")[3]
        assert row.startswith(",")
        assert "nan" not in text.lower()


def _numpy_scalar_csv(f):
    """The formatter fbim_to_csv replaced: NumPy scalars tested with np.isfinite."""
    lines = [",".join(str(d) for d in range(1, f.d_max + 1))]
    for row in f.values:
        lines.append(",".join("" if not np.isfinite(v) else sig15(v) for v in row))
    return "\n".join(lines) + "\n"


def _signed(magnitudes):
    return st.builds(lambda m, negative: -m if negative else m, magnitudes, st.booleans())


# Values whose rounding to 15 significant digits carries into a new leading digit.
_CARRIES = st.integers(-307, 300).map(lambda e: float(f"9.9999999999999995e{e}"))

_CELLS = st.one_of(
    st.floats(),  # NaN and the infinities included
    st.sampled_from([np.nan, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                     2.2250738585072009e-308, 1.7976931348623157e308, np.inf, -np.inf]),
    _signed(st.floats(5e-324, 2.2250738585072009e-308)),  # subnormals
    _signed(st.floats(1e295, 1e305)),
    _signed(st.floats(1e-305, 1e-295)),
    _signed(_CARRIES),
    _signed(st.floats(0.5, 1.5)),
)


@st.composite
def _maps(draw):
    d_max = draw(st.integers(1, 9))
    values = np.array(draw(st.lists(_CELLS, min_size=8 * d_max, max_size=8 * d_max)),
                      dtype=np.float64).reshape(8, d_max)
    for r in draw(st.sets(st.integers(0, 7), max_size=8)):
        values[r] = np.nan
    return _map(values)


class TestFbimToCsvBytes:
    @settings(deadline=None)
    @given(_maps())
    @example(_map(np.full((8, 3), np.nan)))
    @example(_map(np.array([[9.9999999999999995, 0.99999999999999995, -0.0]] * 8)))
    def test_same_bytes_as_numpy_scalar_formatting(self, f):
        assert fbim_to_csv(f) == _numpy_scalar_csv(f)
