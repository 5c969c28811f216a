"""Unit tests for polar interaction maps."""

import numpy as np
import pytest

from conftest import noise_image, stripe_image
from texent import (
    CORRELATION,
    DomainError,
    EntropyMeasure,
    Fbim,
    GrayImage,
    compute_fbim,
    fbim_to_csv,
    fbim_to_image,
)

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

    def test_constant_image_correlation_all_missing(self):
        img = GrayImage(np.full((20, 20), 9, dtype=np.int64), levels=16)
        f = compute_fbim(img, CORRELATION, d_max=4)
        assert np.isnan(f.values).all()
        with pytest.raises(DomainError):
            fbim_to_image(f)

    def test_deterministic_and_thread_invariant(self):
        img = noise_image(24, 24, seed=3)
        a = compute_fbim(img, HN, d_max=6)
        b = compute_fbim(img, HN, d_max=6)
        c = compute_fbim(img, HN, d_max=6, threads=4)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values)

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
