"""Unit tests for co-occurrence matrices and their features."""

import math

import numpy as np
import pytest

from conftest import brute_force_glcm, noise_image, stripe_image
from texent import (
    ANGLES,
    DegenerateVarianceError,
    DomainError,
    EmptyGlcmError,
    EntropyMeasure,
    Glcm,
    GrayImage,
    ProbDist,
    SpacingVector,
    compute_glcm,
    correlation,
    glcm_entropy,
    glcp,
    offset_of,
)

E1 = math.exp(-1)


class TestGrayImage:
    def test_shape_and_levels(self):
        img = GrayImage([[0, 1], [2, 3]], levels=4)
        assert (img.width, img.height, img.levels) == (2, 2, 4)

    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(DomainError):
            GrayImage([[0, 4]], levels=4)
        with pytest.raises(DomainError):
            GrayImage([[-1, 0]], levels=4)

    def test_rejects_non_integer(self):
        with pytest.raises(DomainError):
            GrayImage([[0.5, 0.5]], levels=4)

    @pytest.mark.parametrize("levels", [1, 257, 1 << 20, 2.0])
    def test_levels_must_fit_8_bits(self, levels):
        with pytest.raises(DomainError, match=r"levels must be an integer in \[2, 256\]"):
            GrayImage([[0, 1]], levels=levels)

    def test_rejects_empty_or_1d(self):
        with pytest.raises(DomainError):
            GrayImage([1, 2, 3], levels=4)

    def test_quantize(self):
        img = GrayImage([[0, 64, 128, 255]], levels=256)
        q = img.quantize(4)
        assert q.pixels.tolist() == [[0, 1, 2, 3]]
        assert q.levels == 4
        with pytest.raises(DomainError):
            q.quantize(256)

    def test_pixels_read_only(self):
        img = GrayImage([[0, 1]], levels=2)
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1


class TestEightBitPixels:
    """Pixels are stored as uint8; arithmetic on them must widen first."""

    def test_pixels_are_uint8(self):
        assert GrayImage(np.array([[0, 255]], dtype=np.int64)).pixels.dtype == np.uint8
        assert noise_image(5, 4, seed=3, levels=7).pixels.dtype == np.uint8

    @pytest.mark.parametrize("levels", [200, 256])
    def test_top_pair_index(self, levels):
        # (L-1)*L + (L-1) exceeds 255 for every L above 16.
        img = GrayImage(np.full((6, 5), levels - 1), levels=levels)
        g = compute_glcm(img, SpacingVector(1, 0))
        assert g.counts[levels - 1, levels - 1] == 6 * 4 == g.total

    def test_quantize_top_level(self):
        img = GrayImage(np.full((2, 3), 255), levels=256)
        assert img.quantize(16).pixels.tolist() == [[15, 15, 15], [15, 15, 15]]


class TestOffsets:
    def test_axis_cases(self):
        assert offset_of(SpacingVector(1, 0)) == (1, 0)
        assert offset_of(SpacingVector(2, 90)) == (0, -2)

    def test_opposite_angle_negates(self):
        assert offset_of(SpacingVector(3, 225)) == (-3, 3)
        for theta in (0, 45, 90, 135):
            dx, dy = offset_of(SpacingVector(5, theta))
            assert offset_of(SpacingVector(5, theta + 180)) == (-dx, -dy)

    def test_invalid_spacing(self):
        with pytest.raises(DomainError):
            SpacingVector(0, 0)
        with pytest.raises(DomainError):
            SpacingVector(1, 30)


class TestComputeGlcm:
    def test_two_column_image(self):
        img = GrayImage([[0, 1], [0, 1]], levels=2)
        g = compute_glcm(img, SpacingVector(1, 0))
        assert g.counts.tolist() == [[0, 2], [0, 0]]
        assert g.total == 2

    def test_constant_image_single_cell(self):
        img = GrayImage(np.full((5, 5), 3, dtype=np.int64), levels=8)
        for theta in ANGLES:
            g = compute_glcm(img, SpacingVector(2, theta))
            assert g.counts[3, 3] == g.total > 0
            assert g.counts.sum() == g.counts[3, 3]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            h, w = rng.integers(6, 17, size=2)
            levels = int(rng.choice([2, 4, 8]))
            img = GrayImage(rng.integers(0, levels, size=(h, w)), levels=levels)
            for theta in ANGLES:
                for d in (1, 2, 3):
                    got = compute_glcm(img, SpacingVector(d, theta)).counts
                    want = brute_force_glcm(img.pixels, levels, d, theta)
                    assert np.array_equal(got, want)

    def test_symmetric_equals_sum_of_opposite_angles(self):
        img = noise_image(12, 10, seed=9, levels=8)
        for theta in (0, 45, 90, 135):
            sym = compute_glcm(img, SpacingVector(2, theta), symmetric=True).counts
            fwd = compute_glcm(img, SpacingVector(2, theta)).counts
            rev = compute_glcm(img, SpacingVector(2, theta + 180)).counts
            assert np.array_equal(sym, fwd + rev)

    def test_no_in_bounds_pairs(self):
        img = GrayImage(np.zeros((4, 4), dtype=np.int64), levels=2)
        with pytest.raises(EmptyGlcmError):
            compute_glcm(img, SpacingVector(4, 0))
        with pytest.raises(EmptyGlcmError):
            compute_glcm(img, SpacingVector(4, 270))


class TestGlcp:
    def test_flattens_row_major(self):
        img = GrayImage([[0, 1], [0, 1]], levels=2)
        p = glcp(compute_glcm(img, SpacingVector(1, 0)))
        assert p.probs.tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_constant_image_degenerate(self):
        img = GrayImage(np.zeros((4, 4), dtype=np.int64), levels=2)
        p = glcp(compute_glcm(img, SpacingVector(1, 0)))
        assert p.probs[0] == 1.0

    def test_always_a_valid_distribution(self):
        for seed in range(5):
            img = noise_image(10, 10, seed=seed, levels=16)
            p = glcp(compute_glcm(img, SpacingVector(1, 45)))
            assert p.n == 16 * 16
            assert abs(float(p.probs.sum()) - 1.0) <= 1e-9

    @pytest.mark.parametrize("levels", [16, 256])
    def test_equals_checked_distribution(self, levels):
        for seed in range(4):
            g = compute_glcm(noise_image(24, 24, seed=seed, levels=levels),
                             SpacingVector(1 + seed, ANGLES[seed]))
            p = glcp(g)
            checked = ProbDist(g.counts.reshape(-1) / g.total)
            assert p.probs.tobytes() == checked.probs.tobytes()
            assert not p.probs.flags.writeable

    def test_negative_count_rejected(self):
        g = Glcm(counts=np.array([[3, -1], [0, 0]]), spacing=SpacingVector(1, 0))
        with pytest.raises(DomainError, match="non-negative"):
            glcp(g)

    def test_empty_matrix_rejected(self):
        empty = Glcm(counts=np.zeros((2, 2), dtype=np.int64), spacing=SpacingVector(1, 0))
        with pytest.raises(EmptyGlcmError):
            glcp(empty)


class TestCorrelation:
    def test_alternating_stripes_anticorrelated_at_one(self):
        img = stripe_image(16, 8, period=2, duty=1, hi=1, levels=2)
        g = compute_glcm(img, SpacingVector(1, 0))
        assert correlation(g) == pytest.approx(-1.0, abs=1e-9)

    def test_alternating_stripes_correlated_at_two(self):
        img = stripe_image(16, 8, period=2, duty=1, hi=1, levels=2)
        g = compute_glcm(img, SpacingVector(2, 0))
        assert correlation(g) == pytest.approx(1.0, abs=1e-9)

    def test_constant_image_degenerate(self):
        img = GrayImage(np.full((6, 6), 5, dtype=np.int64), levels=8)
        with pytest.raises(DegenerateVarianceError):
            correlation(compute_glcm(img, SpacingVector(1, 0)))

    def test_bounded_on_random_images(self):
        for seed in range(10):
            img = noise_image(14, 14, seed=100 + seed, levels=32)
            c = correlation(compute_glcm(img, SpacingVector(1, 0)))
            assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12


class TestGlcmEntropy:
    def test_constant_image_floor(self):
        img = GrayImage(np.full((8, 8), 2, dtype=np.int64), levels=4)
        g = compute_glcm(img, SpacingVector(1, 0))
        assert glcm_entropy(g, EntropyMeasure("proposed")) == pytest.approx(
            E1, abs=1e-15
        )
        assert glcm_entropy(g, EntropyMeasure("proposed-normalized")) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_uniform_pairs_hit_ceiling(self):
        uniform = Glcm(
            counts=np.ones((4, 4), dtype=np.int64), spacing=SpacingVector(1, 0)
        )
        assert glcm_entropy(uniform, EntropyMeasure("proposed-normalized")) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_proposed_within_analytic_bounds(self):
        for seed in range(5):
            img = noise_image(12, 12, seed=seed, levels=8)
            h = glcm_entropy(
                compute_glcm(img, SpacingVector(1, 90)), EntropyMeasure("proposed")
            )
            assert E1 - 1e-12 <= h <= math.exp(-1.0 / (8 * 8) ** 2) + 1e-12
