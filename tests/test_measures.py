"""Unit tests for the entropy measures.

Expected decimals were frozen from an independent high-precision evaluation
(mpmath at 30 digits) of each closed-form expression; conditional entropies
are additionally checked against an explicit per-cell loop written here.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ORDERS
from texent import (
    DegenerateNormalizationError,
    DomainError,
    EntropyMeasure,
    Glcm,
    GrayImage,
    H_MIN,
    MEASURE_KINDS,
    JointDist,
    ProbDist,
    SpacingVector,
    apply_measure,
    compute_glcm,
    conditional_entropy_x_given_y,
    conditional_entropy_y_given_x,
    entropy,
    entropy_bounds,
    glcp,
    info_gain,
    joint_entropy,
    normalized_entropy,
    pal_pal,
    relative_entropy,
    renyi,
    shannon,
    tsallis,
)

E1 = math.exp(-1)


def _renyi_direct(dist, alpha):
    # ln(sum(p**alpha)) / (1 - alpha) as written, which underflows to inf for
    # large alpha; kept as the reference renyi must stay within rounding of.
    p = dist.probs
    return float(np.log(np.sum(p**alpha)) / (1.0 - alpha))


def test_constructors_copy_the_callers_array():
    probs, joint, counts = np.array([0.5, 0.5]), np.full((2, 2), 0.25), np.array([[1, 2], [3, 4]])
    p, j, g = ProbDist(probs), JointDist(joint), Glcm(counts, SpacingVector(1, 0))
    for given_array, held in ((probs, p.probs), (joint, j.cells), (counts, g.counts)):
        assert given_array.flags.writeable and not held.flags.writeable
        assert not np.shares_memory(given_array, held)
    probs[0], joint[0, 0], counts[0, 0] = 0.9, 0.9, 100
    assert p.probs.tolist() == [0.5, 0.5] and j.cells.tolist() == [[0.25] * 2] * 2
    assert g.counts.tolist() == [[1, 2], [3, 4]]
    assert shannon(glcp(g)) == shannon(glcp(Glcm([[1, 2], [3, 4]], SpacingVector(1, 0))))


class TestProbDist:
    def test_accepts_valid(self):
        p = ProbDist([0.25, 0.75])
        assert p.n == 2
        assert len(p) == 2

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            ProbDist([0.5, 0.5 + 1e-6])

    def test_accepts_sum_within_tolerance(self):
        ProbDist([0.5, 0.5 + 1e-10])

    def test_rejects_negative_and_above_one(self):
        with pytest.raises(DomainError):
            ProbDist([-0.1, 1.1])
        with pytest.raises(DomainError):
            ProbDist([1.2, -0.2])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            ProbDist([])

    def test_normalize_rescales_explicitly(self):
        p = ProbDist.normalize([2.0, 6.0])
        assert p.probs.tolist() == [0.25, 0.75]

    def test_normalize_rejects_zero_total(self):
        with pytest.raises(DomainError):
            ProbDist.normalize([0.0, 0.0])

    @pytest.mark.parametrize("weights, message", [
        ([], "weights must be a non-empty 1-D array of reals"),
        ([2.0, -1.0], "weights must be non-negative"),
    ])
    def test_normalize_rejects_empty_or_negative_weights(self, weights, message):
        with pytest.raises(DomainError, match=message):
            ProbDist.normalize(weights)

    @pytest.mark.parametrize("make, values", [
        (ProbDist, [0.5, math.nan, 0.5]),
        (ProbDist, [math.nan]),
        (ProbDist, [math.inf, 0.0]),
        (ProbDist.normalize, [1.0, math.inf]),
        (ProbDist.normalize, [math.nan, 1.0]),
        (JointDist, [[0.5, math.nan], [0.5, 0.0]]),
        (JointDist, [[1.0, -math.inf], [0.0, 0.0]]),
        (JointDist.normalize, [[1.0, math.inf], [0.0, 0.0]]),
        (JointDist.normalize, [[math.nan, 1.0], [0.0, 0.0]]),
        (ProbDist.normalize, [1e308, 1e308]),  # finite weights, total past the float range
    ], ids=lambda x: getattr(x, "__qualname__", None))
    def test_non_finite_rejected(self, make, values):
        with pytest.raises(DomainError, match="must lie in|must be non-negative and finite|"
                                              "must have a positive, finite total"):
            make(values)

    def test_probs_read_only(self):
        p = ProbDist([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


class TestJointDist:
    def test_marginals(self):
        j = JointDist([[0.5, 0.25], [0.125, 0.125]])
        assert j.n == 2 and j.m == 2
        np.testing.assert_allclose(j.marginal_x.probs, [0.75, 0.25])
        np.testing.assert_allclose(j.marginal_y.probs, [0.625, 0.375])

    def test_rejects_bad_total(self):
        with pytest.raises(DomainError):
            JointDist([[0.5, 0.5], [0.5, 0.5]])

    def test_rejects_negative_cell(self):
        with pytest.raises(DomainError):
            JointDist([[1.1, -0.1], [0.0, 0.0]])

    @pytest.mark.parametrize("weights, message", [
        ([[]], "weights must be a non-empty 2-D array of reals"),
        ([[1.0, -1.0], [0.0, 2.0]], "weights must be non-negative"),
    ])
    def test_normalize_rejects_empty_or_negative_weights(self, weights, message):
        with pytest.raises(DomainError, match=message):
            JointDist.normalize(weights)


class TestInfoGain:
    def test_zero(self):
        assert info_gain(0.0) == 1.0

    def test_one_is_floor(self):
        assert info_gain(1.0) == pytest.approx(E1, abs=1e-15)

    def test_half(self):
        assert info_gain(0.5) == pytest.approx(0.7788007830714049, abs=1e-12)

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            info_gain(-0.01)
        with pytest.raises(DomainError):
            info_gain(1.01)

    def test_monotone_non_increasing(self):
        grid = np.linspace(0.0, 1.0, 1001)
        gains = [info_gain(p) for p in grid]
        assert all(a >= b for a, b in zip(gains, gains[1:]))


class TestEntropy:
    def test_degenerate_is_floor(self):
        assert entropy(ProbDist([1.0, 0.0])) == pytest.approx(E1, abs=1e-15)

    def test_uniform_two(self):
        assert entropy(ProbDist([0.5, 0.5])) == pytest.approx(
            0.7788007830714049, abs=1e-12
        )

    def test_skewed(self):
        assert entropy(ProbDist([0.25, 0.75])) == pytest.approx(
            0.6621903842515612, abs=1e-12
        )

    def test_zero_terms_contribute_exactly_nothing(self):
        base = ProbDist([0.25, 0.75])
        padded = ProbDist([0.25, 0.75, 0.0, 0.0, 0.0])
        assert abs(entropy(padded) - entropy(base)) <= 1e-15


class TestEntropyBounds:
    def test_single_outcome_degenerate(self):
        lo, hi = entropy_bounds(1)
        assert lo == hi == pytest.approx(E1, abs=1e-15)

    def test_two(self):
        lo, hi = entropy_bounds(2)
        assert lo == pytest.approx(0.3678794411714423, abs=1e-12)
        assert hi == pytest.approx(0.7788007830714049, abs=1e-12)

    def test_ten(self):
        assert entropy_bounds(10)[1] == pytest.approx(0.9900498337491681, abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            entropy_bounds(0)

    @pytest.mark.parametrize("n", [2**512, 10**200, 2**5000], ids=["2**512", "10**200", "2**5000"])
    def test_n_squared_past_any_float(self, n):
        # -1 / n**2 underflows to zero, where converting n**2 to a float overflowed.
        assert entropy_bounds(n) == (H_MIN, 1.0)

    def test_same_bits_as_float_division(self):
        # n * n reaches 2**53 at 94 906 266 and 2**63 past 3 037 000 499.
        for n in [*range(1, 2000), 70_000, 94_906_266, 3_037_000_500, 10**12]:
            assert entropy_bounds(n)[1] == math.exp(-1.0 / (n * n)), n


class TestNormalizedEntropy:
    @pytest.mark.parametrize("n", [2, 3, 7, 64])
    def test_uniform_is_one(self, n):
        assert normalized_entropy(ProbDist([1.0 / n] * n)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_degenerate_is_zero(self):
        assert normalized_entropy(ProbDist([1.0, 0.0, 0.0])) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_skewed(self):
        assert normalized_entropy(ProbDist([0.25, 0.75])) == pytest.approx(
            0.7162220918468818, abs=1e-12
        )

    def test_single_outcome_rejected(self):
        with pytest.raises(DegenerateNormalizationError):
            normalized_entropy(ProbDist([1.0]))


class TestComparisonEntropies:
    def test_shannon_degenerate(self):
        assert shannon(ProbDist([1.0, 0.0])) == 0.0

    def test_shannon_uniform_two(self):
        assert shannon(ProbDist([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-12)

    def test_shannon_skewed(self):
        assert shannon(ProbDist([0.25, 0.75])) == pytest.approx(
            0.5623351446188083, abs=1e-12
        )

    def test_renyi_uniform_matches_shannon_value(self):
        assert renyi(ProbDist([0.5, 0.5]), 2.0) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_renyi_degenerate(self):
        assert renyi(ProbDist([1.0, 0.0]), 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_renyi_skewed(self):
        assert renyi(ProbDist([0.25, 0.75]), 2.0) == pytest.approx(
            0.47000362924573555, abs=1e-12
        )

    def test_renyi_large_orders_tend_to_min_entropy(self):
        uniform = ProbDist.normalize(np.ones(16))
        assert renyi(uniform, 1000.0) == pytest.approx(math.log(16), abs=1e-12)
        for probs in ([0.25, 0.75], [0.5, 0.5, 0.0], [1.0, 0.0], [0.1, 0.2, 0.3, 0.4]):
            assert renyi(ProbDist(probs), 1e308) == -math.log(max(probs))

    def test_renyi_matches_direct_form_on_glcps(self):
        rng = np.random.default_rng(64)
        for levels in (4, 16, 64, 256):
            # Cubing uniform noise skews the gray levels toward 0.
            pixels = (rng.random((64, 64)) ** 3 * levels).astype(np.int64)
            img = GrayImage(pixels, levels)
            for d in (1, 7):
                for theta in (0, 45, 90, 135):
                    p = glcp(compute_glcm(img, SpacingVector(d, theta)))
                    for alpha in (0.3, 0.7, 1.5, 2.0, 3.0, 8.0):
                        want = _renyi_direct(p, alpha)
                        assert abs(renyi(p, alpha) - want) <= 2e-15 * abs(want)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.0])
    def test_renyi_rejects_bad_alpha(self, alpha):
        with pytest.raises(DomainError):
            renyi(ProbDist([0.5, 0.5]), alpha)

    def test_tsallis_values(self):
        assert tsallis(ProbDist([1.0, 0.0]), 2.0) == pytest.approx(0.0, abs=1e-15)
        assert tsallis(ProbDist([0.5, 0.5]), 2.0) == pytest.approx(0.5, abs=1e-12)
        assert tsallis(ProbDist([0.25, 0.75]), 2.0) == pytest.approx(0.375, abs=1e-12)

    @pytest.mark.parametrize("q", [0.0, -2.0, 1.0])
    def test_tsallis_rejects_bad_q(self, q):
        with pytest.raises(DomainError):
            tsallis(ProbDist([0.5, 0.5]), q)

    @pytest.mark.parametrize("order", [1 + 2.0**-52, 1 - 2.0**-52, 1 + 1e-12, 1 + 1e-6,
                                       1 + 1e-3, 1 - 1e-3])
    def test_renyi_and_tsallis_near_order_one_match_exact_reference(self, order):
        rng = np.random.default_rng(52)
        for _ in range(8):
            counts = rng.integers(0, 50, (8, 8)) * (rng.random((8, 8)) < 0.8)
            counts[0, 0] += 1
            p = glcp(Glcm(counts, SpacingVector(1, 0)))
            with localcontext() as ctx:
                ctx.prec = 60
                a, total = Decimal(order), Decimal(int(counts.sum()))
                s = sum((Decimal(int(k)) / total) ** a for k in counts.flat if k)
                want_renyi, want_tsallis = float(s.ln() / (1 - a)), float((1 - s) / (a - 1))
            assert abs(renyi(p, order) - want_renyi) <= 2e-15
            assert abs(tsallis(p, order) - want_tsallis) <= 2e-15

    def test_dense_distribution_near_order_one_is_measured_against_its_total(self):
        # The total is 1 + 5e-10; against 1 it would add 5e-10 / 1e-12 = 500.
        p = ProbDist([0.25, 0.75 + 5e-10])
        assert tsallis(p, 1 + 1e-12) == pytest.approx(shannon(p), abs=1e-9)
        assert renyi(p, 1 + 1e-12) == pytest.approx(shannon(p), abs=1e-9)

    def test_pal_pal_values(self):
        assert pal_pal(ProbDist([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
        assert pal_pal(ProbDist([0.5, 0.5])) == pytest.approx(
            1.6487212707001282, abs=1e-12
        )
        assert pal_pal(ProbDist([0.25, 0.75])) == pytest.approx(
            1.4922690666689748, abs=1e-12
        )


def _loop_conditional_x_given_y(cells):
    """Per-cell reference: sum p(x,y) * exp(-(p(x,y)/p(y))**2)."""
    cells = np.asarray(cells, dtype=float)
    total = 0.0
    for j in range(cells.shape[1]):
        col = cells[:, j].sum()
        for i in range(cells.shape[0]):
            if cells[i, j] > 0.0:
                total += cells[i, j] * math.exp(-((cells[i, j] / col) ** 2))
    return total


class TestConditionalEntropy:
    def test_independent_equals_marginal_entropy(self):
        px = ProbDist([0.5, 0.5])
        j = JointDist(np.outer([0.5, 0.5], [0.5, 0.5]))
        assert conditional_entropy_x_given_y(j) == pytest.approx(
            entropy(px), abs=1e-12
        )
        assert conditional_entropy_x_given_y(j) == pytest.approx(
            0.7788007830714049, abs=1e-12
        )

    def test_diagonal_joint_hits_floor(self):
        j = JointDist([[0.5, 0.0], [0.0, 0.5]])
        assert conditional_entropy_x_given_y(j) == pytest.approx(E1, abs=1e-15)
        assert conditional_entropy_y_given_x(j) == pytest.approx(E1, abs=1e-15)

    def test_matches_per_cell_loop(self):
        cells = [[0.5, 0.25], [0.125, 0.125]]
        j = JointDist(cells)
        assert conditional_entropy_x_given_y(j) == pytest.approx(
            _loop_conditional_x_given_y(cells), abs=1e-15
        )
        assert conditional_entropy_x_given_y(j) == pytest.approx(
            0.6558949036248496, abs=1e-12
        )
        assert conditional_entropy_y_given_x(j) == pytest.approx(
            0.7390002191864209, abs=1e-12
        )

    def test_independent_y_given_x_equals_y_marginal(self):
        j = JointDist(np.outer([0.25, 0.75], [0.5, 0.5]))
        assert conditional_entropy_y_given_x(j) == pytest.approx(
            entropy(j.marginal_y), abs=1e-12
        )

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, m = rng.integers(2, 7, size=2)
            j = JointDist(rng.dirichlet(np.ones(n * m)).reshape(n, m))
            jt = JointDist(j.cells.T)
            assert conditional_entropy_y_given_x(j) == pytest.approx(
                conditional_entropy_x_given_y(jt), abs=1e-14
            )

    def test_zero_column_contributes_nothing(self):
        j = JointDist([[0.5, 0.0], [0.5, 0.0]])
        assert conditional_entropy_x_given_y(j) == pytest.approx(
            2 * 0.5 * math.exp(-0.25), abs=1e-15
        )


class TestJointEntropy:
    def test_single_cell(self):
        assert joint_entropy(JointDist([[1.0, 0.0], [0.0, 0.0]])) == pytest.approx(
            E1, abs=1e-15
        )

    def test_uniform_2x2(self):
        assert joint_entropy(JointDist([[0.25, 0.25], [0.25, 0.25]])) == pytest.approx(
            0.9394130628134758, abs=1e-12
        )

    def test_diagonal(self):
        assert joint_entropy(JointDist([[0.5, 0.0], [0.0, 0.5]])) == pytest.approx(
            0.7788007830714049, abs=1e-12
        )


class TestRelativeEntropy:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = ProbDist(rng.dirichlet(np.ones(6)))
            assert relative_entropy(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_extreme_pair_is_exact_ceiling(self):
        d = relative_entropy(ProbDist([1.0, 0.0]), ProbDist([0.0, 1.0]))
        assert d == H_MIN

    def test_known_pair(self):
        d = relative_entropy(ProbDist([0.5, 0.5]), ProbDist([0.25, 0.75]))
        assert d == pytest.approx(0.03813142751209794, abs=1e-12)

    def test_never_exceeds_ceiling(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            p = ProbDist(rng.dirichlet(np.ones(n)))
            q = ProbDist(rng.dirichlet(np.ones(n)))
            assert relative_entropy(p, q) <= H_MIN + 1e-12

    def test_asymmetric(self):
        p = ProbDist([0.1, 0.9])
        q = ProbDist([0.6, 0.4])
        assert relative_entropy(p, q) != relative_entropy(q, p)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            relative_entropy(ProbDist([1.0]), ProbDist([0.5, 0.5]))


class TestEntropyMeasure:
    def test_dispatch_proposed(self):
        m = EntropyMeasure("proposed")
        assert apply_measure(m, ProbDist([1.0, 0.0])) == pytest.approx(E1, abs=1e-15)

    def test_dispatch_shannon(self):
        m = EntropyMeasure("shannon")
        assert apply_measure(m, ProbDist([0.5, 0.5])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_dispatch_renyi_matches_direct_call(self):
        m = EntropyMeasure("renyi", alpha=2.0)
        p = ProbDist([0.25, 0.75])
        assert apply_measure(m, p) == renyi(p, 2.0)
        assert apply_measure(m, p) == pytest.approx(0.47000362924573555, abs=1e-12)

    def test_dispatch_normalized_needs_two_outcomes(self):
        m = EntropyMeasure("proposed-normalized")
        with pytest.raises(DegenerateNormalizationError):
            apply_measure(m, ProbDist([1.0]))

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            EntropyMeasure("renyi")
        with pytest.raises(DomainError):
            EntropyMeasure("tsallis", q=1.0)
        with pytest.raises(DomainError):
            EntropyMeasure("shannon", alpha=2.0)
        with pytest.raises(DomainError):
            EntropyMeasure("proposed", q=2.0)
        with pytest.raises(DomainError):
            EntropyMeasure("nonsense")
        with pytest.raises(DomainError, match="alpha must be finite"):
            EntropyMeasure("renyi", alpha=math.inf)
        with pytest.raises(DomainError, match="q must be finite"):
            EntropyMeasure("tsallis", q=math.nan)

    @pytest.mark.parametrize("order", ["2", b"2", [2.0]])
    def test_non_real_order_rejected(self, order):
        with pytest.raises(DomainError, match="^alpha must be finite, > 0 and != 1, got "):
            EntropyMeasure("renyi", alpha=order)
        with pytest.raises(DomainError, match="^q must be finite, > 0 and != 1, got "):
            EntropyMeasure("tsallis", q=order)

    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    def test_dispatch_equals_public_function_exactly(self, kind):
        direct = {
            "proposed": entropy,
            "proposed-normalized": normalized_entropy,
            "shannon": shannon,
            "renyi": lambda p: renyi(p, 1.7),
            "tsallis": lambda p: tsallis(p, 0.6),
            "palpal": pal_pal,
        }[kind]
        measure = EntropyMeasure.select(kind, 1.7, 0.6)
        rng = np.random.default_rng(2016)
        for n in (2, 3, 17, 256):
            weights = rng.random(n) * (rng.random(n) < 0.7)
            weights[0] += 0.5
            p = ProbDist.normalize(weights)
            assert apply_measure(measure, p) == direct(p)

    @settings(max_examples=100)
    @given(st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e-310]), st.floats(0.0, 1.0)),
                    min_size=2, max_size=40).filter(any), ORDERS, ORDERS)
    def test_every_measure_is_finite_at_every_accepted_order(self, weights, alpha, q):
        p = ProbDist.normalize(weights)
        for kind in MEASURE_KINDS:
            assert math.isfinite(apply_measure(EntropyMeasure.select(kind, alpha, q), p))

    def test_select_passes_only_the_order_its_kind_takes(self):
        assert EntropyMeasure.select("renyi", 3.0, 0.5) == EntropyMeasure("renyi", alpha=3.0)
        assert EntropyMeasure.select("tsallis", 3.0, 0.5) == EntropyMeasure("tsallis", q=0.5)
        for kind in ("proposed", "proposed-normalized", "shannon", "palpal"):
            assert EntropyMeasure.select(kind, 3.0, 0.5) == EntropyMeasure(kind)
        # An order the kind does not take is dropped unchecked.
        assert EntropyMeasure.select("shannon", math.inf, 1.0) == EntropyMeasure("shannon")
        with pytest.raises(DomainError, match="alpha"):
            EntropyMeasure.select("renyi", 1.0, 0.5)
        with pytest.raises(DomainError, match="unknown measure"):
            EntropyMeasure.select("nonsense", 3.0, 0.5)
