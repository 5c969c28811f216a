"""Unit tests for the entropy measures.

Expected decimals were frozen from an independent high-precision evaluation
(mpmath at 30 digits) of each closed-form expression; conditional entropies
are additionally checked against an explicit per-cell loop written here.
"""

import math

import numpy as np
import pytest

from texent import (
    DegenerateNormalizationError,
    DomainError,
    EntropyMeasure,
    H_MIN,
    MEASURE_KINDS,
    JointDist,
    ProbDist,
    apply_measure,
    conditional_entropy_x_given_y,
    conditional_entropy_y_given_x,
    entropy,
    entropy_bounds,
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
