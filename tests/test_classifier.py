"""Unit tests for the nearest-neighbor and nearest-centroid classifiers."""

import numpy as np
import pytest

from texent import (
    DomainError,
    LabeledFeatureSet,
    SplitSpec,
    classifier,
    classify,
    cross_validate,
    evaluate,
    repeated_cross_validate,
    report_csv,
    split,
    train,
)
from texent.classifier import mean_report, report_table, two_way


def _set(rows):
    return LabeledFeatureSet(rows)


class TestTrain:
    def test_one_nn_stores_every_exemplar(self):
        fs = _set([("a", "t0", [0.1]), ("b", "t0", [0.9])])
        model = train(fs, "1nn")
        assert model.labels == ("a", "b")
        assert model.points.tolist() == [[0.1], [0.9]]

    def test_centroid_of_identical_exemplars(self):
        fs = _set([("a", "t0", [0.4, 0.4]), ("a", "t1", [0.4, 0.4])])
        model = train(fs, "centroid")
        assert model.points.tolist() == [[0.4, 0.4]]

    def test_centroid_is_arithmetic_mean(self):
        fs = _set([("a", "t0", [0.2]), ("a", "t1", [0.4]), ("b", "t0", [1.0])])
        model = train(fs, "centroid")
        assert model.labels == ("a", "b")
        assert model.points[0, 0] == pytest.approx(0.3, abs=1e-15)

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            train(_set([]), "1nn")

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            train(_set([("a", "t0", [0.0])]), "svm")


class TestClassify:
    def test_exact_match_wins(self):
        model = train(_set([("a", "t0", [0.1]), ("b", "t0", [0.9])]), "1nn")
        assert classify(model, [0.9]) == "b"

    def test_tie_breaks_lexicographically(self):
        model = train(_set([("b", "t0", [0.25]), ("a", "t0", [0.75])]), "1nn")
        assert classify(model, [0.5]) == "a"

    def test_nearest_point(self):
        model = train(_set([("a", "t0", [0.1]), ("b", "t0", [0.9])]), "1nn")
        assert classify(model, [0.2]) == "a"

    def test_dimension_mismatch(self):
        model = train(_set([("a", "t0", [0.1, 0.2])]), "1nn")
        with pytest.raises(DomainError):
            classify(model, [0.1])

    def test_nan_query_rejected(self):
        model = train(_set([("a", "t0", [0.0]), ("b", "t1", [1.0])]), "1nn")
        with pytest.raises(DomainError, match="NaN"):
            classify(model, [float("nan")])

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf")])
    def test_infinite_query_ties_to_smallest_label(self, bad):
        # Every squared distance is inf, so every point ties.
        model = train(_set([("b", "t0", [0.0]), ("a", "t1", [1.0])]), "1nn")
        assert classify(model, [bad]) == "a"

    def test_invariant_under_positive_affine_rescale(self):
        rng = np.random.default_rng(17)
        exemplars = [(f"c{i % 4}", f"t{i}", [float(rng.uniform(0, 1))]) for i in range(20)]
        queries = rng.uniform(0, 1, size=40)
        model = train(_set(exemplars), "1nn")
        scaled = train(
            _set([(l, s, [3.0 * f[0] + 7.0]) for l, s, f in exemplars]), "1nn"
        )
        for x in queries:
            assert classify(model, [x]) == classify(scaled, [3.0 * x + 7.0])


class TestEvaluate:
    def test_memorization_is_perfect(self):
        fs = _set([(f"c{i % 3}", f"t{i}", [float(i)]) for i in range(12)])
        report = evaluate(train(fs, "1nn"), fs)
        assert report.average_accuracy == 1.0
        assert all(v == 1.0 for v in report.per_class_accuracy.values())

    def test_all_wrong(self):
        model = train(_set([("zz", "t0", [0.0])]), "1nn")
        test = _set([("a", "t0", [0.1]), ("b", "t0", [0.2])])
        report = evaluate(model, test)
        assert report.average_accuracy == 0.0
        assert np.trace(report.confusion) == 0

    def test_average_is_unweighted_class_mean(self):
        # One singleton class classified right, one 3-record class 1/3 right.
        model = train(_set([("a", "t0", [0.0]), ("b", "t0", [1.0])]), "1nn")
        test = _set(
            [
                ("a", "t1", [0.1]),
                ("b", "t1", [0.9]),
                ("b", "t2", [0.2]),
                ("b", "t3", [0.3]),
            ]
        )
        report = evaluate(model, test)
        assert report.per_class_accuracy["a"] == 1.0
        assert report.per_class_accuracy["b"] == pytest.approx(1 / 3)
        assert report.average_accuracy == pytest.approx((1.0 + 1 / 3) / 2)

    def test_confusion_row_sums_match_test_counts(self):
        fs = _set([(f"c{i % 2}", f"t{i}", [float(i % 5)]) for i in range(10)])
        report = evaluate(train(fs, "centroid"), fs)
        for label, group_size in ((lbl, 5) for lbl in ("c0", "c1")):
            i = report.labels.index(label)
            assert report.confusion[i].sum() == group_size

    def test_empty_test_set_rejected(self):
        model = train(_set([("a", "t0", [0.0])]), "1nn")
        with pytest.raises(DomainError):
            evaluate(model, _set([]))


class TestCrossValidate:
    def test_same_seed_identical_reports(self):
        fs = _set([(f"c{i % 3}", f"t{i}", [float(i)]) for i in range(18)])
        a1, b1 = cross_validate(fs, SplitSpec(seed=9), "1nn")
        a2, b2 = cross_validate(fs, SplitSpec(seed=9), "1nn")
        assert a1.per_class_accuracy == a2.per_class_accuracy
        assert b1.per_class_accuracy == b2.per_class_accuracy
        assert np.array_equal(a1.confusion, a2.confusion)

    def test_identical_halves_score_perfectly(self):
        # Every record of a class shares one vector, so each fold holds a
        # copy of every class exemplar and 1-NN cannot miss.
        rows = [(f"c{k}", f"t{i}", [float(k)]) for k in range(3) for i in range(4)]
        fold_a, fold_b = cross_validate(_set(rows), SplitSpec(seed=1), "1nn")
        assert fold_a.average_accuracy == 1.0
        assert fold_b.average_accuracy == 1.0


class TestReportCsv:
    def test_layout(self):
        fs = _set([(f"c{i % 2}", f"t{i}", [float(i)]) for i in range(8)])
        report = evaluate(train(fs, "1nn"), fs)
        text = report_csv(report, report)
        lines = text.strip().split("\n")
        assert lines[0] == "class,accuracy_v,accuracy_cv"
        assert lines[1].startswith("c0,")
        assert lines[-1] == "average,1,1"

    def test_table_leaves_missing_classes_blank(self):
        fs_a = _set([("a", "t0", [0.0]), ("b", "t1", [1.0])])
        fs_b = _set([("a", "t2", [0.0]), ("c", "t3", [2.0])])
        pair = two_way(fs_a, fs_b, "1nn")
        lines = report_table({"m1": pair, "m2": pair}).strip().split("\n")
        assert lines[0] == "class,m1_v,m1_cv,m2_v,m2_cv"
        # Only the report tested on fs_a has a b row; only the one tested on fs_b a c row.
        assert lines[1:] == ["a,1,1,1,1", "b,,0,,0", "c,0,,0,", "average,0.5,0.5,0.5,0.5"]


class TestMeanReport:
    def test_mean_of_one_report_is_that_report(self):
        fs = _set([(f"c{i % 3}", f"t{i}", [float(i % 4)]) for i in range(12)])
        report = evaluate(train(fs, "1nn"), fs)
        mean = mean_report([report])
        assert mean.per_class_accuracy == report.per_class_accuracy
        assert mean.average_accuracy == report.average_accuracy
        assert np.array_equal(mean.confusion, report.confusion)

    def test_two_reports_average(self):
        fs = _set([("a", "t0", [0.0]), ("b", "t1", [1.0]), ("b", "t2", [0.1])])
        perfect = evaluate(train(fs, "1nn"), fs)
        half = evaluate(train(_set(fs.records[:2]), "1nn"), fs)
        mean = mean_report([perfect, half])
        assert mean.per_class_accuracy == {"a": 1.0, "b": 0.75}
        assert mean.average_accuracy == (perfect.average_accuracy + half.average_accuracy) / 2
        assert mean.confusion.sum() == 6


def _planted(seed, classes=5, per_class=14, dim=3):
    """Features on a coarse grid, so distances tie exactly, plus one record
    per class that duplicates a record of the next class."""
    rng = np.random.default_rng(seed)
    labels = [f"c{k}" for k in rng.permutation(classes) for _ in range(per_class)]
    feats = rng.integers(0, 3, size=(len(labels), dim)) * 0.25 + rng.integers(0, 2, size=(1, dim))
    rows = [(label, f"t{i}", f) for i, (label, f) in enumerate(zip(labels, feats))]
    for k in range(classes):
        source = rows[((k + 1) % classes) * per_class]
        rows.append((f"c{k}", f"dup{k}", source[2]))
    return _set(rows)


def _old_confusion(train_set, test_set, kind):
    """Confusion of the per-record loop: nearest points, smallest label on ties."""
    model = train(train_set, kind)
    labels = sorted(set(model.labels) | {r.label for r in test_set})
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for r in test_set:
        d2 = np.sum((model.points - np.array(r.features)) ** 2, axis=1)
        predicted = min(model.labels[i] for i in np.flatnonzero(d2 == d2.min()))
        confusion[labels.index(r.label), labels.index(predicted)] += 1
    return confusion


class TestRepeatedCrossValidate:
    @pytest.mark.parametrize("bound", ["default", 0])
    @pytest.mark.parametrize("n_specs", [1, 5])
    @pytest.mark.parametrize("kind", ["1nn", "centroid"])
    def test_equals_two_way_on_each_split(self, kind, n_specs, bound, monkeypatch):
        if bound == 0:
            monkeypatch.setattr(classifier, "_MATRIX_BYTES", 0)  # one row per chunk
        for seed in range(3):
            fs = _planted(seed)
            specs = [SplitSpec(seed=100 * seed + i, fraction=0.3 + 0.1 * i)
                     for i in range(n_specs)]
            got = repeated_cross_validate(fs, specs, kind)
            assert len(got) == n_specs
            for spec, pair in zip(specs, got):
                folds = split(fs, spec)
                for report, want, (train_set, test_set) in zip(
                        pair, two_way(*folds, kind), (folds, folds[::-1])):
                    assert report.labels == want.labels
                    assert report.confusion.dtype == want.confusion.dtype == np.int64
                    assert np.array_equal(report.confusion, want.confusion)
                    assert np.array_equal(report.confusion,
                                          _old_confusion(train_set, test_set, kind))
                    assert report.per_class_accuracy == want.per_class_accuracy
                    assert report.average_accuracy == want.average_accuracy

    def test_planted_ties_are_exercised(self):
        fs = _planted(0)
        train_set, test_set = split(fs, SplitSpec(seed=0))
        points = np.array([r.features for r in train_set])
        tied = 0
        for r in test_set:
            d2 = np.sum((points - np.array(r.features)) ** 2, axis=1)
            tied += len({train_set.records[i].label for i in np.flatnonzero(d2 == d2.min())}) > 1
        assert tied >= 5

    def test_cross_validate_is_the_one_spec_case(self):
        fs = _planted(4)
        single = cross_validate(fs, SplitSpec(seed=7), "1nn")
        (pair,) = repeated_cross_validate(fs, [SplitSpec(seed=7)], "1nn")
        for a, b in zip(single, pair):
            assert np.array_equal(a.confusion, b.confusion)
            assert a.per_class_accuracy == b.per_class_accuracy

    @pytest.mark.parametrize("bound, n, chunks", [
        (64 << 20, 2896, 1), (64 << 20, 2897, 2), (8 * 400, 40, 4)])
    def test_distances_held_at_once_are_bounded(self, bound, n, chunks, monkeypatch):
        sizes = []
        original = classifier._sq_distances

        def spy(points, queries):
            sizes.append(len(points) * len(queries))
            return original(points, queries)

        monkeypatch.setattr(classifier, "_sq_distances", spy)
        monkeypatch.setattr(classifier, "_MATRIX_BYTES", bound)
        fs = _set((f"c{i % 2}", f"t{i}", [float(i % 7)]) for i in range(n))
        repeated_cross_validate(fs, [SplitSpec(seed=1), SplitSpec(seed=2)], "1nn")
        assert max(sizes) * 8 <= bound
        assert len(sizes) == chunks
        assert sum(sizes) == n * n  # every distance once, whatever the bound

    def test_rejects_unknown_kind_and_empty_set(self):
        with pytest.raises(DomainError, match="classifier kind"):
            repeated_cross_validate(_planted(0), [SplitSpec(seed=1)], "svm")
        with pytest.raises(DomainError, match="training set is empty"):
            repeated_cross_validate(_set([]), [SplitSpec(seed=1)], "1nn")
