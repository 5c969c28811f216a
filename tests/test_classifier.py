"""Unit tests for the nearest-neighbor and nearest-centroid classifiers."""

import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    @pytest.mark.parametrize("kind", ["1nn", "centroid"])
    @pytest.mark.parametrize("bad", [float("inf"), -float("inf")])
    def test_infinite_query_rejected(self, kind, bad):
        # Every squared distance would be inf, so every point would tie.
        model = train(_set([("b", "t0", [0.0, 0.0]), ("a", "t1", [1.0, 1.0])]), kind)
        with pytest.raises(DomainError, match="infinite"):
            classify(model, [bad, 0.0])

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

    @pytest.mark.parametrize("kind", ["1nn", "centroid"])
    def test_feature_length_mismatch(self, kind):
        model = train(_set([("a", "t0", [0.0, 1.0])]), kind)
        with pytest.raises(DomainError, match=r"shape \(3,\), model expects \(2,\)"):
            evaluate(model, _set([("a", "t1", [0.0, 1.0, 2.0])]))


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

    def test_labels_are_csv_quoted(self):
        fs = _set([("a,b", "t0", [0.0]), ('say "c"', "t1", [1.0])])
        pair = two_way(fs, fs, "1nn")
        rows = list(csv.reader(io.StringIO(report_table({"m1": pair, "m2": pair}))))
        assert [len(row) for row in rows] == [5] * 4
        assert [row[0] for row in rows] == ["class", "a,b", 'say "c"', "average"]


def _report_over(other):
    fs = _set([("a", "t0", [0.0]), (other, "t1", [1.0])])
    return evaluate(train(fs, "1nn"), fs)


@pytest.mark.parametrize("call, message", [
    (lambda m: classify(m, ["x"]), r"^feature vector must be a sequence of reals, got \['x'\]$"),
    (lambda m: classify(m, [[1, 2], [3]]), "^feature vector must be a sequence of reals, got "),
    (lambda m: LabeledFeatureSet([("a", "t", ["x"])]),
     r"^tile a/t needs a sequence of real feature values, got \['x'\]$"),
    (lambda m: LabeledFeatureSet([("a", "t", 1.0)]),
     "^tile a/t needs a sequence of real feature values, got 1.0$"),
    (lambda m: mean_report([]), "^no reports to average$"),
    (lambda m: mean_report([_report_over("b"), _report_over("c")]),
     r"^reports must cover the same classes, got \['a', 'b'\] and \['a', 'c'\]$"),
], ids=["classify-str", "classify-ragged", "set-str", "set-scalar", "mean-empty",
        "mean-other-classes"])
def test_non_numeric_features_rejected(call, message):
    model = train(_set([("a", "t0", [0.0]), ("b", "t1", [1.0])]), "1nn")
    with pytest.raises(DomainError, match=message):
        call(model)


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


def _row_sq_distances(points, queries):
    """Squared distances the per-query-row way, one reduction per row."""
    return np.array([np.sum((points - q) ** 2, axis=1) for q in queries])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 129), n=st.integers(1, 40), rows=st.integers(1, 40))
def test_sq_distances_have_the_bits_of_the_per_row_form(data, dim, n, rows):
    # Any chunk of query rows against any subset of points, at scales that
    # spread the features over twelve decades.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-6, 6, size=dim)
    points, queries = rng.normal(size=(n, dim)) * scale, rng.normal(size=(rows, dim)) * scale
    subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    want = _row_sq_distances(points, queries)[:, subset]
    chunk = data.draw(st.integers(0, 8 * rows * len(subset) * dim))
    with mock.patch.object(classifier, "_CHUNK_BYTES", chunk):
        got = np.concatenate(list(classifier._distance_chunks(points[subset], queries)))
    assert got.tobytes() == want.tobytes()
    assert classifier._sq_distances(points[subset], queries).tobytes() == want.tobytes()


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
            monkeypatch.setattr(classifier, "_CHUNK_BYTES", 0)  # one row per chunk
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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), classes=st.integers(2, 4), per_class=st.integers(2, 14),
           dim=st.integers(1, 3), decimals=st.sampled_from([0, 1, None]),
           fraction=st.floats(0.1, 0.9), candidates=st.sampled_from([16, 1]),
           chunk_bytes=st.sampled_from([1 << 20, 0]))
    def test_ranked_predictions_equal_per_fold_nearest(self, data, classes, per_class, dim,
                                                       decimals, fraction, candidates,
                                                       chunk_bytes):
        # n runs from 4 to 56 records, on both sides of the 16 ranked per record;
        # rounded features tie often, and one candidate forces the fallback.
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(classes * per_class, dim)) * 2
        if decimals is not None:
            feats = feats.round(decimals)
        fs = _set((f"c{i % classes}", f"t{i}", f) for i, f in enumerate(feats))
        specs = [SplitSpec(seed=seed + k, fraction=fraction) for k in range(3)]
        predicted, report = [], classifier._report

        def spy(names, truth, p):
            predicted.append(p)
            return report(names, truth, p)

        with mock.patch.multiple(classifier, _report=spy, _CANDIDATES=candidates,
                                 _CHUNK_BYTES=chunk_bytes):
            repeated_cross_validate(fs, specs, "1nn")
        names = fs.class_labels()
        want = []
        for spec in specs:
            folds = split(fs, spec)
            for train_set, test_set in (folds, folds[::-1]):
                points = np.array([r.features for r in train_set])
                codes = np.array([names.index(r.label) for r in train_set])
                queries = np.array([r.features for r in test_set])
                want.append(classifier._nearest(_row_sq_distances(points, queries), codes))
        assert len(predicted) == len(want)
        for got, ref in zip(predicted, want):
            assert np.array_equal(got, ref)

    def test_fallback_resolves_ties_beyond_the_ranked_records(self):
        # Every record at one point: each first candidate lies at the last
        # ranked distance, so every test record falls back, and the smallest
        # label wins although most tied records are unranked.
        n = 3 * classifier._CANDIDATES
        fs = _set((f"c{i % 3}", f"t{i}", [1.0, 2.0]) for i in range(n))
        calls = []
        nearest = classifier._nearest

        def spy(d2, codes):
            calls.append(len(d2))
            return nearest(d2, codes)

        with mock.patch.object(classifier, "_nearest", spy):
            (pair,) = repeated_cross_validate(fs, [SplitSpec(seed=3)], "1nn")
        assert sum(calls) == n
        for r in pair:
            assert r.confusion[:, 1:].sum() == 0

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

    @pytest.mark.parametrize("bound, n, dim, chunks", [
        (1 << 20, 362, 1, 1), (1 << 20, 363, 1, 2), (8 * 400, 40, 1, 4),
        (8 * 40 * 3 * 5, 40, 3, 8), (0, 40, 2, 40)])
    def test_distances_held_at_once_are_bounded(self, bound, n, dim, chunks, monkeypatch):
        calls = []  # (points, query rows) of each distance chunk
        original = classifier._sq_distances

        def spy(points, queries):
            calls.append((len(points), len(queries)))
            assert 8 * len(queries) * points.size <= bound or len(queries) == 1
            return original(points, queries)

        monkeypatch.setattr(classifier, "_sq_distances", spy)
        monkeypatch.setattr(classifier, "_CHUNK_BYTES", bound)
        fs = _set((f"c{i % 2}", f"t{i}", [float(i % 7)] * dim) for i in range(n))
        specs = [SplitSpec(seed=1), SplitSpec(seed=2)]
        repeated_cross_validate(fs, specs, "1nn")
        ranking = [rows for points, rows in calls if points == n]
        assert len(ranking) == chunks
        assert sum(ranking) == n  # every distance once, whatever the bound
        # Seven distinct points tie often at the last ranked distance, so some
        # test rows fall back, each against its own train fold only.
        train_sizes = {len(fold.records) for spec in specs for fold in split(fs, spec)}
        fallback = [(points, rows) for points, rows in calls if points < n]
        assert fallback and {points for points, _ in fallback} <= train_sizes
        assert sum(rows for _, rows in fallback) <= n * len(specs)

    def test_peak_memory_on_768_records_is_bounded(self):
        # classify-coarse's shape: 8 classes of 96 records, 8 features, 40 splits.
        # About 1.1 MiB with 256 KiB chunks squared in place (2.1 MiB with 1 MiB
        # chunks squared into a second array).
        rng = np.random.default_rng(0)
        fs = _set((f"c{i % 8}", f"t{i}", f) for i, f in enumerate(rng.normal(size=(768, 8))))
        specs = [SplitSpec(seed=s) for s in range(40)]
        tracemalloc.start()
        try:
            repeated_cross_validate(fs, specs, "1nn")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 19  # 1.5 MiB

    def test_rejects_unknown_kind_and_empty_set(self):
        with pytest.raises(DomainError, match="classifier kind"):
            repeated_cross_validate(_planted(0), [SplitSpec(seed=1)], "svm")
        with pytest.raises(DomainError, match="training set is empty"):
            repeated_cross_validate(_set([]), [SplitSpec(seed=1)], "1nn")

    @pytest.mark.parametrize("kind", ["1nn", "centroid"])
    def test_records_grouped_once_and_folds_equal_split_for_40_seeds(self, kind, monkeypatch):
        fs = _planted(4, classes=3, per_class=9)
        specs = [SplitSpec(seed=7 * i + 1, fraction=0.2 + 0.015 * i) for i in range(40)]
        grouped, folds = [], []
        group, split_indices = classifier._class_members, classifier._split_indices

        def counted_group(feature_set):
            grouped.append(feature_set)
            return group(feature_set)

        def recorded_split(members, spec):
            folds.append(split_indices(members, spec))
            return folds[-1]

        monkeypatch.setattr(classifier, "_class_members", counted_group)
        monkeypatch.setattr(classifier, "_split_indices", recorded_split)
        repeated_cross_validate(fs, specs, kind)
        assert grouped == [fs]
        assert len(folds) == len(specs)
        for spec, indices in zip(specs, folds):
            for fold, want in zip(indices, split(fs, spec)):
                assert tuple(fs.records[i] for i in fold) == want.records
