"""Nearest-neighbor and nearest-centroid classification with per-class reports."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._text import sig15
from .dataset import LabeledFeatureSet, SplitSpec, _class_members, _split_indices
from .errors import DomainError

__all__ = [
    "ONE_NN",
    "NEAREST_CENTROID",
    "TrainedModel",
    "EvalReport",
    "train",
    "classify",
    "evaluate",
    "two_way",
    "cross_validate",
    "repeated_cross_validate",
    "mean_report",
    "report_table",
    "report_csv",
]

ONE_NN = "1nn"
NEAREST_CENTROID = "centroid"

#: Most bytes of the (query rows, points, features) difference array held at once.
_CHUNK_BYTES = 1 << 20

#: Nearest records ranked per record for cross-validation.
_CANDIDATES = 16


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Stored reference points with one label each.

    1-NN keeps every training exemplar; nearest-centroid keeps one
    per-class mean vector.
    """

    kind: str
    labels: tuple[str, ...]
    points: np.ndarray

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _check_training(kind: str, records) -> None:
    if kind not in (ONE_NN, NEAREST_CENTROID):
        raise DomainError(f"classifier kind must be {ONE_NN!r} or {NEAREST_CENTROID!r}")
    if not records:
        raise DomainError("training set is empty")


def train(train_set: LabeledFeatureSet, kind: str = ONE_NN) -> TrainedModel:
    """Build a model from a labeled training set."""
    records = train_set.records
    _check_training(kind, records)
    labels, points = tuple(r.label for r in records), _points(records)
    if kind == NEAREST_CENTROID:
        names = train_set.class_labels()
        labels, points = names, _class_means(points, _codes(labels, names), len(names))
    points.setflags(write=False)
    return TrainedModel(kind=kind, labels=labels, points=points)


def _points(records) -> np.ndarray:
    return np.array([r.features for r in records], dtype=np.float64)


def _codes(labels: Sequence[str], names: tuple[str, ...]) -> np.ndarray:
    # Index of each label in the ascending ``names``, so codes order as labels do.
    index = {name: i for i, name in enumerate(names)}
    return np.array([index[label] for label in labels], dtype=np.intp)


def _class_means(points: np.ndarray, codes: np.ndarray, n: int) -> np.ndarray:
    # Mean point of each code 0..n-1, over its rows in input order.
    return np.array([points[codes == c].mean(axis=0) for c in range(n)])


def _sq_distances(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    # One broadcast; each distance is reduced over the features alone, so it
    # has the same bits for any set of rows and points, and ties fall alike.
    return np.sum((points - queries[:, None]) ** 2, axis=2)


def _nearest(d2: np.ndarray, codes: np.ndarray) -> np.ndarray:
    # Per row, the smallest code among the columns at the row's least distance.
    ties = d2 == d2.min(axis=1, keepdims=True)
    return np.where(ties, codes, np.iinfo(np.intp).max).min(axis=1)


def _distance_chunks(points: np.ndarray, queries: np.ndarray):
    # Squared distances per chunk of query rows, each from at most _CHUNK_BYTES
    # of differences (a featureless set counts as one feature).
    rows = max(1, _CHUNK_BYTES // (8 * max(1, points.size)))
    for start in range(0, len(queries), rows):
        yield _sq_distances(points, queries[start : start + rows])


def _ranked(d2: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Per row, the columns of its _CANDIDATES least distances ordered by
    # (distance, code), and those distances.  Every other column lies at or
    # beyond the row's last candidate distance.
    k = min(_CANDIDATES, d2.shape[1])
    cols = np.argpartition(d2, k - 1, axis=1)[:, :k]
    dist = np.take_along_axis(d2, cols, axis=1)
    order = np.lexsort((codes[cols], dist))
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(dist, order, axis=1)


def _predict(points: np.ndarray, codes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    return np.concatenate([_nearest(d2, codes) for d2 in _distance_chunks(points, queries)])


def classify(model: TrainedModel, features) -> str:
    """Label of the Euclidean-nearest stored point.

    Exact distance ties break to the lexicographically smallest label.
    """
    try:
        vec = np.asarray(features, dtype=np.float64)
    except (TypeError, ValueError):  # a non-numeric or ragged vector
        raise DomainError(f"feature vector must be a sequence of reals, got {features!r}") from None
    if vec.shape != (model.dim,):
        raise DomainError(
            f"feature vector has shape {vec.shape}, model expects ({model.dim},)"
        )
    if not np.isfinite(vec).all():
        raise DomainError(f"feature vector has a NaN or infinite value: {vec.tolist()}")
    names = tuple(sorted(set(model.labels)))
    return names[_predict(model.points, _codes(model.labels, names), vec[np.newaxis])[0]]


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Per-class accuracies, their unweighted mean, and a confusion matrix.

    ``confusion[i, j]`` counts test records of class ``labels[i]`` predicted
    as ``labels[j]``; row sums equal the per-class test counts.
    """

    labels: tuple[str, ...]
    confusion: np.ndarray
    per_class_accuracy: dict[str, float]
    average_accuracy: float


def _report(names: tuple[str, ...], truth: np.ndarray, predicted: np.ndarray) -> EvalReport:
    # Tabulate true against predicted codes; accuracies cover the true classes.
    n = len(names)
    confusion = np.bincount(truth * n + predicted, minlength=n * n).reshape(n, n)
    per_class = {names[i]: float(confusion[i, i]) / int(confusion[i].sum())
                 for i in np.unique(truth)}
    confusion.setflags(write=False)
    return EvalReport(names, confusion, per_class, sum(per_class.values()) / len(per_class))


def evaluate(model: TrainedModel, test_set: LabeledFeatureSet) -> EvalReport:
    """Classify every test record and tabulate the outcome."""
    records = test_set.records
    if not records:
        raise DomainError("test set is empty")
    queries = _points(records)
    if queries.shape[1:] != (model.dim,):
        raise DomainError(
            f"feature vector has shape {queries.shape[1:]}, model expects ({model.dim},)"
        )
    names = tuple(sorted(set(model.labels) | {r.label for r in records}))
    predicted = _predict(model.points, _codes(model.labels, names), queries)
    return _report(names, _codes([r.label for r in records], names), predicted)


def two_way(
    set_a: LabeledFeatureSet, set_b: LabeledFeatureSet, kind: str = ONE_NN
) -> tuple[EvalReport, EvalReport]:
    """Train on ``set_a`` and test on ``set_b``, then the reverse."""
    return evaluate(train(set_a, kind), set_b), evaluate(train(set_b, kind), set_a)


def cross_validate(
    full_set: LabeledFeatureSet, spec: SplitSpec, kind: str = ONE_NN
) -> tuple[EvalReport, EvalReport]:
    """Evaluate both fold directions of one seeded split.

    The first report trains on the split's train fold and tests on its test
    fold; the second swaps them.
    """
    return repeated_cross_validate(full_set, [spec], kind)[0]


def repeated_cross_validate(
    full_set: LabeledFeatureSet, specs: Sequence[SplitSpec], kind: str = ONE_NN
) -> list[tuple[EvalReport, EvalReport]]:
    """:func:`cross_validate` for each split spec, in order.

    The records are grouped by class, and the folds, points and label codes
    built, once per call.  1-NN computes the squared distance between every
    two records once, in chunks of query rows of at most 1 MiB of feature
    differences, and ranks each record's 16 nearest records by (distance,
    label).  Each fold is then resolved from that ranking: a test record
    takes the label of its first ranked record in the train fold; when there
    is none, or that record lies at the last ranked distance, where an
    unranked record may tie with it, the record is classified against the
    whole train fold.  Nearest-centroid predicts each fold against its train
    fold's class means.  The distances have the bits :func:`classify` gives
    them, so the reports equal those of :func:`two_way` on :func:`split`'s
    folds.
    """
    records = full_set.records
    _check_training(kind, records)
    names = full_set.class_labels()
    codes = _codes([r.label for r in records], names)
    points = _points(records)
    members = _class_members(full_set)
    folds = []  # (train, test) record indices, both directions of each split
    for spec in specs:
        a, b = (np.array(f, dtype=np.intp) for f in _split_indices(members, spec))
        folds += [(a, b), (b, a)]
    if kind == NEAREST_CENTROID:  # every class is in both folds of a split
        predicted = [_predict(_class_means(points[a], codes[a], len(names)),
                              np.arange(len(names)), points[b]) for a, b in folds]
    else:
        ranked = [_ranked(d2, codes) for d2 in _distance_chunks(points, points)]
        cols, dist = (np.concatenate(parts) for parts in zip(*ranked))
        predicted = []
        for train_idx, test_idx in folds:
            in_train = np.zeros(len(records), dtype=bool)
            in_train[train_idx] = True
            hit = in_train[cols[test_idx]]
            first = hit.argmax(axis=1)
            got = codes[cols[test_idx, first]]
            unsure = ~hit.any(axis=1) | (dist[test_idx, first] == dist[test_idx, -1])
            if unsure.any():
                got[unsure] = _predict(points[train_idx], codes[train_idx],
                                       points[test_idx[unsure]])
            predicted.append(got)
    reports = [_report(names, codes[test], p) for (_, test), p in zip(folds, predicted)]
    return list(zip(reports[::2], reports[1::2]))


def mean_report(reports: Sequence[EvalReport]) -> EvalReport:
    """Mean accuracies and summed confusions of reports over the same classes.

    Reports whose ``labels`` or tested classes differ raise :class:`DomainError`.
    """
    if not reports:
        raise DomainError("no reports to average")
    first = reports[0]
    tested = tuple(first.per_class_accuracy)
    for r in reports[1:]:
        for what, ours, theirs in (("cover", first.labels, r.labels),
                                   ("test", tested, tuple(r.per_class_accuracy))):
            if ours != theirs:
                raise DomainError(f"reports must {what} the same classes, "
                                  f"got {list(ours)} and {list(theirs)}")
    n = len(reports)
    per_class = {label: sum(r.per_class_accuracy[label] for r in reports) / n
                 for label in first.per_class_accuracy}
    return EvalReport(labels=first.labels,
                      confusion=np.sum([r.confusion for r in reports], axis=0),
                      per_class_accuracy=per_class,
                      average_accuracy=sum(r.average_accuracy for r in reports) / n)


def report_table(pairs: dict[str, tuple[EvalReport, EvalReport]]) -> str:
    """CSV columns ``class,<name>_v,<name>_cv,...`` for each named report pair.

    Rows cover every class of any report, ascending, then an average row; a
    report without the class leaves its field empty.
    """
    reports = [r for pair in pairs.values() for r in pair]
    classes = sorted(set().union(*(r.per_class_accuracy for r in reports)))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["class"] + [f"{name}_{s}" for name in pairs for s in ("v", "cv")])
    for label in classes:
        accs = (r.per_class_accuracy.get(label) for r in reports)
        writer.writerow([label] + ["" if a is None else sig15(a) for a in accs])
    writer.writerow(["average"] + [sig15(r.average_accuracy) for r in reports])
    return out.getvalue()


def report_csv(validation: EvalReport, cross: EvalReport) -> str:
    """CSV rows ``class,accuracy_v,accuracy_cv`` plus a final average row."""
    return report_table({"accuracy": (validation, cross)})
