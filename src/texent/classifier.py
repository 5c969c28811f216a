"""Nearest-neighbor and nearest-centroid classification with per-class reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._text import sig15
from .dataset import LabeledFeatureSet, SplitSpec, _split_indices, split
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

#: Most bytes of squared distances held at once, in chunks of query rows.
_MATRIX_BYTES = 64 << 20


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


def train(train_set: LabeledFeatureSet, kind: str = ONE_NN) -> TrainedModel:
    """Build a model from a labeled training set."""
    if kind not in (ONE_NN, NEAREST_CENTROID):
        raise DomainError(f"classifier kind must be {ONE_NN!r} or {NEAREST_CENTROID!r}")
    records = train_set.records
    if not records:
        raise DomainError("training set is empty")
    if kind == ONE_NN:
        labels = tuple(r.label for r in records)
        points = _points(records)
    else:
        labels = train_set.class_labels()
        points = np.array(
            [
                np.mean([r.features for r in group], axis=0)
                for group in train_set.by_class().values()
            ],
            dtype=np.float64,
        )
    points.setflags(write=False)
    return TrainedModel(kind=kind, labels=labels, points=points)


def _points(records) -> np.ndarray:
    return np.array([r.features for r in records], dtype=np.float64)


def _codes(labels: Sequence[str], names: tuple[str, ...]) -> np.ndarray:
    # Index of each label in the ascending ``names``, so codes order as labels do.
    index = {name: i for i, name in enumerate(names)}
    return np.array([index[label] for label in labels], dtype=np.intp)


def _sq_distances(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    # One row per query, each reduced by the same expression, so a distance
    # has the same bits on every path and ties fall alike.
    out = np.empty((len(queries), len(points)))
    for row, q in zip(out, queries):
        row[:] = np.sum((points - q) ** 2, axis=1)
    return out


def _nearest(d2: np.ndarray, codes: np.ndarray) -> np.ndarray:
    # Per row, the smallest code among the columns at the row's least distance.
    ties = d2 == d2.min(axis=1, keepdims=True)
    return np.where(ties, codes, np.iinfo(np.intp).max).min(axis=1)


def _predict(points: np.ndarray, codes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    # _nearest over chunks of query rows, each at most _MATRIX_BYTES.
    rows = max(1, _MATRIX_BYTES // (8 * len(points)))
    return np.concatenate([_nearest(_sq_distances(points, queries[i : i + rows]), codes)
                           for i in range(0, len(queries), rows)])


def classify(model: TrainedModel, features) -> str:
    """Label of the Euclidean-nearest stored point.

    Exact distance ties break to the lexicographically smallest label.
    """
    vec = np.asarray(features, dtype=np.float64)
    if vec.shape != (model.dim,):
        raise DomainError(
            f"feature vector has shape {vec.shape}, model expects ({model.dim},)"
        )
    if np.isnan(vec).any():
        raise DomainError(f"feature vector has a NaN value: {vec.tolist()}")
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
    per_class = {}
    for i in np.unique(truth):
        per_class[names[i]] = float(confusion[i, i]) / int(confusion[i].sum())
    average = sum(per_class.values()) / len(per_class)
    confusion.setflags(write=False)
    return EvalReport(
        labels=names,
        confusion=confusion,
        per_class_accuracy=per_class,
        average_accuracy=average,
    )


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

    1-NN computes the squared distance between every two records once, in
    chunks of query rows of at most 64 MiB, and resolves every split's test
    records in each chunk.  The distances have the bits :func:`classify`
    gives them, so the reports equal those of :func:`two_way` on
    :func:`split`'s folds.  Nearest-centroid trains a model per split and
    direction.
    """
    if kind != ONE_NN:  # two_way's train rejects an unknown kind
        return [two_way(*split(full_set, spec), kind) for spec in specs]
    records = full_set.records
    if not records:
        raise DomainError("training set is empty")
    names = full_set.class_labels()
    codes = _codes([r.label for r in records], names)
    points = _points(records)
    folds = []  # (train, test) record indices, both directions of each split
    for spec in specs:
        a, b = (np.array(f, dtype=np.intp) for f in _split_indices(full_set, spec))
        folds += [(a, b), (b, a)]
    predicted = [np.empty(len(test), dtype=np.intp) for _, test in folds]
    rows = max(1, _MATRIX_BYTES // (8 * len(points)))
    for start in range(0, len(points), rows):
        d2 = _sq_distances(points, points[start : start + rows])
        for (train_idx, test_idx), out in zip(folds, predicted):
            here = (test_idx >= start) & (test_idx < start + rows)
            out[here] = _nearest(d2[np.ix_(test_idx[here] - start, train_idx)],
                                 codes[train_idx])
    reports = [_report(names, codes[test], p) for (_, test), p in zip(folds, predicted)]
    return list(zip(reports[::2], reports[1::2]))


def mean_report(reports: Sequence[EvalReport]) -> EvalReport:
    """Mean accuracies and summed confusions of reports over the same classes."""
    n = len(reports)
    per_class = {label: sum(r.per_class_accuracy[label] for r in reports) / n
                 for label in reports[0].per_class_accuracy}
    return EvalReport(labels=reports[0].labels,
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
    lines = [",".join(["class"] + [f"{name}_{s}" for name in pairs for s in ("v", "cv")])]
    for label in classes:
        accs = (r.per_class_accuracy.get(label) for r in reports)
        lines.append(",".join([label] + ["" if a is None else sig15(a) for a in accs]))
    lines.append(",".join(["average"] + [sig15(r.average_accuracy) for r in reports]))
    return "\n".join(lines) + "\n"


def report_csv(validation: EvalReport, cross: EvalReport) -> str:
    """CSV rows ``class,accuracy_v,accuracy_cv`` plus a final average row."""
    return report_table({"accuracy": (validation, cross)})
