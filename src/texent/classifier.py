"""Nearest-neighbor and nearest-centroid classification with per-class reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._text import sig15
from .dataset import LabeledFeatureSet, SplitSpec, split
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
    "mean_report",
    "report_table",
    "report_csv",
]

ONE_NN = "1nn"
NEAREST_CENTROID = "centroid"


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
        points = np.array([r.features for r in records], dtype=np.float64)
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


def classify(model: TrainedModel, features) -> str:
    """Label of the Euclidean-nearest stored point.

    Exact distance ties break to the lexicographically smallest label.
    """
    vec = np.asarray(features, dtype=np.float64)
    if vec.shape != (model.dim,):
        raise DomainError(
            f"feature vector has shape {vec.shape}, model expects ({model.dim},)"
        )
    d2 = np.sum((model.points - vec) ** 2, axis=1)
    best = d2.min()
    return min(model.labels[i] for i in np.flatnonzero(d2 == best))


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


def evaluate(model: TrainedModel, test_set: LabeledFeatureSet) -> EvalReport:
    """Classify every test record and tabulate the outcome."""
    records = test_set.records
    if not records:
        raise DomainError("test set is empty")
    labels = tuple(sorted(set(model.labels) | {r.label for r in records}))
    index = {label: i for i, label in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for r in records:
        predicted = classify(model, r.features)
        confusion[index[r.label], index[predicted]] += 1
    per_class = {}
    for label in test_set.class_labels():
        i = index[label]
        row_total = int(confusion[i].sum())
        per_class[label] = float(confusion[i, i]) / row_total
    average = sum(per_class.values()) / len(per_class)
    confusion.setflags(write=False)
    return EvalReport(
        labels=labels,
        confusion=confusion,
        per_class_accuracy=per_class,
        average_accuracy=average,
    )


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
    return two_way(*split(full_set, spec), kind)


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
