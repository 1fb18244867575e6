"""Classifier evaluation: accuracy, macro-F1, per-class accuracy, confusion
matrices in test-set percentages, under imbalanced or balanced settings."""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .filters import CLASS_ORDER, ClassLabel

SETTINGS = ("imbalanced", "balanced")


@dataclass
class EvalReport:
    accuracy: float
    macro_f1: float
    per_class_accuracy: list[float]  # percent, fixed class order
    confusion: list[list[float]]  # percent of all test examples; rows = true
    n: int
    setting: str

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "per_class_accuracy": self.per_class_accuracy,
            "confusion": self.confusion,
            "classes": [label.value for label in CLASS_ORDER],
            "n": self.n,
            "setting": self.setting,
        }


def _check_lengths(labels, predictions):
    if len(labels) != len(predictions):
        raise ValueError("labels and predictions differ in length")
    if not labels:
        raise ValueError("empty evaluation set")


def accuracy(labels: Sequence[ClassLabel], predictions: Sequence[ClassLabel]) -> float:
    _check_lengths(labels, predictions)
    correct = sum(1 for t, p in zip(labels, predictions) if t == p)
    return correct / len(labels)


def macro_f1(labels: Sequence[ClassLabel], predictions: Sequence[ClassLabel]) -> float:
    """Unweighted mean of the four per-class F1 scores. A class with zero
    precision+recall denominator contributes F1 = 0."""
    _check_lengths(labels, predictions)
    total = 0.0
    for label in CLASS_ORDER:
        tp = sum(1 for t, p in zip(labels, predictions) if t == label and p == label)
        fp = sum(1 for t, p in zip(labels, predictions) if t != label and p == label)
        fn = sum(1 for t, p in zip(labels, predictions) if t == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        total += f1
    return total / len(CLASS_ORDER)


def confusion_matrix(labels: Sequence[ClassLabel],
                     predictions: Sequence[ClassLabel]) -> list[list[float]]:
    """4x4 matrix of test-set percentages; rows are true labels, columns
    predictions; all entries sum to 100."""
    _check_lengths(labels, predictions)
    n = len(labels)
    matrix = [[0.0] * len(CLASS_ORDER) for _ in CLASS_ORDER]
    row_of = {label: i for i, label in enumerate(CLASS_ORDER)}
    for t, p in zip(labels, predictions):
        matrix[row_of[t]][row_of[p]] += 1.0
    return [[cell * 100.0 / n for cell in row] for row in matrix]


def per_class_accuracy(labels: Sequence[ClassLabel],
                       predictions: Sequence[ClassLabel]) -> list[float]:
    """Percent correct within each true class; classes absent from the labels
    report 0."""
    _check_lengths(labels, predictions)
    out = []
    for label in CLASS_ORDER:
        total = sum(1 for t in labels if t == label)
        if total == 0:
            out.append(0.0)
            continue
        correct = sum(1 for t, p in zip(labels, predictions) if t == label and p == label)
        out.append(correct * 100.0 / total)
    return out


def balance_subsample(pairs: Sequence[tuple[object, ClassLabel]],
                      seed: int) -> list[tuple[object, ClassLabel]]:
    """m = min class count among classes present; return m seeded-random
    (features, label) pairs per class, concatenated in fixed class order."""
    groups: dict[ClassLabel, list] = {}
    for pair in pairs:
        groups.setdefault(pair[1], []).append(pair)
    if not groups:
        return []
    m = min(len(members) for members in groups.values())
    rng = random.Random(seed)
    out = []
    for label in CLASS_ORDER:
        if label in groups:
            out.extend(rng.sample(groups[label], m))
    return out


def evaluate(predictor, test_set: Sequence[tuple[object, ClassLabel]],
             setting: str = "imbalanced", seed: int = 0) -> EvalReport:
    """Predict every (features, label) pair in one predictor.predict_batch
    call and assemble all metrics. The balanced setting first subsamples
    equal class counts with the given seed."""
    pairs = list(test_set)
    if setting == "balanced":
        pairs = balance_subsample(pairs, seed)
    if not pairs:
        raise ValueError("empty evaluation set")
    labels = [label for _, label in pairs]
    features = [item for item, _ in pairs]
    predictions = predictor.predict_batch(features)
    return EvalReport(
        accuracy=accuracy(labels, predictions),
        macro_f1=macro_f1(labels, predictions),
        per_class_accuracy=per_class_accuracy(labels, predictions),
        confusion=confusion_matrix(labels, predictions),
        n=len(pairs),
        setting=setting,
    )


def format_report_table(rows: Sequence[tuple[str, EvalReport]]) -> str:
    """Aligned text table: one row per (name, report), F1 to 3 decimals and
    accuracy percent to 1 decimal, like the classifier comparison tables."""
    name_width = max([len(name) for name, _ in rows] + [len("model")])
    lines = [f"{'model':<{name_width}}  {'F1':>6}  {'Acc%':>6}  "
             f"{'W':>6}  {'B':>6}  {'HL':>6}  {'A':>6}"]
    for name, report in rows:
        cells = "  ".join(f"{value:>6.1f}" for value in report.per_class_accuracy)
        lines.append(f"{name:<{name_width}}  {report.macro_f1:>6.3f}  "
                     f"{report.accuracy * 100:>6.1f}  {cells}")
    return "\n".join(lines)
