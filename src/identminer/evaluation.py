"""Classifier evaluation: accuracy, macro-F1, per-class accuracy, confusion
matrices in test-set percentages, under imbalanced or balanced settings.

Every metric is read from one 4x4 table of (true label, prediction) counts
(count_table), so each holds the integer numerators and denominators of the
textbook formula."""
from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from .labels import CLASS_ORDER, ClassLabel


class EvalReport(NamedTuple):
    accuracy: float
    macro_f1: float
    per_class_accuracy: list[float]  # percent, fixed class order
    confusion: list[list[float]]  # percent of all test examples; rows = true
    n: int
    setting: str

    def to_dict(self) -> dict:
        return {**self._asdict(),
                "classes": [label.value for label in CLASS_ORDER]}


def count_table(labels: Sequence[ClassLabel],
                predictions: Sequence[ClassLabel]) -> list[list[int]]:
    """table[t][p]: the examples of true class t predicted as p, both in
    CLASS_ORDER; lists of different lengths or no examples are a
    ValueError."""
    if len(labels) != len(predictions):
        raise ValueError("labels and predictions differ in length")
    if not labels:
        raise ValueError("empty evaluation set")
    index = {label: i for i, label in enumerate(CLASS_ORDER)}
    table = [[0] * len(CLASS_ORDER) for _ in CLASS_ORDER]
    for t, p in zip(labels, predictions):
        table[index[t]][index[p]] += 1
    return table


def _metrics(table: list[list[int]]) -> dict:
    """The EvalReport metrics of a count table. macro_f1 is the unweighted
    mean of the per-class F1 scores, 0 for a class with a zero
    precision+recall denominator; per_class_accuracy is the percent correct
    within each true class, 0 for a class absent from the labels."""
    n = sum(map(sum, table))
    classes = range(len(table))
    f1_sum = 0.0
    for i in classes:
        tp, row, column = table[i][i], sum(table[i]), sum(r[i] for r in table)
        precision = tp / column if column else 0.0
        recall = tp / row if row else 0.0
        f1_sum += (2 * precision * recall / (precision + recall)
                   if precision + recall else 0.0)
    return {
        "accuracy": sum(table[i][i] for i in classes) / n,
        "macro_f1": f1_sum / len(table),
        "per_class_accuracy": [table[i][i] * 100.0 / sum(table[i])
                               if sum(table[i]) else 0.0 for i in classes],
        "confusion": [[cell * 100.0 / n for cell in row] for row in table],
    }


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
             setting: str, seed: int) -> EvalReport:
    """Predict every (features, label) pair in one predictor.predict_batch
    call and read all metrics from one count table. The balanced setting
    first subsamples equal class counts with the given seed."""
    pairs = list(test_set)
    if setting == "balanced":
        pairs = balance_subsample(pairs, seed)
    if not pairs:
        raise ValueError("empty evaluation set")
    labels = [label for _, label in pairs]
    features = [item for item, _ in pairs]
    predictions = predictor.predict_batch(features)
    return EvalReport(**_metrics(count_table(labels, predictions)),
                      n=len(pairs), setting=setting)


def format_report_table(name: str, report: EvalReport) -> str:
    """Aligned text table of one model's report under a header row: F1 to 3
    decimals and accuracy percent to 1 decimal, like the classifier
    comparison tables."""
    width = max(len(name), len("model"))
    cells = "  ".join(f"{value:>6.1f}" for value in report.per_class_accuracy)
    return (f"{'model':<{width}}  {'F1':>6}  {'Acc%':>6}  "
            f"{'W':>6}  {'B':>6}  {'HL':>6}  {'A':>6}\n"
            f"{name:<{width}}  {report.macro_f1:>6.3f}  "
            f"{report.accuracy * 100:>6.1f}  {cells}")
