import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from identminer.evaluation import (EvalReport, balance_subsample, count_table,
                                   evaluate, format_report_table)
from identminer.filters import CLASS_ORDER
from identminer.models.baselines import MajorityBaseline, RandomBaseline

from helpers import Echo, default, echo_report, skewed_labels

W, B, HL, A = CLASS_ORDER
# the CLI's default setting and root seed
DEFAULTS = (default("setting"), default("seed"))


def test_accuracy_hand_case():
    labels = [W, W, B, HL]
    preds = [W, B, B, A]
    assert echo_report(labels, preds).accuracy == 0.5


def test_accuracy_rejects_bad_input():
    with pytest.raises(ValueError):
        count_table([W], [W, B])
    with pytest.raises(ValueError):
        count_table([], [])


def test_macro_f1_hand_case():
    # W: tp=1 fp=1 fn=0 -> p=.5 r=1 f1=2/3; B: tp=1 fp=0 fn=1 -> f1=2/3;
    # HL and A unseen -> 0
    labels = [W, B, B, HL]
    preds = [W, B, W, A]
    expected = (2 / 3 + 2 / 3 + 0.0 + 0.0) / 4
    assert echo_report(labels, preds).macro_f1 == pytest.approx(expected,
                                                                abs=1e-12)


def test_macro_f1_perfect_is_one():
    labels = [W, B, HL, A] * 3
    assert echo_report(labels, labels).macro_f1 == 1.0


def test_majority_on_balanced_set_gives_exact_quarter_and_tenth():
    # all-W prediction on a balanced set: accuracy 1/4 and macro-F1
    # (2*.25/1.25)/4, both exactly representable
    labels = [label for label in CLASS_ORDER for _ in range(36)]
    report = echo_report(labels, [W] * len(labels))
    assert report.accuracy == 0.25
    assert report.macro_f1 == 0.1


def test_majority_on_skewed_set():
    labels = skewed_labels()
    report = echo_report(labels, [W] * len(labels))
    assert report.accuracy == pytest.approx(0.808, abs=1e-12)
    assert report.macro_f1 == pytest.approx(0.22345132743362833, abs=1e-15)


def test_confusion_matrix_percentages():
    labels = [W, W, B, HL]
    preds = [W, B, B, A]
    matrix = echo_report(labels, preds).confusion
    assert matrix[0][0] == 25.0  # W -> W
    assert matrix[0][1] == 25.0  # W -> B
    assert matrix[1][1] == 25.0  # B -> B
    assert matrix[2][3] == 25.0  # HL -> A
    assert sum(sum(row) for row in matrix) == pytest.approx(100.0)


def test_confusion_matrix_trace_matches_accuracy(rng):
    labels = [rng.choice(CLASS_ORDER) for _ in range(200)]
    preds = [rng.choice(CLASS_ORDER) for _ in range(200)]
    report = echo_report(labels, preds)
    trace = sum(report.confusion[i][i] for i in range(4))
    assert trace == pytest.approx(report.accuracy * 100.0, abs=1e-9)


def test_per_class_accuracy_absent_class_is_zero():
    labels = [W, W, B]
    preds = [W, B, B]
    assert echo_report(labels, preds).per_class_accuracy == \
        [50.0, 100.0, 0.0, 0.0]


# the per-function formulas that each made their own passes over the lists;
# kept as the oracle for the metrics read from one count table

def reference_accuracy(labels, predictions):
    correct = sum(1 for t, p in zip(labels, predictions) if t == p)
    return correct / len(labels)


def reference_macro_f1(labels, predictions):
    total = 0.0
    for label in CLASS_ORDER:
        tp = sum(1 for t, p in zip(labels, predictions)
                 if t == label and p == label)
        fp = sum(1 for t, p in zip(labels, predictions)
                 if t != label and p == label)
        fn = sum(1 for t, p in zip(labels, predictions)
                 if t == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        total += (2 * precision * recall / (precision + recall)
                  if precision + recall else 0.0)
    return total / len(CLASS_ORDER)


def reference_confusion_matrix(labels, predictions):
    n = len(labels)
    matrix = [[0.0] * len(CLASS_ORDER) for _ in CLASS_ORDER]
    row_of = {label: i for i, label in enumerate(CLASS_ORDER)}
    for t, p in zip(labels, predictions):
        matrix[row_of[t]][row_of[p]] += 1.0
    return [[cell * 100.0 / n for cell in row] for row in matrix]


def reference_per_class_accuracy(labels, predictions):
    out = []
    for label in CLASS_ORDER:
        total = sum(1 for t in labels if t == label)
        if total == 0:
            out.append(0.0)
            continue
        correct = sum(1 for t, p in zip(labels, predictions)
                      if t == label and p == label)
        out.append(correct * 100.0 / total)
    return out


@st.composite
def labels_and_predictions(draw):
    """1-200 (label, prediction) pairs, each side drawn from its own subset
    of the classes, so that some classes are often absent. A side is two
    draws: a bit mask naming its subset, and n bytes, each picking a class
    of the subset (one draw for the list, where a list of n integers is n
    draws)."""
    def side(n):
        mask = draw(st.integers(1, 2 ** len(CLASS_ORDER) - 1))
        classes = [label for bit, label in enumerate(CLASS_ORDER)
                   if mask >> bit & 1]
        return [classes[byte % len(classes)]
                for byte in draw(st.binary(min_size=n, max_size=n))]
    n = draw(st.integers(1, 200))
    return side(n), side(n)


@given(labels_and_predictions())
@settings(max_examples=500)
def test_metrics_equal_the_per_function_formulas_bit_for_bit(pairs):
    labels, predictions = pairs
    report = echo_report(labels, predictions)
    assert (report.accuracy, report.macro_f1, report.per_class_accuracy,
            report.confusion) == (
        reference_accuracy(labels, predictions),
        reference_macro_f1(labels, predictions),
        reference_per_class_accuracy(labels, predictions),
        reference_confusion_matrix(labels, predictions))


def test_balance_subsample_uses_present_classes():
    pairs = [(f"w{i}", W) for i in range(6)] + [(f"b{i}", B) for i in range(2)]
    balanced = balance_subsample(pairs, seed=0)
    assert len(balanced) == 4
    assert sum(1 for _, label in balanced if label is W) == 2
    assert sum(1 for _, label in balanced if label is B) == 2
    assert [item for item, _ in balanced] == ["w3", "w5", "b0", "b1"]
    assert balance_subsample([], seed=0) == []


def test_balance_subsample_keeps_pairs_in_class_order():
    pairs = [(("x", i), W if i % 3 else B) for i in range(9)]
    balanced = balance_subsample(pairs, seed=1)
    # the seeded draw of each class, in class order
    assert balanced == [(("x", i), W) for i in (2, 7, 1)] + \
        [(("x", i), B) for i in (3, 0, 6)]


def test_evaluate_imbalanced_end_to_end():
    test_set = [(W, W), (W, W), (W, B), (HL, HL)]
    report = evaluate(Echo(), test_set, *DEFAULTS)
    assert report.n == 4
    assert report.setting == "imbalanced"
    assert report.accuracy == 0.75
    assert report.per_class_accuracy[0] == 100.0
    payload = report.to_dict()
    assert payload["classes"] == ["W", "B", "HL", "A"]
    assert payload["n"] == 4


def test_evaluate_balanced_subsamples_equal_counts():
    test_set = [(W, W)] * 8 + [(B, B)] * 2 + [(HL, HL)] * 2 + [(A, A)] * 2
    report = evaluate(Echo(), test_set, setting="balanced", seed=3)
    assert report.n == 8  # 2 per class
    assert report.accuracy == 1.0


def test_evaluate_balanced_majority_hits_exact_constants():
    items = [(label, label) for label in CLASS_ORDER for _ in range(36)]
    majority = MajorityBaseline(W)
    report = evaluate(majority, items, setting="balanced", seed=0)
    assert report.accuracy == 0.25
    assert report.macro_f1 == 0.1


class _BatchEcho:
    """Batch predictor that records its calls; per-example predict is off."""

    def __init__(self):
        self.batches = []

    def predict(self, features):
        raise AssertionError("evaluate should predict in one batch")

    def predict_batch(self, features):
        self.batches.append(list(features))
        return list(features)


def test_evaluate_predicts_in_one_batch_call():
    test_set = [(W, W), (B, W), (HL, HL), (A, A)] * 3
    predictor = _BatchEcho()
    report = evaluate(predictor, test_set, *DEFAULTS)
    assert predictor.batches == [[features for features, _ in test_set]]
    assert report == evaluate(Echo(), test_set, *DEFAULTS)


def test_evaluate_random_baseline_keeps_per_example_draws():
    items = [(None, label) for label in CLASS_ORDER for _ in range(25)]
    report = evaluate(RandomBaseline(seed=4), items, *DEFAULTS)
    fresh = RandomBaseline(seed=4)
    draws = [fresh.predict(None)[0] for _ in items]
    labels = [label for _, label in items]
    assert report.accuracy == reference_accuracy(labels, draws)
    assert report.confusion == reference_confusion_matrix(labels, draws)


def test_evaluate_rejects_empty_set():
    with pytest.raises(ValueError):
        evaluate(Echo(), [], *DEFAULTS)


def test_format_report_table_layout():
    report = EvalReport(accuracy=0.808, macro_f1=0.223,
                        per_class_accuracy=[100.0, 0.0, 0.0, 0.0],
                        confusion=[[0.0] * 4] * 4, n=1000,
                        setting="imbalanced")
    table = format_report_table("majority", report)
    lines = table.splitlines()
    assert lines[0].split() == ["model", "F1", "Acc%", "W", "B", "HL", "A"]
    assert lines[1].split() == ["majority", "0.223", "80.8",
                                "100.0", "0.0", "0.0", "0.0"]
