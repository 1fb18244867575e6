"""Distance-weighted self-report co-occurrence score and its grid tuning.

For a query occurrence q, every self-report word w in the window contributes
(1/D(w,q)) * (O_s(w)/O(w)); the tfidf weighting multiplies each term by
log(total_selfreport / O_s(w)). D counts word-kind tokens only, adjacent = 1.
Terms accumulate in token order, left to right, so two implementations of the
same sum agree bitwise in 64-bit arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .filters import QueryMatch
from .textprep import SelfReportLexicon, TaggedToken
from .util import read_rows

WEIGHTINGS = ("simple", "tfidf")


@dataclass(frozen=True)
class ScoreParams:
    window: int = 5
    threshold: float = 0.35
    weighting: str = "simple"


def score_description(tagged: Sequence[TaggedToken], match: QueryMatch,
                      lexicon: SelfReportLexicon,
                      params: ScoreParams) -> float:
    """Score one query occurrence against the description's window.

    The window is two-sided and measured in word tokens; the query token
    itself never contributes; duplicate occurrences of a self-report word
    each contribute their own term.
    """
    if len(lexicon) == 0:
        raise ValueError("self-report lexicon is empty")
    word_positions = [i for i, tt in enumerate(tagged) if tt.token.kind == "word"]
    try:
        query_pos = word_positions.index(match.token_index)
    except ValueError:
        # query token is not word-kind; nothing is word-distance-comparable
        return 0.0
    value = 0.0
    for pos, token_index in enumerate(word_positions):
        distance = abs(pos - query_pos)
        if distance == 0 or distance > params.window:
            continue
        word = tagged[token_index].token.text
        if word not in lexicon:
            continue
        os_count = lexicon.os_counts[word]
        o_count = lexicon.o_counts[word]
        term = (1.0 / distance) * (os_count / o_count)
        if params.weighting == "tfidf":
            term = term * math.log(lexicon.total_selfreport / os_count)
        value += term
    return value


def precision_recall(scores: Sequence[float], labels: Sequence[bool],
                      threshold: float) -> tuple[float | None, float]:
    tp = fp = fn = 0
    for score, label in zip(scores, labels):
        predicted = score >= threshold
        if predicted and label:
            tp += 1
        elif predicted and not label:
            fp += 1
        elif not predicted and label:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


def score_grid(windows: Sequence[int], thresholds: Sequence[float],
               weightings: Sequence[str]) -> list[ScoreParams]:
    return [ScoreParams(window, threshold, weighting)
            for weighting in weightings
            for window in windows
            for threshold in thresholds]


def tune_params(tuning_set: Sequence[tuple[Sequence[TaggedToken], QueryMatch, bool]],
                lexicon: SelfReportLexicon, grid: Sequence[ScoreParams]
                ) -> tuple[ScoreParams, float, float]:
    """Pick the grid point with the best precision of [score >= threshold];
    returns it with its precision and recall on the tuning set.

    Ties break toward higher recall, then smaller window, then lower
    threshold, then simple weighting. Raises if no grid point predicts any
    positive (precision undefined everywhere) or if the tuning set lacks a
    positive or a negative example.
    """
    labels = [bool(label) for _, _, label in tuning_set]
    if not any(labels) or all(labels):
        raise ValueError("tuning set needs at least one positive and one negative")

    # scores do not depend on the threshold, so compute once per (window, weighting)
    score_cache: dict[tuple[int, str], list[float]] = {}
    best_key = None
    for params in grid:
        cache_key = (params.window, params.weighting)
        if cache_key not in score_cache:
            score_cache[cache_key] = [
                score_description(tagged, match, lexicon, params)
                for tagged, match, _ in tuning_set]
        precision, recall = precision_recall(
            score_cache[cache_key], labels, params.threshold)
        if precision is None:
            continue
        key = (-precision, -recall, params.window, params.threshold,
               WEIGHTINGS.index(params.weighting))
        if best_key is None or key < best_key:
            best_key = key
            best = (params, precision, recall)
    if best_key is None:
        raise ValueError("no grid point yields a positive prediction")
    return best


def read_tuning_tsv(path) -> list[tuple[str, str, str]]:
    """Rows of user_id<TAB>label(yes|no|unsure)<TAB>annotator_id. A malformed
    row is a ValueError naming its line."""
    return read_rows(path, _vote_row)


def _vote_row(fields: list[str]) -> tuple[str, str, str]:
    if len(fields) != 3:
        raise ValueError("expected 3 tab-separated fields")
    user_id, label, annotator = fields
    if label not in ("yes", "no", "unsure"):
        raise ValueError(f"bad label {label!r}")
    return user_id, label, annotator
