"""Distance-weighted self-report co-occurrence score and its grid tuning.

For a query occurrence q, every self-report word w in the window contributes
(1/D(w,q)) * (O_s(w)/O(w)); the tfidf weighting multiplies each term by
log(total_selfreport / O_s(w)). D counts word-kind tokens only, adjacent = 1.
Terms accumulate in token order, one addition at a time from 0.0 (sum() may
compensate), so two implementations of the same sum agree bitwise in 64-bit
arithmetic, as tuning's sums of each example's terms do with the score.
"""
from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections import Counter
from itertools import accumulate
from operator import add
from typing import NamedTuple, Sequence

from .filters import QueryMatch
from .labels import MISSING_LABELS, WEIGHTINGS
from .textprep import WORD_CODES, SelfReportLexicon, Tagged, code_pattern
from .util import Sentinel, read_rows


class ScoreParams(NamedTuple):
    window: int
    threshold: float
    weighting: str


def _word_positions(tagged: Tagged) -> list[int]:
    return [match.start()
            for match in code_pattern(WORD_CODES).finditer(tagged.codes)]


def _terms(texts, positions: list[int], token_index: int,
           lexicon: SelfReportLexicon, window: int) -> list[tuple]:
    """(D, O_s/O, tfidf factor) of each lexicon word within window word
    tokens of the token at token_index, in token order; none if that token
    is not a word. positions: the indices of the word tokens."""
    try:
        query = positions.index(token_index)
    except ValueError:
        return []
    os_counts, total = lexicon.os_counts, lexicon.total_selfreport
    return [(abs(pos - query), os_counts[word] / lexicon.o_counts[word],
             math.log(total / os_counts[word]))
            for pos in range(max(query - window, 0),
                             min(query + window + 1, len(positions)))
            if pos != query and (word := texts[positions[pos]]) in os_counts]


def _term_sum(terms: list[tuple], window: int, weighting: str) -> float:
    tfidf = weighting == "tfidf"
    return functools.reduce(add, [
        (1.0 / distance) * ratio * factor if tfidf else (1.0 / distance) * ratio
        for distance, ratio, factor in terms if distance <= window], 0.0)


def score_matches(tagged: Tagged, matches: Sequence[QueryMatch],
                  lexicon: SelfReportLexicon,
                  params: ScoreParams) -> list[float]:
    """Score each query occurrence of one description against its window.

    The window is two-sided and measured in word tokens; the query token
    itself never contributes; duplicate occurrences of a self-report word
    each contribute their own term.
    """
    if len(lexicon) == 0:
        raise ValueError("self-report lexicon is empty")
    positions = _word_positions(tagged)
    return [_term_sum(_terms(tagged.texts, positions, match.token_index,
                             lexicon, params.window),
                      params.window, params.weighting)
            for match in matches]


def score_description(tagged: Tagged, match: QueryMatch,
                      lexicon: SelfReportLexicon,
                      params: ScoreParams) -> float:
    """Score one query occurrence (see score_matches)."""
    return score_matches(tagged, (match,), lexicon, params)[0]


def score_grid(windows: Sequence[int], thresholds: Sequence[float],
               weightings: Sequence[str]) -> list[ScoreParams]:
    return [ScoreParams(window, threshold, weighting)
            for weighting in weightings
            for window in windows
            for threshold in thresholds]


def _ranking(scores: list[float], labels: list[bool]):
    """The scores in ascending order, and for each k the number of positive
    examples among the scores from the k-th on."""
    order = sorted(range(len(scores)), key=scores.__getitem__)
    positives = list(accumulate((labels[i] for i in reversed(order)),
                                initial=0))
    return [scores[i] for i in order], positives[::-1]


def tune_params(tuning_set: Sequence[tuple[Tagged, QueryMatch, bool]],
                lexicon: SelfReportLexicon, grid: Sequence[ScoreParams]
                ) -> tuple[ScoreParams, float, float]:
    """Pick the grid point with the best precision of [score >= threshold];
    returns it with its precision and recall on the tuning set.

    Each example's terms are computed once and summed per (window,
    weighting); each threshold reads one ranking of those scores.

    Ties break toward higher recall, then smaller window, then lower
    threshold, then simple weighting. Raises if no grid point predicts any
    positive (precision undefined everywhere) or if the tuning set lacks a
    positive or a negative example.
    """
    labels = [bool(label) for _, _, label in tuning_set]
    if not any(labels) or all(labels):
        raise ValueError("tuning set needs at least one positive and one negative")
    if len(lexicon) == 0:
        raise ValueError("self-report lexicon is empty")
    widest = max((params.window for params in grid), default=0)
    terms = [_terms(tagged.texts, _word_positions(tagged), match.token_index,
                    lexicon, widest)
             for tagged, match, _ in tuning_set]

    rankings: dict[tuple[int, str], tuple] = {}
    best_key = None
    for params in grid:
        cache_key = (params.window, params.weighting)
        if cache_key not in rankings:
            rankings[cache_key] = _ranking(
                [_term_sum(example, *cache_key) for example in terms], labels)
        scores, positives = rankings[cache_key]
        at = bisect_left(scores, params.threshold)
        predicted, true_positive = len(scores) - at, positives[at]
        if not predicted:
            continue
        precision = true_positive / predicted
        recall = true_positive / positives[0]
        key = (-precision, -recall, params.window, params.threshold,
               WEIGHTINGS.index(params.weighting))
        if best_key is None or key < best_key:
            best_key = key
            best = (params, precision, recall)
    if best_key is None:
        raise ValueError("no grid point yields a positive prediction")
    return best


VOTES = ("yes", "no", "unsure")
DISCARD = Sentinel("DISCARD")


def read_tuning_tsv(path) -> list[tuple[str, str, str]]:
    """Rows of user_id<TAB>label(yes|no|unsure)<TAB>annotator_id. A malformed
    row is a ValueError naming its line."""
    return read_rows(path, _vote_row)


def _vote_row(fields: list[str]) -> tuple[str, str, str]:
    if len(fields) != 3:
        raise ValueError("expected 3 tab-separated fields")
    user_id, label, annotator = fields
    if label not in VOTES:
        raise ValueError(f"bad label {label!r}")
    return user_id, label, annotator


def majority_vote(labels: Sequence):
    """Strict majority among the non-missing labels; a majority of "unsure"
    or the absence of a strict majority discards the item."""
    valid = [label for label in labels if label not in MISSING_LABELS]
    for label in valid:
        if label not in VOTES:
            raise ValueError(f"unexpected label {label!r}")
    if not valid:
        return DISCARD
    counts = Counter(valid)
    winner, top = counts.most_common(1)[0]
    if top * 2 <= len(valid):
        return DISCARD
    if winner == "unsure":
        return DISCARD
    return winner
