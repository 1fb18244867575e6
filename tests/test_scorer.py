import math
import random

import pytest

from identminer.cli import KEYS
from identminer.filters import ClassLabel, QueryMatch, find_query_matches
from identminer.scorer import (WEIGHTINGS, ScoreParams, read_tuning_tsv,
                               score_description, score_grid, tune_params)
from identminer.textprep import SelfReportLexicon, build_selfreport_lexicon

from helpers import tag, tag_lexicon
from reference_description import reference_precision_recall, reference_tag

# the tuning grid of the default config, as tune builds it
DEFAULT_GRID = score_grid(KEYS["grid_windows"][0], KEYS["grid_thresholds"][0],
                          KEYS["grid_weightings"][0])


def oracle_score(tagged, match, lexicon, params):
    """Independent brute-force score over the reference token records
    (reference_tag): distances counted by explicit token walks instead of a
    precomputed word-position list."""
    if tagged[match.token_index].token.kind != "word":
        return 0.0
    value = 0.0
    for idx, tt in enumerate(tagged):
        if idx == match.token_index or tt.token.kind != "word":
            continue
        lo, hi = sorted((idx, match.token_index))
        distance = sum(1 for j in range(lo + 1, hi + 1)
                       if tagged[j].token.kind == "word")
        if distance == 0 or distance > params.window:
            continue
        word = tt.token.text
        if word not in lexicon:
            continue
        term = (1.0 / distance) * (lexicon.os_counts[word] / lexicon.o_counts[word])
        if params.weighting == "tfidf":
            term = term * math.log(lexicon.total_selfreport / lexicon.os_counts[word])
        value += term
    return value


def small_lexicon():
    return SelfReportLexicon(
        os_counts={"proud": 1, "farmer": 2, "woman": 1, "black": 1},
        o_counts={"proud": 2, "farmer": 2, "woman": 4, "black": 9})


def match_at(tagged, index):
    return QueryMatch("black", ClassLabel.BLACK, index, None)


def score(text, index, window=5, weighting="simple", lexicon=None):
    tagged = tag(text)
    params = ScoreParams(window=window, weighting=weighting)
    lexicon = lexicon if lexicon is not None else small_lexicon()
    return score_description(tagged, match_at(tagged, index), lexicon, params)


# ---------------------------------------------------------------------------
# hand-checked values

def test_score_counts_each_occurrence_once_per_distance():
    # words: proud _ farmer black woman farmer; query at token 3
    text = "proud ! farmer black woman farmer"
    got = score(text, 3)
    # proud:(1/2)(1/2)  farmer:(1)(1)  woman:(1)(1/4)  farmer:(1/2)(1)
    assert got == 0.25 + 1.0 + 0.25 + 0.5
    # one lexicon word at a time, with O_s = O: the sum of 1/distance over
    # that word's occurrences, so each occurrence's own distance shows
    for word, expected in (("proud", 1 / 2), ("farmer", 1 / 1 + 1 / 2),
                           ("woman", 1 / 1)):
        lexicon = SelfReportLexicon(os_counts={word: 1}, o_counts={word: 1})
        assert score(text, 3, lexicon=lexicon) == expected


def test_score_window_cuts_far_words():
    text = "proud ! farmer black woman farmer"
    assert score(text, 3, window=1) == 1.0 + 0.25


def test_score_excludes_query_token_itself():
    # "black" is in the lexicon but the matched occurrence contributes nothing
    got = score("black farmer", 0)
    assert got == 1.0
    # a second occurrence of the query word does contribute, as a normal word
    got = score("black black farmer", 0)
    assert got == (1.0 / 1) * (1 / 9) + (1.0 / 2) * (2 / 2)


def test_score_tfidf_weighting():
    text = "proud ! farmer black woman farmer"
    total = small_lexicon().total_selfreport
    assert total == 5
    expected = (0.25 * math.log(total / 1) + 1.0 * math.log(total / 2)
                + 0.25 * math.log(total / 1) + 0.5 * math.log(total / 2))
    assert score(text, 3, weighting="tfidf") == pytest.approx(expected, abs=1e-15)


def test_score_nonword_query_token_is_zero():
    text = "farmer ! woman"
    got = score(text, 1)
    assert got == 0.0


def test_score_empty_lexicon_errors():
    lexicon = SelfReportLexicon(os_counts={}, o_counts={})
    tagged = tag("black farmer")
    with pytest.raises(ValueError):
        score_description(tagged, match_at(tagged, 0), lexicon, ScoreParams())


# ---------------------------------------------------------------------------
# properties

def test_score_is_sum_of_contributions():
    text = "proud ! farmer black woman farmer proud woman"
    # every lexicon word around the query "black", in token order, with its
    # word distance; a window keeps the ones within it
    around = [("proud", 2), ("farmer", 1), ("woman", 1), ("farmer", 2),
              ("proud", 3), ("woman", 4)]
    lexicon = small_lexicon()
    for window in (1, 2, 3, 8):
        for weighting in WEIGHTINGS:
            got = score(text, 3, window=window, weighting=weighting)
            total = 0.0
            for word, distance in around:
                if distance > window:
                    continue
                os_count = lexicon.os_counts[word]
                term = (1.0 / distance) * (os_count / lexicon.o_counts[word])
                if weighting == "tfidf":
                    term = term * math.log(5 / os_count)
                total += term
            assert got == total


def test_score_decays_with_distance():
    # fillers push the only lexicon word away from the query one step at a time
    values = []
    for pad in range(4):
        text = "black " + "zz " * pad + "farmer"
        values.append(score(text, 0, window=3))
    assert values[0] > values[1] > values[2] > 0.0
    assert values[3] == 0.0  # beyond the window
    assert values[0] == 2 * values[1]


def test_score_bounded_by_harmonic_window_sum():
    rng = random.Random(7)
    words = ["black", "farmer", "woman", "proud", "zz"]
    for _ in range(200):
        text = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 12)))
        tagged = tag(text)
        window = rng.randrange(1, 6)
        for match in find_query_matches(tagged, text):
            got = score_description(tagged, match, small_lexicon(),
                                    ScoreParams(window=window))
            bound = sum(2.0 / d for d in range(1, window + 1))
            assert got <= bound + 1e-12


# ---------------------------------------------------------------------------
# randomized bitwise agreement with the brute-force oracle

WORD_POOL = ["black", "white", "asian", "hispanic", "latina", "farmer",
             "nurse", "proud", "happy", "woman", "man", "coffee", "tea",
             "sky", "zorg", "blip", "i", "am", "a"]
OTHER_POOL = ["!", ",", "...", "#fun", "@pal", "🎉", "https://x.example/p"]


def random_lexicon(rng):
    chosen = rng.sample(WORD_POOL, rng.randrange(2, 10))
    os_counts, o_counts = {}, {}
    for word in chosen:
        os_count = rng.randrange(1, 40)
        os_counts[word] = os_count
        o_counts[word] = os_count + rng.randrange(0, 40)
    return SelfReportLexicon(os_counts=os_counts, o_counts=o_counts)


def random_text(rng):
    pieces = []
    for _ in range(rng.randrange(1, 15)):
        pool = OTHER_POOL if rng.random() < 0.2 else WORD_POOL
        pieces.append(rng.choice(pool))
    return " ".join(pieces)


def test_score_matches_oracle_bitwise_on_random_inputs():
    rng = random.Random(20240601)
    compared = 0
    for _ in range(1000):
        text = random_text(rng)
        tagged = tag(text)
        records = reference_tag(text, tag_lexicon().tags)
        if not records:
            continue
        lexicon = random_lexicon(rng)
        params = ScoreParams(window=rng.randrange(1, 11),
                             weighting=rng.choice(WEIGHTINGS))
        matches = list(find_query_matches(tagged, text))
        matches.append(match_at(tagged, rng.randrange(len(records))))
        for match in matches:
            got = score_description(tagged, match, lexicon, params)
            assert got == oracle_score(records, match, lexicon, params)
            compared += 1
    assert compared >= 1000


# ---------------------------------------------------------------------------
# parameter tuning

def build_tuning_fixture():
    descriptions = ["i am a black farmer", "i am a proud black woman",
                    "black coffee lover", "i am happy"]
    lexicon = build_selfreport_lexicon(descriptions, tag_lexicon())
    labeled = [("i am a black farmer", True),
               ("i am a proud black woman", True),
               ("black coffee lover", False),
               ("black and red outfit", False)]
    tuning_set = []
    for text, label in labeled:
        tagged = tag(text)
        match = find_query_matches(tagged, text)[0]
        tuning_set.append((tagged, match, label))
    return tuning_set, lexicon


def test_tune_params_prefers_precision_then_recall_then_smallest():
    tuning_set, lexicon = build_tuning_fixture()
    best, precision, recall = tune_params(tuning_set, lexicon,
                                          DEFAULT_GRID)
    # positives score >= 1.0, negatives 0.0: many grid points are perfect,
    # and the tie-break picks the smallest window and threshold, simple first
    assert best == ScoreParams(1, 0.05, "simple")
    assert (precision, recall) == (1.0, 1.0)


def test_tune_params_custom_grid():
    tuning_set, lexicon = build_tuning_fixture()
    grid = [ScoreParams(4, 0.9, "simple"), ScoreParams(4, 0.3, "simple")]
    best, precision, recall = tune_params(tuning_set, lexicon, grid)
    assert best == grid[1]
    # the same figures as scoring the tuning set again under the winner
    scores = [score_description(tagged, match, lexicon, best)
              for tagged, match, _ in tuning_set]
    assert (precision, recall) == reference_precision_recall(
        scores, [label for _, _, label in tuning_set], best.threshold)


def test_tune_params_needs_both_label_kinds():
    tuning_set, lexicon = build_tuning_fixture()
    with pytest.raises(ValueError):
        tune_params([row for row in tuning_set if row[2]], lexicon,
                    DEFAULT_GRID)
    with pytest.raises(ValueError):
        tune_params([row for row in tuning_set if not row[2]], lexicon,
                    DEFAULT_GRID)


def test_tune_params_needs_a_positive_prediction():
    lexicon = small_lexicon()
    rows = []
    for text, label in [("black", True), ("coffee black", False)]:
        tagged = tag(text)
        match = find_query_matches(tagged, text)[0]
        rows.append((tagged, match, label))
    # every score is zero, so no grid point ever predicts a positive
    with pytest.raises(ValueError):
        tune_params(rows, lexicon, DEFAULT_GRID)


def test_default_grid_shape():
    grid = DEFAULT_GRID
    assert len(grid) == 2 * 10 * 19
    assert grid[0] == ScoreParams(1, 0.05, "simple")
    assert grid[-1] == ScoreParams(10, 0.95, "tfidf")


def test_read_tuning_tsv(tmp_path):
    path = tmp_path / "tuning.tsv"
    path.write_text("u1\tyes\tann1\nu2\tno\tann2\n\nu3\tunsure\tann1\n",
                    encoding="utf-8")
    assert read_tuning_tsv(path) == [("u1", "yes", "ann1"), ("u2", "no", "ann2"),
                                     ("u3", "unsure", "ann1")]
    bad = tmp_path / "bad.tsv"
    bad.write_text("u1\tmaybe\tann1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_tuning_tsv(bad)
    bad.write_text("u1\tyes\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_tuning_tsv(bad)


def test_farmer_closer_than_padded_version_scores_higher():
    # any lexicon containing the head noun but not the filler must rank the
    # adjacent head strictly above the padded one
    rng = random.Random(99)
    for _ in range(100):
        os_count = rng.randrange(1, 30)
        lexicon = SelfReportLexicon(
            os_counts={"farmer": os_count,
                       "black": rng.randrange(1, 10)},
            o_counts={"farmer": os_count + rng.randrange(0, 30),
                      "black": 50})
        for weighting in WEIGHTINGS:
            params = ScoreParams(window=5, weighting=weighting)
            near, far = "i am a black farmer", "i am a black beans farmer"
            score_near = score_description(
                tag(near), find_query_matches(tag(near), near)[0], lexicon,
                params)
            score_far = score_description(
                tag(far), find_query_matches(tag(far), far)[0], lexicon,
                params)
            assert score_near > score_far